"""Criticality-aware multi-network QoS allocation and edge-node simulation.

The library treats each network interface of a multi-radio edge device as a
capacity bin and chooses, for every declared message flow, a serving network
and a criticality level (its service tier). It ships an exact
branch-and-bound solver, a criticality-aware best-fit allocator with an
inverted variant, twelve classic bin-packing baselines, the framed wire
protocol spoken between the application host and the allocating node, and a
deterministic discrete-event simulator of the pair.
"""

from .allocators import (
    Allocation,
    AllocationTable,
    AllocatorConfig,
    cabf,
    cabf_inv,
    heuristic,
    verify_allocation_table,
)
from .catalog import ALGORITHM_NAMES, run_algorithm
from .flows import (
    FlowSet,
    FlowSpec,
    QosRequirement,
    ValidationError,
    load_flow_set,
    utilization,
    validate_flow_set,
)
from .metrics import AllocationReport, objective, report
from .networks import (
    BUILTIN_KINDS,
    NetworkProfile,
    builtin_profile,
    load_networks,
    lora_profile,
)
from .rng import FixedDelay, UniformDelay
from .simulator import (
    Handshake,
    NetworkEvent,
    Scenario,
    SimReport,
    load_scenario,
    run,
)
from .solver import IlpInstance, Infeasible, exact_solve

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "Allocation",
    "AllocationReport",
    "AllocationTable",
    "AllocatorConfig",
    "BUILTIN_KINDS",
    "FixedDelay",
    "FlowSet",
    "FlowSpec",
    "Handshake",
    "IlpInstance",
    "Infeasible",
    "NetworkEvent",
    "NetworkProfile",
    "QosRequirement",
    "Scenario",
    "SimReport",
    "UniformDelay",
    "ValidationError",
    "builtin_profile",
    "cabf",
    "cabf_inv",
    "exact_solve",
    "heuristic",
    "load_flow_set",
    "load_networks",
    "load_scenario",
    "lora_profile",
    "objective",
    "report",
    "run",
    "run_algorithm",
    "utilization",
    "validate_flow_set",
    "verify_allocation_table",
]
