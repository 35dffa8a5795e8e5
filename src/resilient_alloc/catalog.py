"""Algorithm name registry shared by the CLI and the simulator."""

from __future__ import annotations

from . import allocators
from .allocators import HEURISTIC_NAMES, AllocationTable, AllocatorConfig
from .flows import FlowSpec
from .networks import NetworkProfile
from .solver import IlpInstance, exact_solve

ALGORITHM_NAMES = HEURISTIC_NAMES + ("exact",)


def run_algorithm(
    name: str, flows: list[FlowSpec], networks: list[NetworkProfile], cfg: AllocatorConfig
) -> AllocationTable:
    """Run any allocator (heuristic or exact) by its CLI name."""
    if name not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHM_NAMES)}")
    if name == "exact":
        return exact_solve(IlpInstance(flows, networks, cfg))
    # Allocators are looked up on their module at call time, so a caller
    # that replaces one (a timing wrapper, say) sees every dispatch.
    if name == "cabf":
        return allocators.cabf(flows, networks, cfg)
    if name == "cabf-inv":
        return allocators.cabf_inv(flows, networks, cfg)
    return allocators.heuristic(name, flows, networks, cfg)
