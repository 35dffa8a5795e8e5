"""The JSON loaders reject a value of the wrong JSON type with ValueError."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resilient_alloc import wire
from resilient_alloc.cli import main
from resilient_alloc.flows import flow_set_from_dict
from resilient_alloc.networks import load_networks
from resilient_alloc.rational import Node
from resilient_alloc.simulator import scenario_from_dict

from conftest import DEMOS

NETWORKS_DOC = {
    "networks": [
        {"builtin": "wifi_fipy"},
        {
            "id": "lora",
            "name": "LoRa",
            "capacity_bps": 5470,
            "max_payload_bytes": 222,
            "max_messages_per_day": 97,
            "min_inter_message_gap_seconds": "0.000165",
            "latency": {"uniform_ms": [24, 2800]},
            "connect_time_seconds": 5.6,
            "time_on_air_ms": 368.9,
        },
        {"id": "n", "capacity_bps": 100, "latency": {"fixed_ms": 8}},
    ]
}


def _load_networks_doc(doc) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "networks.json"
        path.write_text(json.dumps(doc))
        load_networks(path)


DOCUMENTS = {
    "flow_set": (json.loads((DEMOS / "assisted_living.json").read_text()), flow_set_from_dict),
    "networks": (NETWORKS_DOC, _load_networks_doc),
    "scenario": (
        {
            **json.loads((DEMOS / "wifi_loss.json").read_text()),
            "initially_available": ["wifi", "nbiot"],
            "handshake": {"uniform_seconds": [1.3, 1.5]},
        },
        lambda doc: scenario_from_dict(doc).validate(),
    ),
}

_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5))
_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, 1.5]), st.floats()),
    "str": st.text(max_size=5),
    "list": st.lists(_scalars, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _scalars, max_size=3),
}
_KIND = {type(None): "null", bool: "bool", int: "int", float: "float", str: "str", list: "list", dict: "object"}


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(data, doc, keep_kind: bool):
    """A copy of ``doc`` with one node replaced; ``keep_kind`` allows a value of the node's own JSON type."""
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    kinds = [k for k in _VALUES if keep_kind or k != _KIND[type(_node(doc, path))]]
    value = data.draw(st.sampled_from(kinds).flatmap(_VALUES.get), label="value")
    if not path:
        return value
    mutated = copy.deepcopy(doc)
    _node(mutated, path[:-1])[path[-1]] = value
    return mutated


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_value_of_another_json_type_is_a_value_error(name, data):
    # A mutated scenario is parsed and validated but never run, since a
    # mutated duration could make the run unbounded.
    doc, load = DOCUMENTS[name]
    try:
        load(_mutated(data, doc, keep_kind=False))
    except ValueError:
        pass


# --- the command line on mutated documents --------------------------------------

SIM_SECONDS = 10
SIM_BASE = {
    **DOCUMENTS["scenario"][0],
    "duration_seconds": SIM_SECONDS,
    "events": [{"kind": "down", "network": "wifi", "t": 5}],
}
# The simulator builds each payload as ``c`` bytes, every ``t`` seconds, so
# these two bound a run's memory and time (see CHANGES.md). A ``c`` above
# wire.MAX_BODY is refused before the run starts.
SIM_QOS_LIMITS = {"t": lambda t: t >= Fraction(1, 100), "c": lambda c: c <= 10**5 or c > wire.MAX_BODY}
COMMANDS = ("allocate", "compare", "solve")
CLI_CASES = [("flow_set", c) for c in COMMANDS] + [("networks", c) for c in COMMANDS] + [("scenario", "simulate")]


def _number(value) -> Fraction | None:
    try:
        return Node(value, "value").fraction()
    except ValueError:
        return None


def _bound_simulation(doc) -> None:
    """Cap a numeric duration at SIM_SECONDS and discard a qos entry beyond SIM_QOS_LIMITS."""
    if isinstance(doc, dict) and (_number(doc.get("duration_seconds")) or 0) > SIM_SECONDS:
        doc["duration_seconds"] = SIM_SECONDS
    for path in _paths(doc):
        if len(path) >= 3 and path[-3] == "qos" and path[-1] in SIM_QOS_LIMITS:
            number = _number(_node(doc, path))
            assume(number is None or SIM_QOS_LIMITS[path[-1]](number))


def _argv(name: str, command: str, document: Path) -> list[str]:
    if name == "scenario":
        return [command, "--scenario", str(document)]
    if name == "flow_set":
        return [command, "--flows", str(document), "--networks", "wifi_fipy,lora_sf7_fipy,sigfox_fipy"]
    return [command, "--flows", str(DEMOS / "assisted_living.json"), "--networks", str(document)]


@pytest.mark.parametrize("name,command", CLI_CASES)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_cli_on_a_mutated_document_exits_with_one_message(name, command, data):
    # Unlike the loader test above, the new value may keep the old JSON type,
    # so that odd but well-typed documents run to the end.
    mutated = _mutated(data, SIM_BASE if name == "scenario" else DOCUMENTS[name][0], keep_kind=True)
    if name == "scenario":
        _bound_simulation(mutated)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        document = Path(tmp) / "doc.json"
        document.write_text(json.dumps(mutated))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(_argv(name, command, document))
    message = err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert message.count("\n") == 1 and message.endswith("\n"), message
        assert message.startswith("infeasible: " if code == 2 else "error: "), message
