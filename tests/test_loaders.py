"""The JSON loaders reject a value of the wrong JSON type with ValueError."""

from __future__ import annotations

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_alloc.flows import flow_set_from_dict
from resilient_alloc.networks import load_networks
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
        scenario_from_dict,
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


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_value_of_another_json_type_is_a_value_error(name, data):
    # The loaders only parse; a mutated scenario is never run, since a
    # mutated duration could make the run unbounded.
    doc, load = DOCUMENTS[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    kind = _KIND[type(_node(doc, path))]
    value = data.draw(st.sampled_from([k for k in _VALUES if k != kind]).flatmap(_VALUES.get), label="value")
    if path:
        mutated = copy.deepcopy(doc)
        _node(mutated, path[:-1])[path[-1]] = value
    else:
        mutated = value
    try:
        load(mutated)
    except ValueError:
        pass
