from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from resilient_alloc import FixedDelay, NetworkProfile, UniformDelay, builtin_profile, lora_profile
from resilient_alloc.networks import (
    BUILTIN_KINDS,
    LORA_UPLINK_TABLE,
    network_from_dict,
    networks_from_json,
)
from resilient_alloc.rational import Node


def _profile(doc: dict):
    return network_from_dict(Node(doc, "network", root=True))


class TestBuiltins:
    def test_comparison_set_capacities(self):
        assert builtin_profile("wifi_table2").capacity_bps == 64000
        assert builtin_profile("lora_sf9_table2").capacity_bps == 1760
        assert builtin_profile("sigfox_table2").capacity_bps == 48

    def test_device_set_capacities(self):
        assert builtin_profile("wifi_fipy").capacity_bps == 750_000
        assert builtin_profile("nbiot_fipy").capacity_bps == 55_000
        assert builtin_profile("lora_sf7_fipy").capacity_bps == 5_470
        assert builtin_profile("sigfox_fipy").capacity_bps == 100

    @pytest.mark.parametrize("kind", ["sigfox_fipy", "sigfox_table2"])
    def test_sigfox_delivery_constraints(self, kind):
        sigfox = builtin_profile(kind)
        assert sigfox.max_payload_bytes == 12
        assert sigfox.max_messages_per_day == 140
        assert sigfox.min_inter_message_gap_seconds == Fraction("10.5")
        assert sigfox.latency == UniformDelay(Fraction(1), Fraction("4.5"))

    def test_lora_builtins_match_the_uplink_table_rows(self):
        assert builtin_profile("lora_sf9_table2") == lora_profile(9, 125)
        assert builtin_profile("lora_sf7_fipy") == lora_profile(7, 125)

    def test_wifi_and_nbiot_have_no_payload_cap(self):
        for kind in ("wifi_table2", "wifi_fipy", "nbiot_fipy"):
            profile = builtin_profile(kind)
            assert profile.max_payload_bytes is None
            assert profile.max_messages_per_day is None

    def test_latency_models(self):
        assert builtin_profile("wifi_fipy").latency == FixedDelay(Fraction("0.008"))
        assert builtin_profile("nbiot_fipy").latency == FixedDelay(Fraction("0.576"))
        assert builtin_profile("lora_sf7_fipy").latency == UniformDelay(
            Fraction("0.024"), Fraction("2.8")
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            builtin_profile("zigbee")

    def test_kinds_registry_is_stable(self):
        assert BUILTIN_KINDS == (
            "wifi_table2",
            "lora_sf9_table2",
            "sigfox_table2",
            "wifi_fipy",
            "nbiot_fipy",
            "lora_sf7_fipy",
            "sigfox_fipy",
        )


class TestLoraTable:
    def test_sf9_125(self):
        profile = lora_profile(9, 125)
        assert profile.capacity_bps == 1760
        assert profile.max_payload_bytes == 115
        assert profile.max_messages_per_day == 53

    def test_sf7_250(self):
        profile = lora_profile(7, 250)
        assert profile.capacity_bps == 11000
        assert profile.max_payload_bytes == 222
        assert profile.max_messages_per_day == 195

    def test_sf12_125(self):
        profile = lora_profile(12, 125)
        assert profile.capacity_bps == 250
        assert profile.max_payload_bytes == 51
        assert profile.max_messages_per_day == 12

    def test_exactly_seven_rows_supported(self):
        assert len(LORA_UPLINK_TABLE) == 7
        for sf, bw in LORA_UPLINK_TABLE:
            lora_profile(sf, bw)

    @pytest.mark.parametrize("sf,bw", [(6, 125), (13, 125), (8, 250), (12, 250), (7, 500)])
    def test_unsupported_pairs(self, sf, bw):
        with pytest.raises(ValueError):
            lora_profile(sf, bw)


class TestJson:
    def test_builtin_reference(self):
        profile = _profile({"builtin": "sigfox_fipy"})
        assert profile.id == "sigfox"
        assert profile.capacity_bps == 100

    def test_custom_profile(self):
        profile = _profile(
            {
                "id": "mesh",
                "name": "Mesh",
                "capacity_bps": 1234,
                "max_payload_bytes": 64,
                "min_inter_message_gap_seconds": 0.25,
                "latency": {"uniform_ms": [10, 20]},
            }
        )
        assert profile.capacity_bps == 1234
        assert profile.min_inter_message_gap_seconds == Fraction(1, 4)
        assert profile.latency == UniformDelay(Fraction("0.01"), Fraction("0.02"))

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(NetworkProfile)])
    def test_builtin_refuses_every_profile_field(self, field):
        with pytest.raises(ValueError, match=rf"^{field}: not allowed next to builtin$"):
            _profile({"builtin": "wifi_table2", field: 5})

    def test_builtin_ignores_unknown_and_null_keys(self):
        profile = _profile({"builtin": "wifi_table2", "capacity_bps": None, "time_on_air_ms": 3})
        assert profile == builtin_profile("wifi_table2")

    def test_time_on_air_key_is_ignored(self):
        # The profile has no airtime field; the key is ignored like any unknown key.
        assert networks_from_json([{"id": "lora", "capacity_bps": 5470, "time_on_air_ms": -1}]) == [
            NetworkProfile(id="lora", name="lora", capacity_bps=5470)
        ]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            networks_from_json([{"builtin": "wifi_fipy"}, {"builtin": "wifi_table2"}])

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            _profile({"id": "x", "capacity_bps": 0})

    def test_load_accepts_wrapped_document(self, tmp_path):
        from resilient_alloc import load_networks

        path = tmp_path / "nets.json"
        path.write_text('{"networks": [{"builtin": "wifi_fipy"}]}')
        networks = load_networks(path)
        assert [p.id for p in networks] == ["wifi"]
