from __future__ import annotations

import io
import json
import sys
import tracemalloc

import pytest

from resilient_alloc import simulator, wire
from resilient_alloc.cli import SEED_ENV_VAR, main
from resilient_alloc.simulator import Scenario, scenario_from_dict

from conftest import DEMOS

FLOWS = str(DEMOS / "assisted_living.json")
TABLE2 = "wifi_table2,lora_sf9_table2,sigfox_table2"
WIFI = '[{"builtin": "wifi_fipy"}]'
LONG_EXPONENT = "1e" + "9" * 5000
LONG_DECIMAL = "1." + "5" * 5000


def _one_flow(qos=None, **fields) -> str:
    """A flow set holding one flow, with ``fields`` and ``qos`` replacing its defaults."""
    flow = {"id": "1", "name": "a", "qos": qos or {"1": {"c": 1, "t": 1}}, **fields}
    return json.dumps({"l_max": 1, "flows": [flow]})


def _one_network(**fields) -> str:
    return json.dumps([{"id": "n", "capacity_bps": 100, **fields}])


def _unknown_networks(tmp_path, count: int) -> str:
    """Path of a network list holding ``count`` id-only networks of no known technology."""
    path = tmp_path / "networks.json"
    path.write_text(json.dumps([{"id": f"n{i}", "capacity_bps": 100} for i in range(count)]))
    return str(path)


def _long_named_flows(count: int) -> list[dict]:
    """``count`` flows whose MFEA records each take 1052 bytes on the Wi-Fi loss demo's NB-IoT."""
    return [{"id": str(i), "name": f"flow {i:04d} " + "x" * 990, "qos": {"1": {"c": 1, "t": 1}}} for i in range(count)]


def _wifi_latency(latency) -> str:
    """The networks of the Wi-Fi loss demo, with ``latency`` on its Wi-Fi."""
    return json.dumps([{"id": "wifi", "capacity_bps": 750000, "latency": latency}, {"builtin": "nbiot_fipy"}])


class TestCompare:
    def test_objective_column_golden(self, capsys):
        assert main(["compare", "--flows", FLOWS, "--networks", TABLE2, "--factor", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # header line, column line, then one row per algorithm
        objectives = [int(line.split()[-1]) for line in lines[2:]]
        assert objectives == [18, 18, 15, 15, 18, 18, 15, 15, 18, 18, 15, 15, 22, 22, 22]

    def test_factor_printed_in_header(self, capsys):
        main(["compare", "--flows", FLOWS, "--networks", TABLE2, "--factor", "8"])
        header = capsys.readouterr().out.splitlines()[0]
        assert "factor=8" in header

    def test_device_profile_row(self, capsys):
        assert (
            main(
                [
                    "allocate",
                    "--flows",
                    FLOWS,
                    "--networks",
                    "sigfox_fipy",
                    "--factor",
                    "1",
                    "--algo",
                    "cabf-inv",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        row = doc["rows"][0]
        assert row["percent_served"] == 100.0
        assert row["avg_criticality"] == 1.625
        levels = [row["per_flow"][str(i)]["level"] for i in range(1, 9)]
        assert levels == [2, 2, 1, 2, 1, 2, 2, 1]

    def test_empty_flow_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"l_max": 3, "flows": []}')
        assert main(["compare", "--flows", str(path), "--networks", TABLE2]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 + 15
        assert all(line.split()[-1] == "0" for line in lines[2:])

    def test_csv_format(self, capsys):
        assert (
            main(["compare", "--flows", FLOWS, "--networks", TABLE2, "--format", "csv"]) == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("algorithm,flow_1")
        assert len(lines) == 16

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_more_unknown_networks_than_letters_is_an_error(self, tmp_path, capsys, fmt):
        # Networks of no known technology are marked a..z; a 27th has no mark.
        assert main(["compare", "--flows", FLOWS, "--networks", _unknown_networks(tmp_path, 27), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 27 networks have no known technology")
        assert "--format json" in captured.err
        assert captured.err.count("\n") == 1

    def test_more_unknown_networks_than_letters_render_as_json(self, tmp_path, capsys):
        assert main(["compare", "--flows", FLOWS, "--networks", _unknown_networks(tmp_path, 27), "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 15

    def test_twenty_six_unknown_networks_take_every_letter(self, tmp_path, capsys):
        assert main(["compare", "--flows", FLOWS, "--networks", _unknown_networks(tmp_path, 26)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("factor=8  networks: a n0  b n1  c n2")
        assert header.endswith("y n24  z n25")


class TestSolve:
    def test_exact_row(self, capsys):
        assert (
            main(["solve", "--flows", FLOWS, "--networks", TABLE2, "--format", "json"]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["objective"] == 22

    def test_require_all_success_exit_zero(self, capsys):
        code = main(["solve", "--flows", FLOWS, "--networks", TABLE2, "--require-all"])
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1].endswith("22")

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "flows.json"
        path.write_text(
            '{"l_max": 1, "flows": [{"id": "1", "app": "A", "name": "big",'
            ' "qos": {"1": {"c": 100000, "t": 1}}}]}'
        )
        code = main(
            ["solve", "--flows", str(path), "--networks", "sigfox_fipy", "--require-all"]
        )
        assert code == 2


class TestSimulate:
    def test_json_deterministic(self, wifi_loss_path, capsys):
        assert main(["simulate", "--scenario", str(wifi_loss_path), "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--scenario", str(wifi_loss_path), "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["schema_version"] == 1
        assert len(doc["handshakes"]) == 1

    def test_table_format_mentions_handshake(self, wifi_loss_path, capsys):
        assert main(["simulate", "--scenario", str(wifi_loss_path)]) == 0
        out = capsys.readouterr().out
        assert "handshake: start=300s" in out

    def test_transcript_written(self, wifi_loss_path, tmp_path, capsys):
        transcript = tmp_path / "frames.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    str(wifi_loss_path),
                    "--transcript",
                    str(transcript),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = transcript.read_text().strip().splitlines()
        entries = [json.loads(line) for line in lines]
        assert entries[0]["t"] == 0.0
        assert entries[0]["body"].startswith("MFEA:")
        assert {"t", "dir", "body"} <= set(entries[0])

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"duration_seconds": [600]}, id="unreadable"),
            pytest.param({"events": [{"kind": "down", "network": "wifi", "t": 601}]}, id="fails_validation"),
        ],
    )
    def test_invalid_scenario_leaves_the_transcript_empty(self, wifi_loss_path, tmp_path, capsys, change):
        path, transcript = tmp_path / "scenario.json", tmp_path / "frames.jsonl"
        path.write_text(json.dumps({**json.loads(wifi_loss_path.read_text()), **change}))
        transcript.write_text("left from an earlier run\n")
        assert main(["simulate", "--scenario", str(path), "--transcript", str(transcript)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert transcript.read_text() == ""

    def test_stopped_run_leaves_the_frames_sent_before_it(self, wifi_loss_path, tmp_path, capsys, monkeypatch):
        transcript = tmp_path / "frames.jsonl"
        argv = ["simulate", "--scenario", str(wifi_loss_path), "--transcript", str(transcript), "--format", "json"]
        assert main(argv) == 0
        full = transcript.read_text().splitlines(keepends=True)
        decode_app, calls = wire.decode_app, []

        def stop_at_the_fifth_message(data: bytes) -> wire.AppMessage:
            calls.append(data)
            if len(calls) == 5:
                raise wire.ParseError("stopped on purpose", 0)
            return decode_app(data)

        monkeypatch.setattr(wire, "decode_app", stop_at_the_fifth_message)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: stopped on purpose (at byte 0)\n"
        stopped = transcript.read_text().splitlines(keepends=True)
        assert all(line.endswith("\n") and json.loads(line) for line in stopped)
        assert 0 < len(stopped) < len(full) and stopped == full[: len(stopped)]

    @pytest.mark.parametrize("spelling", ["same_path", "relative_path", "symlink"])
    def test_transcript_naming_the_scenario_is_refused(self, wifi_loss_path, tmp_path, capsys, monkeypatch, spelling):
        monkeypatch.setattr(simulator, "run", lambda *args, **kwargs: pytest.fail("the simulation started"))
        (tmp_path / "sub").mkdir()
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(wifi_loss_path.read_bytes())
        transcript = str(scenario)
        if spelling == "relative_path":
            monkeypatch.chdir(tmp_path / "sub")
            transcript = "../sub/../scenario.json"
        elif spelling == "symlink":
            transcript = str(tmp_path / "sub" / "link.json")
            (tmp_path / "sub" / "link.json").symlink_to(scenario)
        assert main(["simulate", "--scenario", str(scenario), "--transcript", transcript]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --transcript {transcript} is the scenario file; it would be emptied before it is read\n"
        )
        assert scenario.read_bytes() == wifi_loss_path.read_bytes()

    @pytest.mark.parametrize("transcript", ["new.json", "out.jsonl"], ids=["same_name", "other_name"])
    def test_missing_scenario_creates_no_file(self, tmp_path, capsys, monkeypatch, transcript):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scenario", "new.json", "--transcript", transcript]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: 'new.json'\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_transcript_fails_before_the_run(self, wifi_loss_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulator, "run", lambda *args, **kwargs: pytest.fail("the simulation started"))
        transcript = tmp_path / "missing" / "frames.jsonl"
        assert main(["simulate", "--scenario", str(wifi_loss_path), "--transcript", str(transcript)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_memory_stays_flat_with_a_transcript(self, tmp_path, capsys):
        # The transcript is written as frames are sent, so neither it nor the
        # run holds memory that grows with simulated time.
        def peak_bytes(days: int) -> int:
            scenario = {
                "l_max": 1,
                "factor": 1,
                "duration_seconds": days * 86400,
                "seed": 42,
                "networks": [{"builtin": "wifi_fipy"}],
                "flows": [{"id": "1", "name": "flow 1", "qos": {"1": {"c": 1, "t": 300}}}],
            }
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(scenario))
            argv = ["simulate", "--scenario", str(path), "--transcript", str(tmp_path / "frames.jsonl")]
            tracemalloc.start()
            try:
                assert main(argv + ["--format", "json"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak_bytes(1)  # warm up one-time caches
        assert peak_bytes(7) <= 1.5 * peak_bytes(1)

    def test_periods_written_with_an_exponent_round_trip(self, tmp_path, capsys):
        scenario = {
            "l_max": 1,
            "factor": 1,
            "duration_seconds": "0.0001",
            "seed": 1,
            "networks": [{"builtin": "wifi_fipy"}],
            "flows": [
                {"id": "1", "name": "fast", "qos": {"1": {"c": 1, "t": "0.00001"}}},
                {"id": "2", "name": "slow", "qos": {"1": {"c": 1, "t": "25000000000000000.5"}}},
            ],
        }
        path, transcript = tmp_path / "scenario.json", tmp_path / "frames.jsonl"
        path.write_text(json.dumps(scenario))
        argv = ["simulate", "--scenario", str(path), "--transcript", str(transcript), "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["per_flow"]["1"]["delivered"] == 10
        mfea = json.loads(transcript.read_text().splitlines()[0])["body"]
        assert "'PE': 1e-05" in mfea and "'PE': 2.5e+16" in mfea

    def test_seed_env_override(self, wifi_loss_path, capsys, monkeypatch):
        monkeypatch.setenv("RESILIENT_ALLOC_SEED", "7")
        assert main(["simulate", "--scenario", str(wifi_loss_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 7

    @pytest.mark.parametrize(
        "value,code,err",
        [
            pytest.param("1e3", 0, "", id="exponent"),
            pytest.param("abc", 1, "error: RESILIENT_ALLOC_SEED: expected a number, got 'abc'\n", id="word"),
            pytest.param(
                "1.5", 1, "error: RESILIENT_ALLOC_SEED: expected a whole number, got '1.5'\n", id="fractional"
            ),
        ],
    )
    def test_seed_env_override_reads_a_whole_number(self, wifi_loss_path, capsys, monkeypatch, value, code, err):
        monkeypatch.setenv("RESILIENT_ALLOC_SEED", value)
        assert main(["simulate", "--scenario", str(wifi_loss_path), "--format", "json"]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        if code == 0:
            assert json.loads(captured.out)["seed"] == 1000

    @pytest.mark.parametrize(
        "value,code",
        [
            pytest.param("-1", 1, id="below"),
            pytest.param("0", 0, id="lowest"),
            pytest.param(str(2**64 - 1), 0, id="highest"),
            pytest.param(str(2**64), 1, id="above"),
        ],
    )
    def test_seed_env_override_must_fit_in_64_bits(self, wifi_loss_path, tmp_path, capsys, monkeypatch, value, code):
        monkeypatch.setenv(SEED_ENV_VAR, value)
        transcript = tmp_path / "frames.jsonl"
        argv = ["simulate", "--scenario", str(wifi_loss_path), "--transcript", str(transcript), "--format", "json"]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 0:
            assert json.loads(captured.out)["seed"] == int(value)
        else:
            # Refused before the transcript file is made.
            assert captured.err == f"error: RESILIENT_ALLOC_SEED: must fit in 64 bits, got {value}\n"
            assert not transcript.exists()

    @pytest.mark.parametrize("seed", [None, "7"], ids=["scenario_seed", "env_seed"])
    def test_scenario_is_validated_once(self, wifi_loss_path, monkeypatch, seed):
        if seed is None:
            monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(SEED_ENV_VAR, seed)
        calls = []
        validate = Scenario.validate
        monkeypatch.setattr(Scenario, "validate", lambda scenario: calls.append(scenario) or validate(scenario))
        assert main(["simulate", "--scenario", str(wifi_loss_path), "--format", "json"]) == 0
        assert len(calls) == 1

    def test_missing_scenario_is_validation_error(self, capsys):
        assert main(["simulate", "--scenario", "/nonexistent.json"]) == 1


class TestProfiles:
    def test_lists_all_builtins(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        for kind in (
            "wifi_table2",
            "lora_sf9_table2",
            "sigfox_table2",
            "wifi_fipy",
            "nbiot_fipy",
            "lora_sf7_fipy",
            "sigfox_fipy",
        ):
            assert kind in out
        assert "750000" in out
        assert "10.5" in out


class TestFramePipes:
    def _run_with_stdin(self, argv, data: bytes, monkeypatch, capsysbinary):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code = main(argv)
        return code, capsysbinary.readouterr().out

    def test_encode_then_decode(self, monkeypatch, capsysbinary):
        code, encoded = self._run_with_stdin(["frame-encode"], b"hello\nworld\n", monkeypatch, capsysbinary)
        assert code == 0
        assert encoded == b":ML:5:hello\n:ML:5:world\n"
        code, decoded = self._run_with_stdin(["frame-decode"], encoded, monkeypatch, capsysbinary)
        assert code == 0
        assert decoded == b"hello\nworld\n"

    @pytest.mark.parametrize(
        "tail,err",
        [
            pytest.param(b":ML:5:WOR", b"malformed frame: 9 bytes left at the end of the input\n", id="truncated_last_frame"),
            pytest.param(b"garbage", b"malformed frame: 7 bytes left at the end of the input\n", id="trailing_garbage"),
            pytest.param(b"", b"", id="nothing_left"),
        ],
    )
    def test_decode_reports_bytes_left_at_the_end(self, monkeypatch, capsysbinary, tail, err):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b":ML:5:HELLO\n" + tail)))
        assert main(["frame-decode"]) == 0
        assert capsysbinary.readouterr() == (b"HELLO\n", err)


class TestArgumentHandling:
    @pytest.mark.parametrize(
        "flows,networks,code,message",
        [
            pytest.param(
                '{"l_max": 1, "flows": [{"id": "1", "qos": {"1": {"c": 1, "t": 1}}}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].name: missing\n",
                id="flow_without_name",
            ),
            pytest.param(
                None,
                '[{"id": "n", "capacity_bps": 100, "max_payload_bytes": "0"}]',
                1,
                "error: networks[0]: payload cap must be >= 1, got 0\n",
                id="payload_cap_zero_as_string",
            ),
            pytest.param(
                None,
                '[{"id": "n", "capacity_bps": 100, "max_payload_bytes": "12", "max_messages_per_day": "140"}]',
                0,
                "",
                id="payload_cap_as_string",
            ),
            pytest.param(
                '{"flows": []}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: l_max: missing\n",
                id="flow_set_without_l_max",
            ),
            pytest.param(
                "[]",
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flow set: must be an object, got list\n",
                id="flow_set_as_list",
            ),
            pytest.param(
                '{"l_max": 1, "flows": [{"id": "1", "name": "a", "qos": {"1": {"c": 1, "t": [1]}}}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].qos.1.t: expected a number, got [1]\n",
                id="flow_interval_as_list",
            ),
            pytest.param(
                None,
                '[{"id": "n", "capacity_bps": 100, "latency": {"fixed_ms": 5, "uniform_ms": [1, 2]}}]',
                1,
                "error: networks[0].latency: must specify fixed_ms or uniform_ms, not both\n",
                id="latency_with_both_keys",
            ),
            pytest.param(
                None,
                '[{"id": "n", "capacity_bps": 100, "max_payload_bytes": [1]}]',
                1,
                "error: networks[0].max_payload_bytes: expected a number, got [1]\n",
                id="payload_cap_as_list",
            ),
            pytest.param(
                '{"l_max": 1, "flows": [{"id": "1", "name": "a", "qos": {"1": {"c": 1e400, "t": 1}}}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].qos.1.c: expected a finite number, got inf\n",
                id="size_infinite",
            ),
            pytest.param(
                '{"l_max": 1, "flows": [{"id": "1", "name": "a", "qos": {"1": {"c": 1.9, "t": 1}}}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].qos.1.c: expected a whole number, got 1.9\n",
                id="size_fractional",
            ),
            pytest.param(
                '{"l_max": 1, "flows": [{"id": "1", "name": "a", "qos": {"1": {"c": true, "t": 1}}}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].qos.1.c: expected a number, got True\n",
                id="size_as_bool",
            ),
            pytest.param(
                None,
                '[{"id": "n", "capacity_bps": 1e400}]',
                1,
                "error: networks[0].capacity_bps: expected a finite number, got inf\n",
                id="capacity_infinite",
            ),
            # An integer beyond 20 digits shows as its 6-digit float form, so the line stays short.
            pytest.param(
                None,
                '[{"id": "n", "capacity_bps": "-1e400"}]',
                1,
                "error: networks[0]: capacity must be > 0, got -1e+400\n",
                id="capacity_negative_beyond_float_range",
            ),
            pytest.param(
                None,
                '[{"id": "n", "capacity_bps": 100, "max_payload_bytes": "-1e400"}]',
                1,
                "error: networks[0]: payload cap must be >= 1, got -1e+400\n",
                id="payload_cap_negative_beyond_float_range",
            ),
            pytest.param(
                '{"l_max": 1, "flows": [{"id": "1", "name": "a", "qos": {"1": {"c": "-1e400", "t": 1}}}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].qos.1: message size must be >= 1, got -1e+400\n",
                id="size_negative_beyond_float_range",
            ),
            pytest.param(
                '{"l_max": "-1e400", "flows": []}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: l_max: [bad-l-max] must be >= 1, got -1e+400\n",
                id="l_max_negative_beyond_float_range",
            ),
            pytest.param(
                None,
                '[{"id": "n", "capacity_bps": 99.99}]',
                1,
                "error: networks[0].capacity_bps: expected a whole number, got 99.99\n",
                id="capacity_fractional",
            ),
            pytest.param(
                '{"l_max": 1, "flows": [1]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0]: must be an object, got int\n",
                id="flow_as_int",
            ),
            pytest.param(
                '{"l_max": 1, "flows": 5}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows: must be a list, got int\n",
                id="flows_as_int",
            ),
            pytest.param(
                '{"l_max": 1, "flows": [{"id": "1", "name": "a", "qos": []}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].qos: must be an object, got list\n",
                id="qos_as_list",
            ),
            pytest.param(
                '{"l_max": 1, "flows": [{"id": "1", "name": "a", "qos": {"1": {"c": 1, "t": "1/0"}}}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].qos.1.t: expected a finite number, got '1/0'\n",
                id="interval_with_zero_denominator",
            ),
            pytest.param(
                '{"l_max": 1, "flows": [{"id": "1", "name": "a", "qos": {"1": {"c": 1, "t": "1e10000000"}}}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].qos.1.t: expected an exponent of at most 400 in magnitude, got '1e10000000'\n",
                id="interval_with_huge_exponent",
            ),
            pytest.param(None, '{"networks": 5}', 1, "error: networks: must be a list, got int\n", id="networks_key_as_int"),
            pytest.param(
                None, '{"nets": []}', 1, "error: networks: missing\n", id="networks_key_missing"
            ),
            pytest.param(None, "[1]", 1, "error: networks[0]: must be an object, got int\n", id="network_as_int"),
            pytest.param(None, "5", 1, "error: networks: must be a list, got int\n", id="networks_as_int"),
            pytest.param(
                None,
                '[{"builtin": ["x"]}]',
                1,
                "error: networks[0].builtin: expected a string, got ['x']\n",
                id="builtin_as_list",
            ),
            *(
                pytest.param(
                    _one_flow({"1": {"c": 1, "t": t}}),
                    WIFI,
                    1,
                    f"error: flows[0].qos.1.t: expected a number, got {t!r:.40}\n",
                    id=f"interval_{name}",
                )
                for name, t in [
                    ("with_5000_digit_exponent", LONG_EXPONENT),
                    ("with_5000_digits", LONG_DECIMAL),
                    ("as_word", "abc"),
                ]
            ),
            pytest.param(
                _one_flow({"abc": {"c": 1, "t": 1}}),
                WIFI,
                1,
                "error: flows[0].qos.abc: expected a number, got 'abc'\n",
                id="level_key_as_word",
            ),
            pytest.param(
                _one_flow({"1.5": {"c": 1, "t": 1}}),
                WIFI,
                1,
                "error: flows[0].qos.1.5: expected a whole number, got '1.5'\n",
                id="level_key_fractional",
            ),
            pytest.param(
                _one_flow({"\n": {"c": 1, "t": 1}}),
                WIFI,
                1,
                "error: flows[0].qos.'\\n': expected a number, got '\\n'\n",
                id="level_key_with_newline_stays_on_one_line",
            ),
            *(
                pytest.param(_one_flow(**{key: value}), WIFI, 1, f"error: flows[0].{key}: {message}\n", id=case)
                for case, key, value, message in [
                    ("id_as_object", "id", {"x": 1}, "expected a string, got {'x': 1}"),
                    ("name_as_list", "name", [1], "expected a string, got [1]"),
                    ("app_as_bool", "app", True, "expected a string, got True"),
                ]
            ),
            pytest.param(_one_flow(id=7), WIFI, 0, "", id="id_as_integer"),
            pytest.param(
                '{"l_max": 1e18, "flows": [{"id": "1", "name": "a", "qos": {"1": {"c": 1, "t": 1}}}]}',
                WIFI,
                0,
                "",
                id="l_max_huge_costs_nothing",
            ),
            pytest.param(
                None,
                _one_network(id=None),
                1,
                "error: networks[0].id: expected a string, got None\n",
                id="network_id_null",
            ),
            pytest.param(
                None,
                _one_network(name=[1]),
                1,
                "error: networks[0].name: expected a string, got [1]\n",
                id="network_name_as_list",
            ),
            pytest.param(
                None,
                _one_network(latency={"fixed_ms": -5000}),
                1,
                "error: networks[0].latency: delay must be >= 0 seconds, got -5\n",
                id="latency_negative",
            ),
            pytest.param(
                None,
                _one_network(latency={"uniform_ms": [20, 10]}),
                1,
                "error: networks[0].latency: delay needs 0 <= min <= max seconds, got [0.02, 0.01]\n",
                id="latency_bounds_inverted",
            ),
            pytest.param(
                None,
                _one_network(latency={"uniform_ms": [20]}),
                1,
                "error: networks[0].latency.uniform_ms: expected [low, high], got [20]\n",
                id="latency_one_bound",
            ),
            pytest.param(
                None,
                _one_network(latency={"fixed_ms": "-1e400"}),
                1,
                "error: networks[0].latency: delay must be >= 0 seconds, got -1e+397\n",
                id="latency_negative_beyond_float_range",
            ),
            pytest.param(
                None,
                _one_network(latency={"uniform_ms": ["-1e-399", "1"]}),
                1,
                "error: networks[0].latency: delay needs 0 <= min <= max seconds, got [-1e-402, 0.001]\n",
                id="latency_negative_below_float_range",
            ),
            *(
                pytest.param(
                    None,
                    _one_network(**{key: value}),
                    1,
                    f"error: networks[0]: {key} must be >= 0, got {shown}\n",
                    id=f"{key}_{case}",
                )
                for case, value, shown in [("negative", -1, "-1"), ("negative_beyond_float_range", "-1e400", "-1e+400")]
                for key in [
                    "max_messages_per_day",
                    "min_inter_message_gap_seconds",
                    "connect_time_seconds",
                ]
            ),
            pytest.param(
                None,
                '[{"builtin": "wifi_fipy"}, {"builtin": "wifi_table2"}]',
                1,
                "error: networks[1]: duplicate network id 'wifi'\n",
                id="duplicate_network_id",
            ),
            pytest.param(
                '{"l_max": 2, "flows": [{"id": "1", "name": "a", "qos": {"3": {"c": 1, "t": 1}}}]}',
                '[{"builtin": "wifi_fipy"}]',
                1,
                "error: flows[0].qos.3: [bad-level] flow '1': level 3 outside 1..2\n",
                id="level_above_l_max",
            ),
            pytest.param(
                _one_flow({"1": {"c": 10, "t": 10}, "01": {"c": 99999, "t": 1}}),
                WIFI,
                1,
                "error: flows[0].qos.01: level 1 appears more than once\n",
                id="level_written_twice",
            ),
            pytest.param(
                None,
                '[{"builtin": "wifi_table2", "id": "w2", "capacity_bps": 5}]',
                1,
                "error: networks[0].id: not allowed next to builtin\n",
                id="builtin_with_profile_fields",
            ),
        ],
    )
    def test_malformed_json_fields_exit_without_traceback(
        self, tmp_path, capsys, flows, networks, code, message
    ):
        flows_path = FLOWS
        if flows is not None:
            flows_path = str(tmp_path / "flows.json")
            (tmp_path / "flows.json").write_text(flows)
        (tmp_path / "nets.json").write_text(networks)
        argv = ["allocate", "--flows", flows_path, "--networks", str(tmp_path / "nets.json")]
        assert main(argv) == code
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "key,value,message",
        [
            pytest.param("seed", "1e400", "error: seed: expected a finite number, got inf\n", id="seed_infinite"),
            pytest.param(
                "initially_available",
                "[[1]]",
                "error: initially_available[0]: expected a string, got [1]\n",
                id="initially_available_nested_list",
            ),
            pytest.param(
                "initially_available",
                '"wifi"',
                "error: initially_available: must be a list, got str\n",
                id="initially_available_as_string",
            ),
            pytest.param(
                "algorithm", '["x"]', "error: algorithm: expected a string, got ['x']\n", id="algorithm_as_list"
            ),
            pytest.param(
                "events",
                '[{"kind": "down", "network": ["wifi"], "t": 3}]',
                "error: events[0].network: expected a string, got ['wifi']\n",
                id="event_network_as_list",
            ),
            pytest.param(
                "events",
                '[{"kind": "down", "network": "nope", "t": 3}]',
                "error: events[0].network: unknown network 'nope'\n",
                id="event_on_unknown_network",
            ),
            pytest.param(
                "flows",
                json.dumps([{"id": "1", "name": "a", "qos": {"1": {"c": 2**20, "t": 1}}}]),
                "error: flows[0].qos.1.c: flow '1': a level 1 message needs a 1048580-byte frame body,"
                " over the 1048576-byte limit\n",
                id="message_larger_than_a_frame",
            ),
            pytest.param(
                "handshake",
                '{"fixed_seconds": -1}',
                "error: handshake: delay must be >= 0 seconds, got -1\n",
                id="handshake_negative",
            ),
            pytest.param(
                "networks",
                _wifi_latency({"fixed_ms": -5000}),
                "error: networks[0].latency: delay must be >= 0 seconds, got -5\n",
                id="scenario_latency_negative",
            ),
            pytest.param(
                "handshake",
                '{"fixed_seconds": "1e400"}',
                "error: duration_seconds: the duration plus the longest handshake or latency"
                " is beyond the float range\n",
                id="handshake_beyond_float_range",
            ),
            pytest.param(
                "flows",
                json.dumps([{"id": "1", "name": "a", "qos": {"1": {"c": 1, "t": "1" + "0" * 320 + ".5"}}}]),
                "error: flows[0].qos.1.t: flow '1': level 1 period is fractional and beyond the float range\n",
                id="fractional_period_beyond_float_range",
            ),
            pytest.param(
                "flows",
                json.dumps([{"id": "1", "name": "a", "qos": {"1": {"c": 1, "t": "1e-400"}}}]),
                "error: flows[0].qos.1.t: flow '1': level 1 period is fractional and rounds to 0.0 as a float\n",
                id="fractional_period_below_float_range",
            ),
            pytest.param(
                "flows",
                json.dumps([{"id": "1", "name": "a", "qos": {"1": {"c": 1, "t": "-1e-399"}}}]),
                "error: flows[0].qos.1: interval must be > 0, got -1e-399\n",
                id="period_negative_below_float_range",
            ),
            pytest.param("duration_seconds", "0", "error: duration_seconds: must be > 0, got 0\n", id="zero_duration"),
            pytest.param(
                "duration_seconds",
                '"-1e-399"',
                "error: duration_seconds: must be > 0, got -1e-399\n",
                id="duration_negative_below_float_range",
            ),
            *(
                pytest.param(
                    "events",
                    json.dumps([{"kind": "down", "network": "wifi", "t": t}]),
                    f"error: events[0].t: time {shown} outside [0, duration]\n",
                    id=f"event_time_{case}",
                )
                for case, t, shown in [("beyond_float_range", "1e399", "1e+399"), ("negative", "-1e-399", "-1e-399")]
            ),
            pytest.param(
                "handshake",
                '{"fixed_seconds": "-1e400"}',
                "error: handshake: delay must be >= 0 seconds, got -1e+400\n",
                id="handshake_negative_beyond_float_range",
            ),
            pytest.param(
                "handshake",
                '{"uniform_seconds": ["1e400", "1"]}',
                "error: handshake: delay needs 0 <= min <= max seconds, got [1e+400, 1]\n",
                id="handshake_bounds_beyond_float_range",
            ),
            pytest.param(
                "duration_seconds",
                '"1e-399"',
                "error: duration_seconds: must be > 0 as a float, got a value that rounds to 0.0\n",
                id="duration_rounds_to_zero",
            ),
            pytest.param(
                "duration_seconds",
                '"1e400"',
                "error: duration_seconds: the duration plus the longest handshake or latency"
                " is beyond the float range\n",
                id="duration_beyond_float_range",
            ),
            pytest.param("algorithm", '"magic"', "error: algorithm: unknown algorithm 'magic'\n", id="unknown_algorithm"),
            pytest.param("factor", "0", "error: factor: must be >= 1, got 0\n", id="factor_below_one"),
            pytest.param(
                "factor", '"-1e400"', "error: factor: must be >= 1, got -1e+400\n", id="factor_beyond_float_range"
            ),
            pytest.param(
                "seed", '"-1e400"', "error: seed: must fit in 64 bits, got -1e+400\n", id="seed_beyond_float_range"
            ),
            pytest.param(
                "seed", str(2**64), f"error: seed: must fit in 64 bits, got {2**64}\n", id="seed_beyond_64_bits"
            ),
            pytest.param(
                "initially_available",
                '["wifi", "x"]',
                "error: initially_available[1]: unknown network 'x'\n",
                id="initially_available_unknown_network",
            ),
            pytest.param(
                "flows",
                json.dumps([{"id": str(i), "name": "a", "qos": {"1": {"c": 1, "t": 1}}} for i in (1, 2)]),
                "error: flows[1].name: duplicate flow name 'a' (the wire protocol addresses flows by name)\n",
                id="duplicate_flow_name",
            ),
            pytest.param(
                "networks",
                '[{"builtin": "wifi_fipy"}, {"builtin": "nbiot_fipy"}, {"builtin": "wifi_table2"}]',
                "error: networks[2].id: duplicate network id 'wifi'\n",
                id="duplicate_network_id",
            ),
            pytest.param(
                "flows",
                json.dumps([{"id": "1", "name": "a'b\"c", "qos": {"1": {"c": 1, "t": 1}}}]),
                "error: flows[0].name: string 'a\\'b\"c' mixes both quote characters\n",
                id="flow_name_with_both_quotes",
            ),
            pytest.param(
                "networks",
                '[{"id": "wifi", "name": "a\'b\\"c", "capacity_bps": 10}]',
                "error: networks[0].name: string 'a\\'b\"c' mixes both quote characters\n",
                id="network_name_with_both_quotes",
            ),
            pytest.param(
                "flows",
                json.dumps(_long_named_flows(995)),
                "error: flows: announcing all 995 flows can need a 1048735-byte frame body,"
                " over the 1048576-byte limit\n",
                id="announcement_larger_than_a_frame",
            ),
            pytest.param(
                "duration_seconds",
                '"1e300"',
                "error: duration_seconds: the run would emit more than 100000000 messages\n",
                id="huge_duration",
            ),
            pytest.param(
                "networks",
                _wifi_latency({"fixed_ms": 5, "uniform_ms": [1, 2]}),
                "error: networks[0].latency: must specify fixed_ms or uniform_ms, not both\n",
                id="scenario_latency_with_both_keys",
            ),
            pytest.param(
                "handshake",
                '{"fixed_seconds": 0, "uniform_seconds": [1.3, 1.5]}',
                "error: handshake: must specify fixed_seconds or uniform_seconds, not both\n",
                id="handshake_with_both_keys",
            ),
            pytest.param(
                "networks",
                _wifi_latency({"uniform_ms": [20, 10]}),
                "error: networks[0].latency: delay needs 0 <= min <= max seconds, got [0.02, 0.01]\n",
                id="scenario_latency_bounds_inverted",
            ),
        ],
    )
    def test_malformed_scenario_exits_without_traceback(self, wifi_loss_path, tmp_path, capsys, key, value, message):
        doc = json.loads(wifi_loss_path.read_text())
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**doc, key: "@"}).replace('"@"', value))
        assert main(["simulate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == message

    def test_announcement_one_flow_under_the_frame_limit_is_valid(self, wifi_loss_path):
        doc = json.loads(wifi_loss_path.read_text())
        scenario_from_dict({**doc, "flows": _long_named_flows(994)}).validate()

    @pytest.mark.parametrize("option", ["--flows", "--networks", "--scenario"])
    def test_deeply_nested_json_exits_without_traceback(self, tmp_path, capsys, option):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        if option == "--scenario":
            argv = ["simulate", "--scenario", str(path)]
        else:
            argv = ["allocate", "--flows", FLOWS, "--networks", TABLE2, option, str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize("option", ["--flows", "--networks", "--scenario"])
    @pytest.mark.parametrize(
        "data,reason",
        [
            pytest.param(b"\n", "Expecting value: line 2 column 1 (char 1)", id="not_json"),
            pytest.param(
                b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", id="not_utf8"
            ),
            pytest.param(b"1" * 5000, "Exceeds the limit (4300 digits) for integer string conversion", id="long_int"),
        ],
    )
    def test_unreadable_json_error_names_its_file(self, tmp_path, capsys, option, data, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        if option == "--scenario":
            argv = ["simulate", "--scenario", str(path)]
        else:
            argv = ["allocate", "--flows", FLOWS, "--networks", TABLE2, option, str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1 and err.endswith("\n")

    def test_factor_option_beyond_20_digits_is_one_short_line(self, capsys):
        assert main(["compare", "--flows", FLOWS, "--networks", TABLE2, "--factor", "-1" + "0" * 400]) == 1
        assert capsys.readouterr().err == "error: factor must be >= 1, got -1e+400\n"

    def test_unknown_flag_is_exit_one(self, capsys):
        assert main(["compare", "--flows", FLOWS, "--networks", TABLE2, "--bogus"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --bogus\n"

    @pytest.mark.parametrize("command", ["compare", "allocate", "solve"])
    @pytest.mark.parametrize("spec", [",", "", " "], ids=["comma", "empty", "blank"])
    def test_empty_network_spec_is_exit_one(self, capsys, command, spec):
        # The empty spec names the working directory as a path; it is no file.
        assert main([command, "--flows", FLOWS, "--networks", spec]) == 1
        assert capsys.readouterr().err == f"error: no networks in spec {spec!r}\n"

    def test_unknown_algorithm_is_exit_one(self, capsys):
        assert main(["allocate", "--flows", FLOWS, "--networks", TABLE2, "--algo", "magic"]) == 1

    def test_unknown_builtin_network_is_exit_one(self, capsys):
        assert main(["allocate", "--flows", FLOWS, "--networks", "zigbee"]) == 1

    def test_networks_from_json_file(self, tmp_path, capsys):
        path = tmp_path / "nets.json"
        path.write_text('[{"builtin": "wifi_fipy"}, {"builtin": "sigfox_fipy"}]')
        assert (
            main(
                [
                    "allocate",
                    "--flows",
                    FLOWS,
                    "--networks",
                    str(path),
                    "--factor",
                    "1",
                    "--algo",
                    "cabf-inv",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["percent_served"] == 100.0
