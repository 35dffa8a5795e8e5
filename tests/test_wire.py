from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_alloc import FlowSpec, QosRequirement, wire
from resilient_alloc.wire import (
    Ack,
    AppMessage,
    Err,
    ErrorReason,
    Frame,
    FrameDecoder,
    MalformedFrame,
    MfeaEntry,
    ParseError,
    ReallocAccepted,
    ReallocInit,
    decode_all,
    decode_app,
    decode_mfea,
    encode_app,
    encode_control,
    encode_frame,
    encode_mfea,
    mfea_entry,
    parse_control,
)

PAPER_SAMPLE = "MFEA:[{'PS': 41, 'N': 'Wi-Fi', 'PE': 10, 'MF': 'Kitchen Sensor', 'CL': 1}]"

_name_alphabet = st.characters(
    codec="utf-8", exclude_characters=",:<>\n", exclude_categories=("Cs", "Cc")
)
flow_names = st.text(alphabet=_name_alphabet, min_size=1, max_size=30).filter(
    lambda s: "'" not in s or '"' not in s
)


def reference_unescape(data: bytes) -> bytes:
    """The codec's byte-at-a-time unescape loop, kept as the oracle for ``wire.unescape_body``."""
    out = bytearray()
    i = 0
    length = len(data)
    while i < length:
        byte = data[i]
        if byte == 0x5C:  # backslash
            if i + 1 >= length:
                raise ValueError("dangling escape")
            nxt = data[i + 1]
            if nxt == 0x6E:  # n
                out.append(0x0A)
            elif nxt == 0x5C:
                out.append(0x5C)
            else:
                raise ValueError(f"bad escape \\{chr(nxt)!r}")
            i += 2
        else:
            out.append(byte)
            i += 1
    return bytes(out)


# Arbitrary bytes, and bytes made mostly of the ones escaping treats specially.
_escape_pieces = st.one_of(st.sampled_from([b"\\", b"n", b"\n", b"\\\\", b"\\n"]), st.binary(max_size=2))
escape_heavy_bytes = st.one_of(st.binary(max_size=64), st.lists(_escape_pieces, max_size=24).map(b"".join))


# One piece of a fed chunk: a good frame (often empty, or holding the escapes
# of newline and backslash), a frame with a bad or dangling escape, a bad
# length field or terminator, or a few bytes of garbage.
_feed_pieces = st.one_of(
    st.lists(st.sampled_from([b"", b"\n", b"\\", b"x", b":ML:"]), max_size=5).map(b"".join).map(encode_frame),
    st.binary(max_size=20).map(encode_frame),
    st.sampled_from(
        [
            b":ML:2:\\x\n",
            b":ML:1:\\\n",
            b":ML:3:a\\\n",
            b":ML::",
            b":ML::\n",
            b":ML:12345678:x\n",
            b":ML:00000001:x\n",
            b":ML:0000001:x\n",
            b":ML:%d:x\n" % (wire.MAX_BODY + 1),
            b":ML:2:ABX",
            b":ML:2:AB",
            b":ML:0:\r",
            b":ML:x:AB\n",
            b":ML",
            b":ML:5:HE",
        ]
    ),
    st.binary(max_size=6),
)


def _outcome(unescape, data: bytes) -> tuple[str, bytes | str]:
    try:
        return "ok", unescape(data)
    except ValueError as exc:
        return "error", str(exc)


class TestFrames:
    def test_plain_body(self):
        assert encode_frame(b"HELLO") == b":ML:5:HELLO\n"

    def test_empty_body(self):
        assert encode_frame(b"") == b":ML:0:\n"

    def test_newline_is_escaped_and_counted(self):
        encoded = encode_frame(b"a\nb")
        assert encoded == b":ML:4:a\\nb\n"
        events, rest = decode_all(encoded)
        assert events == [Frame(b"a\nb")]
        assert rest == b""

    def test_backslash_is_escaped(self):
        # without this, a body of backslash-n would collide with an escaped newline
        encoded = encode_frame(b"\\n")
        events, rest = decode_all(encoded)
        assert events == [Frame(b"\\n")]

    def test_two_frames_in_one_chunk(self):
        events, rest = decode_all(b":ML:5:HELLO\n:ML:2:HI\n")
        assert events == [Frame(b"HELLO"), Frame(b"HI")]
        assert rest == b""

    def test_split_mid_header(self):
        decoder = FrameDecoder()
        assert decoder.feed(b":ML:5:HE") == []
        assert decoder.feed(b"LLO\n:ML:2:HI\n") == [Frame(b"HELLO"), Frame(b"HI")]
        assert decoder.pending == b""

    def test_garbage_then_resync(self):
        events, rest = decode_all(b"garbage:ML:2:HI\n")
        assert events == [MalformedFrame("bad-header", b"garbage"), Frame(b"HI")]
        assert rest == b""

    def test_bad_terminator_then_recovery(self):
        events, _ = decode_all(b":ML:2:ABX:ML:2:HI\n")
        kinds = [type(e) for e in events]
        assert kinds == [MalformedFrame, MalformedFrame, Frame]
        assert events[0].reason == "bad-terminator"
        assert events[-1] == Frame(b"HI")

    def test_bad_length_field(self):
        events, _ = decode_all(b":ML:x:AB\n:ML:2:HI\n")
        assert events[0] == MalformedFrame("bad-length")
        assert events[-1] == Frame(b"HI")

    def test_bad_escape_skips_whole_frame(self):
        events, rest = decode_all(b":ML:2:\\x\n:ML:2:HI\n")
        assert events == [MalformedFrame("bad-escape", b"\\x"), Frame(b"HI")]
        assert rest == b""

    @pytest.mark.parametrize(
        "data,message",
        [(b"a\\", r"^dangling escape$"), (b"a\\x", r"^bad escape \\'x'$")],
        ids=["dangling", "unknown"],
    )
    def test_unescape_error_names_the_escape(self, data, message):
        with pytest.raises(ValueError, match=message):
            wire.unescape_body(data)

    @settings(max_examples=500)
    @given(escape_heavy_bytes)
    def test_unescape_matches_the_reference_loop(self, data):
        assert _outcome(wire.unescape_body, data) == _outcome(reference_unescape, data)

    def test_trailing_partial_is_retained(self):
        decoder = FrameDecoder()
        assert decoder.feed(b":ML:10:abc") == []
        assert decoder.pending == b":ML:10:abc"

    def test_length_counts_escaped_bytes(self):
        body = b"\n\n"
        encoded = encode_frame(body)
        length = int(encoded.split(b":")[2])
        assert length == 4  # two escaped newlines

    @given(body=st.binary(max_size=300))
    def test_roundtrip_identity(self, body):
        events, rest = decode_all(encode_frame(body))
        assert events == [Frame(body)]
        assert rest == b""

    @given(body=st.binary(max_size=300))
    def test_length_field_equals_escaped_body_size(self, body):
        encoded = encode_frame(body)
        length = int(encoded.split(b":", 3)[2])
        # header ":ML:<len>:" ... "\n"
        payload = encoded.split(b":", 3)[3][:-1]
        assert length == len(payload)

    def test_huge_length_field_does_not_stall_the_stream(self):
        # A length above MAX_BODY is malformed at once, so the frames after it
        # decode instead of waiting for 10**10 bytes.
        decoder = FrameDecoder()
        events = decoder.feed(b":ML:9999999999:" + encode_frame(b"HI") * 1000)
        assert events == [MalformedFrame("bad-length"), MalformedFrame("bad-header", b"ML:9999999999:")] + [
            Frame(b"HI")
        ] * 1000
        assert decoder.pending == b""

    def test_body_size_is_bounded_by_max_body(self):
        body = b"x" * wire.MAX_BODY
        assert decode_all(encode_frame(body)) == ([Frame(body)], b"")
        with pytest.raises(ValueError, match="MAX_BODY"):
            encode_frame(b"\n" * (wire.MAX_BODY // 2 + 1))  # escapes to MAX_BODY + 2 bytes
        events, rest = decode_all(b":ML:%d:x\n:ML:2:HI\n" % (wire.MAX_BODY + 1))
        assert (events[0], events[-1], rest) == (MalformedFrame("bad-length"), Frame(b"HI"), b"")

    def test_malformed_stream_events_are_pinned(self):
        stream = (
            b"noise:M:ML:x:AB\n:ML:2:ABX:ML:2:\\x\n:ML:12345678901:Z\n"
            b":ML:5:HELLO\n:ML:4:a\\nb\n:ML:"
        )
        expected = [
            MalformedFrame("bad-header", b"noise:M"),
            MalformedFrame("bad-length"),
            MalformedFrame("bad-header", b"ML:x:AB\n"),
            MalformedFrame("bad-terminator"),
            MalformedFrame("bad-header", b"ML:2:ABX"),
            MalformedFrame("bad-escape", b"\\x"),
            MalformedFrame("bad-length"),
            MalformedFrame("bad-header", b"ML:12345678901:Z\n"),
            Frame(b"HELLO"),
            Frame(b"a\nb"),
        ]
        assert decode_all(stream) == (expected, b":ML:")
        decoder = FrameDecoder()
        events = []
        for i in range(len(stream)):
            events.extend(decoder.feed(stream[i : i + 1]))
        assert events == expected
        assert decoder.pending == b":ML:"

    @given(
        pieces=st.lists(
            st.one_of(
                st.binary(max_size=60).map(encode_frame),
                st.binary(max_size=8),
                st.sampled_from(
                    [b":", b":M", b":ML", b":ML:", b":ML:x:AB\n", b":ML:2:ABX",
                     b":ML:2:\\x\n", b":ML:12345678901:Z\n", b"\\"]
                ),
            ),
            max_size=8,
        ),
        data=st.data(),
    )
    def test_chunking_invariance(self, pieces, data):
        stream = b"".join(pieces)
        whole, whole_rest = decode_all(stream)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(stream)), max_size=6), label="cuts"
            )
        )
        decoder = FrameDecoder()
        events = []
        previous = 0
        for cut in cuts + [len(stream)]:
            events.extend(decoder.feed(stream[previous:cut]))
            previous = cut
        assert events == whole
        assert decoder.pending == whole_rest

    @settings(max_examples=400)
    @given(pieces=st.lists(_feed_pieces, min_size=1, max_size=3), kind=st.sampled_from([bytes, bytearray, memoryview]))
    def test_whole_feed_matches_byte_at_a_time(self, pieces, kind):
        # The simulator feeds each frame whole to an empty decoder; that must
        # give what the same bytes give one at a time, whatever they hold.
        # So must a whole frame fed after bytes the decoder still holds.
        stream = b"".join(pieces)
        outcomes = []
        for chunks in ([stream], pieces, [stream[i : i + 1] for i in range(len(stream))]):
            decoder = FrameDecoder()
            events = [event for chunk in chunks for event in decoder.feed(kind(chunk))]
            outcomes.append((events, decoder.pending))
        assert outcomes[0] == outcomes[2] and outcomes[1] == outcomes[2]

    def test_whole_frame_above_max_body_is_a_bad_length(self):
        data = b":ML:%d:" % (wire.MAX_BODY + 1) + b"x" * (wire.MAX_BODY + 1) + b"\n"
        decoder = FrameDecoder()
        split = decoder.feed(data[:1]) + decoder.feed(data[1:])
        assert decode_all(data) == (split, decoder.pending)
        assert split[0] == MalformedFrame("bad-length")

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_whole_frame_events_hold_bytes(self, kind):
        good, bad = FrameDecoder().feed(kind(b":ML:4:a\\nb\n")), FrameDecoder().feed(kind(b":ML:2:\\x\n"))
        assert (good, bad) == ([Frame(b"a\nb")], [MalformedFrame("bad-escape", b"\\x")])
        assert type(good[0].body) is bytes and type(bad[0].skipped) is bytes


class TestAppMessages:
    def test_roundtrip(self):
        message = AppMessage("fall detection", 2, b"payload,with,commas")
        assert decode_app(encode_app(message)) == message

    def test_wire_shape(self):
        assert encode_app(AppMessage("f", 1, b"xyz")) == b"f,1,xyz"

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            decode_app(b"only-name")

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"f,abc,payload", r"^criticality level is not a number \(at byte 2\)$"),
            (b"f,0,x", r"^level must be >= 1, got 0 \(at byte 0\)$"),
            (b"\xff,1,x", r"^flow name is not valid UTF-8 \(at byte 0\)$"),
            (b"f," + b"9" * 5000 + b",x", r"^criticality level has too many digits \(at byte 2\)$"),
        ],
        ids=["level_not_a_number", "level_zero", "name_not_utf8", "level_beyond_int_digits"],
    )
    def test_bad_name_or_level(self, data, message):
        with pytest.raises(ParseError, match=message):
            decode_app(data)

    def test_long_negative_level_gives_a_short_message(self):
        with pytest.raises(ValueError, match=r"^level must be >= 1, got -1e\+4000$"):
            AppMessage("f", -int("9" * 4000), b"")

    @given(
        name=flow_names,
        level=st.integers(1, 9),
        payload=st.binary(max_size=120),
    )
    def test_roundtrip_random(self, name, level, payload):
        message = AppMessage(name, level, payload)
        assert decode_app(encode_app(message)) == message


class TestMfea:
    def test_sample_string_byte_exact(self):
        entries = [
            MfeaEntry(
                payload_size=41,
                network="Wi-Fi",
                period_seconds=10,
                flow_name="Kitchen Sensor",
                level=1,
            )
        ]
        assert encode_mfea(entries) == PAPER_SAMPLE

    def test_sample_string_decodes(self):
        entries = decode_mfea(PAPER_SAMPLE)
        assert entries == [
            MfeaEntry(41, "Wi-Fi", 10, "Kitchen Sensor", 1),
        ]

    def test_empty_list(self):
        assert encode_mfea([]) == "MFEA:[]"
        assert decode_mfea("MFEA:[]") == []

    def test_two_entries_joined_with_comma_space(self):
        entries = [
            MfeaEntry(1, "A", 1, "x", 1),
            MfeaEntry(2, "B", 2, "y", 2),
        ]
        text = encode_mfea(entries)
        assert "}, {" in text
        assert decode_mfea(text) == entries

    def test_double_quotes_accepted(self):
        text = 'MFEA:[{"PS": 41, "N": "Wi-Fi", "PE": 10, "MF": "Kitchen Sensor", "CL": 1}]'
        assert decode_mfea(text) == [MfeaEntry(41, "Wi-Fi", 10, "Kitchen Sensor", 1)]

    def test_name_containing_single_quote_uses_double_quotes(self):
        entries = [MfeaEntry(1, "A", 1, "O'Hara room", 1)]
        text = encode_mfea(entries)
        assert '"O\'Hara room"' in text
        assert decode_mfea(text) == entries

    def test_entry_for_a_flow_writes_whole_periods_as_ints(self):
        qos = {1: QosRequirement(41, Fraction(10)), 2: QosRequirement(41, Fraction(1, 2))}
        flow = FlowSpec(id="k", app="home", name="Kitchen Sensor", qos=qos)
        whole = mfea_entry(flow, "Wi-Fi", 1)
        assert encode_mfea([whole]) == PAPER_SAMPLE
        assert type(whole.period_seconds) is int
        half = "MFEA:[{'PS': 41, 'N': 'Wi-Fi', 'PE': 0.5, 'MF': 'Kitchen Sensor', 'CL': 2}]"
        assert encode_mfea([mfea_entry(flow, "Wi-Fi", 2)]) == half

    def test_fractional_period(self):
        entries = [MfeaEntry(1, "A", 0.5, "x", 1)]
        assert decode_mfea(encode_mfea(entries)) == entries

    def test_parse_error_carries_offset(self):
        with pytest.raises(ParseError) as excinfo:
            decode_mfea("MFEA:[{'PS': }]")
        assert excinfo.value.offset == 13

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("MFEA:[{ 1: 2}]", 8),
            ("MFEA:[{'Q':  1}]", 13),
            ("MFEA:[{'PS': 'x'}]", 13),
            ("MFEA:x", 5),
            ("MFEA:[{'PS' 1}]", 12),
            ("MFEA:[{'PS': " + "9" * 5000 + ", 'N': 'A', 'PE': 1, 'MF': 'x', 'CL': 1}]", 13),
            ("MFEA:[{'PS': 1, 'N': 'A', 'PE': " + "9" * 5000 + ", 'MF': 'x', 'CL': 1}]", 32),
            ("MFEA:[{'PS': 1, 'N': 'A', 'PE': 1, 'MF': 'x', 'CL': " + "9" * 5000 + "}]", 52),
        ],
        ids=[
            "numeric_key",
            "unknown_key",
            "string_for_number",
            "missing_bracket",
            "missing_colon",
            "size_beyond_int_digits",
            "period_beyond_int_digits",
            "level_beyond_int_digits",
        ],
    )
    def test_offset_points_at_the_bad_token(self, text, offset):
        with pytest.raises(ParseError) as excinfo:
            decode_mfea(text)
        assert excinfo.value.offset == offset

    @pytest.mark.parametrize("key", ["PS", "PE", "CL"])
    def test_number_beyond_int_digits_names_its_field(self, key):
        fields = {"PS": "1", "N": "'A'", "PE": "1", "MF": "'x'", "CL": "1", key: "9" * 5000}
        text = "MFEA:[{" + ", ".join(f"'{name}': {value}" for name, value in fields.items()) + "}]"
        with pytest.raises(ParseError, match=rf"^{key} has too many digits \(at byte \d+\)$"):
            decode_mfea(text)

    @pytest.mark.parametrize("key,number", [("PS", "1.5"), ("CL", "2.0")])
    def test_float_size_or_level_rejected(self, key, number):
        fields = {"PS": "1", "N": "'A'", "PE": "1", "MF": "'x'", "CL": "1", key: number}
        text = "MFEA:[{" + ", ".join(f"'{name}': {value}" for name, value in fields.items()) + "}]"
        with pytest.raises(ParseError, match=r"^PS and CL must be integers \(at byte \d+\)$"):
            decode_mfea(text)

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            decode_mfea("MFEA:[{'PS': 1, 'N': 'A', 'PE': 1, 'MF': 'x'}]")

    @pytest.mark.parametrize("period", ["1e400", "1" + "0" * 400 + ".5"], ids=["exponent", "long_decimal"])
    def test_period_beyond_float_range_rejected(self, period):
        with pytest.raises(ParseError):
            decode_mfea(f"MFEA:[{{'PS': 1, 'N': 'A', 'PE': {period}, 'MF': 'x', 'CL': 1}}]")

    @pytest.mark.parametrize("key", ["PS", "PE", "CL"])
    def test_long_negative_number_gives_a_short_message(self, key):
        fields = {"PS": "1", "N": "'A'", "PE": "1", "MF": "'x'", "CL": "1", key: "-" + "9" * 4000}
        text = "MFEA:[{" + ", ".join(f"'{name}': {value}" for name, value in fields.items()) + "}]"
        with pytest.raises(ParseError, match=r"got -1e\+4000 ") as excinfo:
            decode_mfea(text)
        assert len(str(excinfo.value).encode()) < 200

    def test_trailing_data_rejected(self):
        with pytest.raises(ParseError):
            decode_mfea("MFEA:[]x")

    @given(
        entries=st.lists(
            st.builds(
                MfeaEntry,
                payload_size=st.integers(0, 10**6),
                network=flow_names,
                period_seconds=st.one_of(
                    st.integers(1, 10**6),
                    st.floats(min_value=0, exclude_min=True, allow_nan=False, allow_infinity=False),
                ),
                flow_name=flow_names,
                level=st.integers(1, 9),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=200)
    def test_roundtrip_random(self, entries):
        assert decode_mfea(encode_mfea(entries)) == entries


class TestControl:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("<INFO:RE-ALLOC:INIT>", ReallocInit()),
            ("<INFO:RE-ALLOC:ACCEPTED>", ReallocAccepted()),
            ("<ACK:fall detection>", Ack("fall detection")),
            ("<ERR:fall detection:NOT-ALLOCATED>", Err("fall detection", ErrorReason.NOT_ALLOCATED)),
            ("<ERR:heart monitoring:NOT-DELIVERED>", Err("heart monitoring", ErrorReason.NOT_DELIVERED)),
        ],
    )
    def test_canonical_forms(self, text, message):
        assert parse_control(text) == message
        assert encode_control(message) == text

    def test_unknown_reason(self):
        with pytest.raises(ParseError, match=r"^'NOT-SENT' is not a valid ErrorReason \(at byte 1\)$"):
            parse_control("<ERR:f:NOT-SENT>")

    def test_unwrapped_text(self):
        with pytest.raises(ParseError):
            parse_control("ACK:f")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match=r"^unknown control message '<FOO:x>' \(at byte 1\)$"):
            parse_control("<FOO:x>")

    def test_encode_refuses_a_value_that_is_not_a_control_message(self):
        # Already-encoded text is not a message: encoding it again would lose it.
        with pytest.raises(TypeError, match=r"^not a control message: '<ACK:x>'$"):
            encode_control("<ACK:x>")

    @given(text=st.one_of(st.sampled_from([r.value for r in ErrorReason]), st.text().filter(lambda t: ":" not in t)))
    def test_reason_lookup_matches_the_enum(self, text):
        try:
            expected = Err("f", ErrorReason(text))
        except ValueError as exc:
            with pytest.raises(ParseError, match=rf"^{re.escape(str(exc))} \(at byte 1\)$"):
                parse_control(f"<ERR:f:{text}>")
        else:
            assert parse_control(f"<ERR:f:{text}>") == expected

    @given(name=flow_names, reason=st.sampled_from(list(ErrorReason)))
    def test_roundtrip_random(self, name, reason):
        for message in (Ack(name), Err(name, reason)):
            assert parse_control(encode_control(message)) == message


class TestBulkRandomised:
    def test_ten_thousand_frame_roundtrips_with_random_chunking(self):
        rng = random.Random(0xC0DEC)
        cases = 0
        while cases < 10_000:
            group = rng.randint(1, 4)
            bodies = [
                rng.randbytes(rng.randint(0, 80)) for _ in range(group)
            ]
            cases += group
            stream = b"".join(encode_frame(body) for body in bodies)
            decoder = FrameDecoder()
            events: list = []
            position = 0
            while position < len(stream):
                step = rng.randint(1, 17)
                events.extend(decoder.feed(stream[position : position + step]))
                position += step
            assert events == [Frame(body) for body in bodies]
            assert decoder.pending == b""
