"""Byte-exact codec for the host/node framed protocol.

Frame grammar (one frame per message, newline-terminated)::

    frame   = ":ML:" length ":" body "\\n"
    length  = decimal byte count of the escaped body, at most MAX_BODY

Bodies are escaped so that the terminating newline is unambiguous: raw
backslash becomes ``\\\\`` and raw newline becomes ``\\n``; the length field
counts escaped bytes. Escaping the backslash as well keeps the codec
injective, so decode(encode(body)) == body for arbitrary byte strings.

Payload kinds carried inside frames:

* application messages: ``<flow name>,<level>,<payload>`` (payload is raw
  bytes, commas allowed within it);
* allocation announcements: ``MFEA:[{'PS': .., 'N': .., 'PE': .., 'MF': ..,
  'CL': ..}, ..]`` with single-quoted strings in exactly that key order (the
  decoder also accepts double quotes, any key order and spaces around the
  delimiters). PS and CL are ints. PE is whole seconds as an int, or else
  the nearest float. A number is an int, or a float as ``repr`` writes it,
  exponent included: ``10``, ``-1``, ``0.5``, ``1e-05``, ``2.5e+16``.
  ``mfea_entry`` builds the one record that announces a flow at a level,
  and ``quote`` writes a name as a record quotes it;
* control messages: ``<INFO:RE-ALLOC:INIT>``, ``<INFO:RE-ALLOC:ACCEPTED>``,
  ``<ACK:flow>``, ``<ERR:flow:NOT-ALLOCATED>``, ``<ERR:flow:NOT-DELIVERED>``.

Flow names may not contain ``,``, ``:``, ``<``, ``>`` or newline; those are
protocol delimiters.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from .flows import FlowSpec, check_flow_name
from .rational import number_text

HEADER = b":ML:"
# The largest escaped body a frame may carry. The decoder reads at most this
# many length digits and reports a larger length as malformed, so one
# corrupted length field cannot hold back the frames after it.
MAX_BODY = 2**20
_LENGTH_DIGITS = re.compile(rb"\d{0,%d}" % len(str(MAX_BODY)))
_FRAME_HEAD = re.compile(re.escape(HEADER) + rb"(\d{1,%d}):" % len(str(MAX_BODY)))


class ParseError(ValueError):
    """Payload text does not match the protocol grammar."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Frame:
    """One complete, unescaped frame body."""

    body: bytes


@dataclass(frozen=True)
class MalformedFrame:
    """Stream event reporting undecodable bytes; decoding resumes after it."""

    reason: str
    skipped: bytes = b""


def escape_body(body: bytes) -> bytes:
    return body.replace(b"\\", b"\\\\").replace(b"\n", b"\\n")


def unescape_body(data: bytes) -> bytes:
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


def encode_frame(body: bytes) -> bytes:
    escaped = escape_body(body)
    if len(escaped) > MAX_BODY:
        raise ValueError(f"escaped frame body of {len(escaped)} bytes exceeds MAX_BODY ({MAX_BODY})")
    return HEADER + str(len(escaped)).encode("ascii") + b":" + escaped + b"\n"


def _frame_event(raw: bytes) -> Frame | MalformedFrame:
    """The event for a complete frame whose escaped body is ``raw``."""
    try:
        return Frame(unescape_body(raw))
    except ValueError:
        return MalformedFrame("bad-escape", raw)


class FrameDecoder:
    """Incremental frame decoder, invariant under input chunking.

    ``feed`` returns, in stream order, every Frame completed by the new
    bytes plus a MalformedFrame event wherever resynchronisation skipped
    bytes. The emitted sequence depends only on the concatenated byte
    stream, never on how it was split into chunks: garbage is reported only
    once the next header proves the run has ended, and trailing partial
    input stays buffered.

    A chunk that is exactly one whole frame, fed to an empty buffer, is
    decoded in place without passing through the buffer; it gives the same
    events, and every frame is still decoded once.

    Invariant: no header starts in ``_buf[:_scan]``. Those bytes are
    garbage, reported together in one ``bad-header`` event when the next
    header is found; the header scan resumes at ``_scan``.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._scan = 0

    @property
    def pending(self) -> bytes:
        """Bytes received but not yet consumed by a frame or an event."""
        return bytes(self._buf)

    def feed(self, data: bytes) -> list[Frame | MalformedFrame]:
        if not self._buf:
            # One whole frame into an empty buffer: decode it in place.
            head = _FRAME_HEAD.match(data)
            if head is not None:
                length = int(head[1])
                body_start = head.end()
                body_end = body_start + length
                if len(data) == body_end + 1 and data[body_end] == 0x0A and length <= MAX_BODY:
                    return [_frame_event(bytes(data[body_start:body_end]))]
        buf = self._buf
        buf.extend(data)
        out: list[Frame | MalformedFrame] = []
        while True:
            # Seek the header; report the garbage before it.
            idx = buf.find(HEADER, self._scan)
            if idx == -1:
                # A header may still complete in the last len(HEADER) - 1 bytes.
                self._scan = max(len(buf) - len(HEADER) + 1, 0)
                return out
            if idx:
                out.append(MalformedFrame("bad-header", bytes(buf[:idx])))
                del buf[:idx]
            self._scan = 0
            # Read the length.
            digits_end = _LENGTH_DIGITS.match(buf, len(HEADER)).end()
            if digits_end == len(buf):
                return out  # length field still incomplete
            reason = "bad-length"
            length = int(buf[len(HEADER) : digits_end] or -1)
            if 0 <= length <= MAX_BODY and buf[digits_end] == 0x3A:  # ':'
                # Read the body and its terminator, then emit the frame.
                body_start = digits_end + 1
                body_end = body_start + length
                if len(buf) <= body_end:
                    return out  # body or terminator not here yet
                reason = "bad-terminator"
                if buf[body_end] == 0x0A:
                    raw = bytes(buf[body_start:body_end])
                    del buf[: body_end + 1]
                    out.append(_frame_event(raw))
                    continue
            # Resync: drop the leading ':' so the scan can find a header nested
            # in the bytes of the abandoned frame.
            out.append(MalformedFrame(reason))
            del buf[:1]


def decode_all(data: bytes) -> tuple[list[Frame | MalformedFrame], bytes]:
    """One-shot decode; returns the event list and the unconsumed remainder."""
    decoder = FrameDecoder()
    events = decoder.feed(data)
    return events, decoder.pending


# --- application messages ---------------------------------------------------


@dataclass(frozen=True)
class AppMessage:
    """One application message: flow name, criticality level, raw payload."""

    flow_name: str
    level: int
    payload: bytes

    def __post_init__(self) -> None:
        check_flow_name(self.flow_name)
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {number_text(self.level)}")


def encode_app(message: AppMessage) -> bytes:
    return message.flow_name.encode("utf-8") + b"," + str(message.level).encode("ascii") + b"," + message.payload


def decode_app(data: bytes) -> AppMessage:
    parts = data.split(b",", 2)
    if len(parts) != 3:
        raise ParseError("application message needs two commas", len(data))
    name_raw, level_raw, payload = parts
    try:
        name = name_raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("flow name is not valid UTF-8", exc.start) from None
    if not level_raw.isdigit():
        raise ParseError("criticality level is not a number", len(name_raw) + 1)
    try:
        level = int(level_raw)
    except ValueError:  # more digits than int() converts
        raise ParseError("criticality level has too many digits", len(name_raw) + 1) from None
    try:
        return AppMessage(name, level, payload)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None


# --- allocation announcements (MFEA) ----------------------------------------


@dataclass(frozen=True)
class MfeaEntry:
    """One per-flow allocation record inside an MFEA message.

    Wire keys: PS payload size (bytes), N network name, PE period (seconds),
    MF flow name, CL criticality level.
    """

    payload_size: int
    network: str
    period_seconds: int | float
    flow_name: str
    level: int

    def __post_init__(self) -> None:
        if self.payload_size < 0:
            raise ValueError(f"payload size must be >= 0, got {number_text(self.payload_size)}")
        if not 0 < self.period_seconds < math.inf:
            raise ValueError(f"period must be > 0 and finite, got {number_text(self.period_seconds)}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {number_text(self.level)}")
        check_flow_name(self.flow_name)


def quote(value: str) -> str:
    """``value`` as an MFEA record writes a string: single-quoted, or double-quoted if it holds ``'``."""
    if "'" not in value:
        return f"'{value}'"
    if '"' not in value:
        return f'"{value}"'
    raise ValueError(f"string {value!r} mixes both quote characters")


def encode_mfea(entries: list[MfeaEntry]) -> str:
    records = []
    for entry in entries:
        records.append(
            "{'PS': %r, 'N': %s, 'PE': %r, 'MF': %s, 'CL': %r}"
            % (
                entry.payload_size,
                quote(entry.network),
                entry.period_seconds,
                quote(entry.flow_name),
                entry.level,
            )
        )
    return "MFEA:[" + ", ".join(records) + "]"


def mfea_entry(flow: FlowSpec, network_name: str, level: int) -> MfeaEntry:
    """The MFEA record that announces ``flow`` at ``level`` on the network named ``network_name``."""
    qos = flow.qos[level]
    period = qos.min_interval_seconds  # whole seconds as an int, anything else as a float
    period_seconds = int(period) if period.denominator == 1 else float(period)
    return MfeaEntry(qos.message_size_bytes, network_name, period_seconds, flow.name, level)


# Spaces, then a field value: a quoted string, or a number as ``%r`` writes an
# int or a float. Group 1 is the value (None if absent); group 2 holds a
# number's fraction and exponent ("" for an int, None for a string).
_VALUE = re.compile(r""" *('[^']*'|"[^"]*"|-?\d+((?:\.\d+)?(?:[eE][-+]?\d+)?))?""")
_CHAR = re.compile(" *(.?)", re.DOTALL)
_TEXT_KEYS = ("N", "MF")
_KEYS = ("PS", "N", "PE", "MF", "CL")  # in MfeaEntry field order


def _expect(text: str, pos: int, chars: str) -> tuple[str, int]:
    """Skip spaces, then read one of ``chars``; return it and the offset after it."""
    match = _CHAR.match(text, pos)
    char = match[1]
    if not char or char not in chars:
        raise ParseError(f"expected one of {chars!r}", match.start(1))
    return char, match.end()


def _start(match: re.Match) -> int:
    """Offset of a `_VALUE` match after its spaces."""
    return match.end() - len(match[1] or "")


def _literal(name: str, match: re.Match) -> str | int | float:
    """The value of field ``name``; an int literal longer than int() converts is a ParseError."""
    if match[2] is None:
        return match[1][1:-1]
    if match[2]:
        return float(match[1])
    try:
        return int(match[1])
    except ValueError:
        raise ParseError(f"{name} has too many digits", _start(match)) from None


def decode_mfea(text: str) -> list[MfeaEntry]:
    if not text.startswith("MFEA:["):
        raise ParseError("expected 'MFEA:['", 5 if text.startswith("MFEA:") else 0)
    entries: list[MfeaEntry] = []
    char, pos = _expect(text, 6, "{]")
    while char == "{":
        entry, pos = _decode_record(text, pos)
        entries.append(entry)
        char, pos = _expect(text, pos, ",]")
        if char == ",":
            char, pos = _expect(text, pos, "{")
    if pos != len(text):
        raise ParseError("trailing data after the entry list", pos)
    return entries


def _decode_record(text: str, pos: int) -> tuple[MfeaEntry, int]:
    """Decode the fields after a record's ``{``; return the entry and the offset after its ``}``."""
    fields: dict[str, re.Match] = {}
    char = ","
    while char == ",":
        key = _VALUE.match(text, pos)
        if key[1] is None or key[2] is not None:
            raise ParseError("expected a quoted key", _start(key))
        _, pos = _expect(text, key.end(), ":")
        value = _VALUE.match(text, pos)
        name = key[1][1:-1]
        if name not in _KEYS:
            raise ParseError(f"unknown key {name!r}", _start(value))
        if value[1] is None or (value[2] is None) != (name in _TEXT_KEYS):
            message = "expected a quoted string" if name in _TEXT_KEYS else "expected a number"
            raise ParseError(message, _start(value))
        fields[name] = value
        char, pos = _expect(text, value.end(), ",}")
    missing = set(_KEYS).difference(fields)
    if missing:
        raise ParseError(f"record is missing keys {sorted(missing)}", pos)
    payload_size, network, period, flow_name, level = (_literal(key, fields[key]) for key in _KEYS)
    if not isinstance(payload_size, int) or not isinstance(level, int):
        raise ParseError("PS and CL must be integers", pos)
    try:
        return MfeaEntry(payload_size, network, period, flow_name, level), pos
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


# --- control messages --------------------------------------------------------


class ErrorReason(Enum):
    NOT_ALLOCATED = "NOT-ALLOCATED"
    NOT_DELIVERED = "NOT-DELIVERED"


#: Wire text -> reason, looked up directly rather than through ``Enum.__call__``.
_REASONS = {reason.value: reason for reason in ErrorReason}


@dataclass(frozen=True)
class ReallocInit:
    """Node announcement that re-allocation starts; the host must pause."""


@dataclass(frozen=True)
class ReallocAccepted:
    """Host acknowledgement that the new allocation table is in effect."""


@dataclass(frozen=True)
class Ack:
    flow_name: str

    def __post_init__(self) -> None:
        check_flow_name(self.flow_name)


@dataclass(frozen=True)
class Err:
    flow_name: str
    reason: ErrorReason

    def __post_init__(self) -> None:
        check_flow_name(self.flow_name)


ControlMessage = ReallocInit | ReallocAccepted | Ack | Err

_INIT_TEXT = "<INFO:RE-ALLOC:INIT>"
_ACCEPTED_TEXT = "<INFO:RE-ALLOC:ACCEPTED>"


def encode_control(message: ControlMessage) -> str:
    if isinstance(message, ReallocInit):
        return _INIT_TEXT
    if isinstance(message, ReallocAccepted):
        return _ACCEPTED_TEXT
    if isinstance(message, Ack):
        return f"<ACK:{message.flow_name}>"
    if isinstance(message, Err):
        return f"<ERR:{message.flow_name}:{message.reason.value}>"
    raise TypeError(f"not a control message: {message!r}")


def parse_control(text: str) -> ControlMessage:
    if text == _INIT_TEXT:
        return ReallocInit()
    if text == _ACCEPTED_TEXT:
        return ReallocAccepted()
    if not text.startswith("<") or not text.endswith(">"):
        raise ParseError("control message must be wrapped in <>", 0)
    kind, _, rest = text[1:-1].partition(":")
    try:
        if kind == "ACK":
            return Ack(rest)
        if kind == "ERR":
            name, _, value = rest.rpartition(":")
            reason = _REASONS.get(value)
            if reason is None:
                raise ValueError(f"{value!r} is not a valid ErrorReason")
            return Err(name, reason)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None
    raise ParseError(f"unknown control message {text!r}", 1)
