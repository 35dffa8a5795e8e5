"""Scoring and rendering of allocation tables.

The three aggregate columns reported for every algorithm are the objective
(sum of ``1 + l_max - level`` over served flows), the percentage of flows
served, and the average assigned criticality level. Averages are exact
fractions internally; tables render them truncated toward zero at two
decimals (17/8 prints as 2.12, and -17/8 as -2.12).

Every JSON report, the comparison here and the simulation report, is written
by ``json_document``, whose text is byte-identical to what ``json.dumps``
writes with ``sort_keys=True`` and an indent of 2. A placement stays an
``Allocation`` up to the writer, which writes it as the object
``{"level": L, "network": "id"}``; any other value that is not JSON is a
TypeError. An ``Allocation`` names no flow: the key it is written under
does, and one ``Allocation`` may sit under many flow ids. A dict entry whose
value's type is exactly ``str``, ``int``, ``float``, ``NoneType`` or
``Allocation`` (most of a comparison report) is written inside the dict's
loop, not by a recursive call; containers, bools and subclasses take the
general path.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from string import ascii_lowercase

from .allocators import Allocation, AllocationTable, check_flow_ids
from .flows import FlowSpec
from .networks import NetworkProfile

REPORT_SCHEMA_VERSION = 1

#: Glyphs used in the comparison table next to the assigned level.
_GLYPHS = (("wi-fi", "*"), ("wifi", "*"), ("lora", "#"), ("sigfox", "+"), ("nb", "-"))


@dataclass(frozen=True)
class AllocationReport:
    """Aggregates plus the per-flow and per-network view of one table."""

    objective: int
    percent_served: Fraction
    avg_criticality: Fraction | None
    per_flow: dict[str, Allocation | None]
    per_network_load: dict[str, tuple[int, int]]


def objective(table: AllocationTable, l_max: int) -> int:
    return sum(1 + l_max - entry.level for entry in table.entries.values())


def report(
    table: AllocationTable,
    flows: list[FlowSpec],
    networks: list[NetworkProfile],
    l_max: int,
) -> AllocationReport:
    """Score ``table`` over ``flows``; a flow id given twice is a ValueError."""
    per_flow = {flow.id: table.entries.get(flow.id) for flow in flows}
    if len(per_flow) != len(flows):
        check_flow_ids(flows)
    served_levels = [placed.level for placed in per_flow.values() if placed is not None]

    per_network_load: dict[str, tuple[int, int]] = {}
    for profile in networks:
        capacity = profile.capacity_micro_bps
        used = capacity - table.residual.get(profile.id, capacity)
        per_network_load[profile.id] = (used, capacity)

    n = len(flows)
    served = len(served_levels)
    return AllocationReport(
        objective=objective(table, l_max),
        percent_served=Fraction(100 * served, n) if n else Fraction(0),
        avg_criticality=Fraction(sum(served_levels), served) if served else None,
        per_flow=per_flow,
        per_network_load=per_network_load,
    )


def format_quantity(value: Fraction | None) -> str:
    """Truncate toward zero at two decimals and trim trailing zeros."""
    if value is None:
        return "-"
    numerator = value.numerator
    whole, frac = divmod(abs(100 * numerator) // value.denominator, 100)
    sign = "-" if numerator < 0 and (whole or frac) else ""
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:02d}".rstrip("0")


def glyph_map(networks: list[NetworkProfile]) -> dict[str, str]:
    """Network id -> table glyph; unknown technologies get the letters a..z in order."""
    glyphs: dict[str, str] = {}
    unknown: list[str] = []
    for profile in networks:
        lowered = profile.name.lower()
        for needle, glyph in _GLYPHS:
            if needle in lowered:
                glyphs[profile.id] = glyph
                break
        else:
            unknown.append(profile.id)
    if len(unknown) > len(ascii_lowercase):
        raise ValueError(f"{len(unknown)} networks have no known technology, but a table has 26 letters; use --format json")
    glyphs.update(zip(unknown, ascii_lowercase))
    return glyphs


def format_columns(rows: list[list[str]]) -> list[str]:
    """Left-align each column to its widest cell, two spaces apart, trailing blanks trimmed."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]


def _row(name: str, rep: AllocationReport, flows: list[FlowSpec], glyphs: dict[str, str]) -> list[str]:
    """Algorithm name, one level-and-glyph cell per flow, then the three aggregates."""
    cells = []
    for flow in flows:
        placed = rep.per_flow[flow.id]
        cells.append("" if placed is None else f"{placed.level}{glyphs[placed.network_id]}")
    return [name, *cells, format_quantity(rep.percent_served), format_quantity(rep.avg_criticality), str(rep.objective)]


def render_comparison_table(
    rows: list[tuple[str, AllocationReport]],
    flows: list[FlowSpec],
    networks: list[NetworkProfile],
    factor: int,
) -> str:
    """Fixed-column text table: one row per algorithm, one cell per flow."""
    glyphs = glyph_map(networks)
    header = ["algorithm"] + [flow.id for flow in flows] + ["% served", "avg crit", "objective"]
    body = [_row(name.upper(), rep, flows, glyphs) for name, rep in rows]
    legend = "  ".join(f"{glyphs[p.id]} {p.name}" for p in networks)
    lines = [f"factor={factor}  networks: {legend}"] + format_columns([header] + body)
    return "\n".join(lines) + "\n"


def render_comparison_csv(
    rows: list[tuple[str, AllocationReport]],
    flows: list[FlowSpec],
    networks: list[NetworkProfile],
) -> str:
    glyphs = glyph_map(networks)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["algorithm"]
        + [f"flow_{flow.id}" for flow in flows]
        + ["percent_served", "avg_criticality", "objective"]
    )
    writer.writerows(_row(name, rep, flows, glyphs) for name, rep in rows)
    return buffer.getvalue()


def report_to_json_dict(rep: AllocationReport) -> dict:
    """One comparison row for ``json_document``; ``per_flow`` maps a flow id to its ``Allocation`` or None."""
    served, crit = rep.percent_served, rep.avg_criticality
    return {  # an int division is correctly rounded, as float() of the Fraction is
        "objective": rep.objective,
        "percent_served": served.numerator / served.denominator,
        "avg_criticality": None if crit is None else crit.numerator / crit.denominator,
        "avg_criticality_display": format_quantity(crit),
        "per_flow": rep.per_flow,
        "per_network_load": {
            network_id: {"used_micro_bps": used, "capacity_micro_bps": capacity}
            for network_id, (used, capacity) in rep.per_network_load.items()
        },
    }


def render_comparison_json(
    rows: list[tuple[str, AllocationReport]], factor: int
) -> str:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "factor": factor,
        "rows": [{"algorithm": name, **report_to_json_dict(rep)} for name, rep in rows],
    }
    return json_document(doc) + "\n"


def json_document(value: object) -> str:
    """What ``json.dumps`` writes for ``value`` with ``sort_keys=True`` and an indent of 2.

    Up to CPython 3.13, any indent makes ``json.dumps`` fall back to its pure-Python,
    generator-based encoder; this writer appends to one list and joins once.
    An ``Allocation`` is written as the object ``{"level": L, "network": "id"}``;
    its text is built once per network, level and depth in this call.
    Dict keys must be ``str``; a key or value of any other type is a TypeError.
    """
    parts: list[str] = []
    _write_json(value, parts, "\n", {})
    return "".join(parts)


def _write_json(value: object, parts: list[str], newline: str, memo: dict[tuple[str, type, int, str], str]) -> None:
    """Append ``value``'s text to ``parts``; ``newline`` starts a line at its depth.

    A dict entry whose value's type is exactly ``str``, ``int``, ``float``,
    ``NoneType`` or ``Allocation`` is written in the dict's own loop; any other
    value, a ``bool`` or a subclass included, takes the tests below.
    """
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, Allocation):
        parts.append(_placement_text(value, newline, memo))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_float_text(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        lead, separator = "{" + inner, "," + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            kind = type(item)
            if kind is Allocation:
                text = memo.get((item.network_id, type(item.level), item.level, inner)) or _placement_text(item, inner, memo)
            elif kind is int:
                text = int.__repr__(item)
            elif kind is str:
                text = encode_basestring_ascii(item)
            elif item is None:
                text = "null"
            elif kind is float:
                text = _float_text(item)
            else:
                parts += (lead, encode_basestring_ascii(key), ": ")
                _write_json(item, parts, inner, memo)
                lead = separator
                continue
            parts += (lead, encode_basestring_ascii(key), ": ", text)
            lead = separator
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        lead, separator = "[" + inner, "," + inner
        for item in value:
            parts.append(lead)
            _write_json(item, parts, inner, memo)
            lead = separator
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _placement_text(placed: Allocation, newline: str, memo: dict[tuple[str, type, int, str], str]) -> str:
    """``placed`` as the object ``{"level": L, "network": "id"}`` at the depth of ``newline``.

    ``memo`` maps ``(network id, level type, level, newline)`` to that text; the
    type keeps a ``True`` level apart from the equal ``1``.
    """
    key = (placed.network_id, type(placed.level), placed.level, newline)
    text = memo.get(key)
    if text is None:
        parts: list[str] = []
        _write_json({"level": placed.level, "network": placed.network_id}, parts, newline, memo)
        text = memo[key] = "".join(parts)
    return text


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)
