"""In-memory spans around the library's layer boundaries.

A ``Tracer`` replaces module attributes with timing wrappers, at the names
the calling modules look them up by (``simulator.run_algorithm``, the
``wire`` module functions the simulator calls, ``allocators.utilization``,
and so on), records one span per call (name, start, end, parent) and puts
the originals back on ``restore``. The library's source is never touched.
Self times are computed afterwards from the recorded spans.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is a span name or a function of the call arguments that
        returns one; ``observe(args, result)`` may update ``self.counts``.
        """
        original = getattr(owner, attr)
        fixed_id = None if callable(name) else self._name_id(name)
        stack, starts, ends = self._stack, self._start, self._end

        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else self._name_id(name(args))
            index = len(starts)
            self._name.append(nid)
            self._parent.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            began = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                starts[index] = began
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def __len__(self) -> int:
        return len(self._start)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[tuple[str, int, int, int]]:
        names = self.names
        return [
            (names[n], s, e, p) for n, s, e, p in zip(self._name, self._start, self._end, self._parent)
        ]

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV: name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            names = self.names
            for n, s, e, p in zip(self._name, self._start, self._end, self._parent):
                handle.write(f"{names[n]},{s},{e},{p}\n")


def self_times(spans) -> dict[str, tuple[int, int, int]]:
    """Per span name: (calls, total ns, self ns).

    A span's self time is its duration minus the part of its interval that
    the union of its child spans covers.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list[int]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered
    return {name: tuple(values) for name, values in out.items()}
