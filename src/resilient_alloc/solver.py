"""Exact maximizer for the allocation problem via branch-and-bound.

Each flow either stays unallocated or is assigned one (network, level) pair
with its level-specific bandwidth demand; no network may be driven past its
capacity, and the score of an assignment at level L is ``1 + l_max - L`` (the
extra unit makes serving a flow at the strictest level better than not
serving it at all). Depth-first search walks flows in input order; per flow
it tries levels in ascending order, networks in declaration order, and
"unallocated" last. The returned table is the first optimum under that
exploration order: the table an exhaustive search returns when it replaces
its incumbent only on a strict improvement. The tests check it against such
a search, ``tests/enumeration_oracle.first_optimum``, which shares no code
with this one.

The search keeps an explicit stack, so its depth is bounded by memory rather
than by the interpreter's recursion limit. Each frame is a generator over one
flow's branches: it applies a branch to the residuals, the objective and the
current path, yields, and undoes that branch before it tries the next, so a
frame always resumes on the state it was entered with. Two rules cut the
tree:

* **Surrogate LP bound.** All residual capacity is merged into one bin and
  the remaining flows are relaxed to a multiple-choice knapsack: each flow
  takes a convex combination of its (demand, score) options, including
  (0, 0) unless ``require_all``. Greedy filling of the merged residual with
  the upper-hull increments of every flow, steepest first, solves that LP
  (Sinha & Zoltners, 1979). Its floor, added to the objective so far, is an
  integer that no completion can beat. Under ``require_all`` a node whose
  mandatory base demand already exceeds the merged residual is cut as
  infeasible.
* **Twin networks.** For one flow, a network whose residual equals that of
  an earlier network is skipped. Swapping the two networks in every later
  choice maps each completion under the later twin to one with the same
  objective under the earlier twin, which the search visits first.

The search descends from the root bound, as in iterative deepening (Korf,
1985). Each step takes a target, cuts every node whose bound is below it,
and stops at the first leaf that reaches it. A step that finds none proves
that no leaf reaches the target; its *ceiling*, the largest bound value or
leaf objective it cut, is then the next target that could hold a leaf, so
no step repeats a search that cannot succeed. The descent starts at the
root bound, which no leaf exceeds, and targets fall strictly, so the first
target that yields a leaf is the optimum. That step cuts only subtrees
whose bound is below the optimum, which hold no optimal leaf, and skips
only later twins, whose optimal leaves each have a counterpart under the
earlier twin that comes first. Neither rule changes the exploration order,
so the step stops at the first leaf that reaches the optimum in that order:
the first optimum. When a target falls below 0, no leaf exists; this
happens only under ``require_all``, where it raises ``Infeasible``.

A purpose-built search keeps the package dependency-free.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .allocators import AllocationTable, AllocatorConfig, check_flow_ids
from .flows import FlowSpec, utilization  # noqa: F401 -- bench/run.py traces solver.utilization by name
from .networks import NetworkProfile


class Infeasible(Exception):
    """No assignment serves every flow (raised only with require_all)."""


@dataclass(frozen=True)
class IlpInstance:
    """One problem instance for the exact solver: the heuristics' inputs plus ``require_all``.

    With ``require_all`` the optional constraint that every flow must be
    served is enforced; the default leaves flows free to stay unallocated.
    """

    flows: Sequence[FlowSpec]
    networks: Sequence[NetworkProfile]
    cfg: AllocatorConfig
    require_all: bool = False


def level_options(instance: IlpInstance) -> list[list[tuple[int, int, int]]]:
    """Per flow, its ``(level, score, demand)`` options in ascending level order.

    A level outside ``1..l_max`` is no option. An option whose demand is
    above every network's capacity is left out.
    No network can hold it, so the search never places it and no leaf
    changes; the bound loses an option it could never use, so it only
    tightens.
    """
    factor, l_max = instance.cfg.factor, instance.cfg.l_max
    widest = max((p.capacity_micro_bps for p in instance.networks), default=0)
    options = []
    for flow in instance.flows:
        per_flow = []
        for level, demand in flow.ladder:
            demand *= factor
            if 1 <= level <= l_max and demand <= widest:
                per_flow.append((level, 1 + l_max - level, demand))
        options.append(per_flow)
    return options


def _upper_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Upper concave hull of (demand, score) points, by ascending demand.

    The first point is the cheapest option (the best-scoring one among
    equally cheap options); each later point costs more and scores more,
    at a strictly falling rate.
    """
    hull: list[tuple[int, int]] = []
    for demand, score in sorted(points, key=lambda p: (p[0], -p[1])):
        if hull and score <= hull[-1][1]:
            continue
        while len(hull) >= 2:
            (d0, s0), (d1, s1) = hull[-2], hull[-1]
            if (s1 - s0) * (demand - d1) > (score - s1) * (d1 - d0):
                break
            hull.pop()
        hull.append((demand, score))
    return hull


class SurrogateBound:
    """LP bound of the flows from ``depth`` on, all residual merged into one bin.

    Called as ``bound(depth, objective, free)`` with ``free`` the summed
    residual; returns ``objective`` plus the floor of the LP optimum, or -1
    when the flows from ``depth`` on cannot all be served (``require_all``).
    """

    def __init__(self, options: list[list[tuple[int, int, int]]], require_all: bool) -> None:
        n = len(options)
        # Suffix sums of each flow's cheapest and richest hull point; None
        # marks a suffix holding a flow with nothing to choose under
        # require_all.
        self.base_demand: list[int | None] = [0] * (n + 1)
        self.base_score = [0] * (n + 1)
        self.full_demand = [0] * (n + 1)
        self.full_score = [0] * (n + 1)
        increments = []
        for i in range(n - 1, -1, -1):
            points = [(demand, score) for _, score, demand in options[i]]
            if not require_all:
                points.append((0, 0))
            hull = _upper_hull(points)
            below = self.base_demand[i + 1]
            if not hull or below is None:
                self.base_demand[i] = None
                continue
            self.base_demand[i] = below + hull[0][0]
            self.base_score[i] = self.base_score[i + 1] + hull[0][1]
            self.full_demand[i] = self.full_demand[i + 1] + hull[-1][0]
            self.full_score[i] = self.full_score[i + 1] + hull[-1][1]
            for (d0, s0), (d1, s1) in zip(hull, hull[1:]):
                increments.append((i, d1 - d0, s1 - s0))
        # Steepest first, keyed by the floor of slope * scale: two distinct
        # slopes differ by more than 1 / scale, so their keys keep their
        # order, and equal slopes tie and keep their input order. One flow's
        # increments fall strictly in slope, so they keep their hull order.
        scale = 1 << (2 * max((demand for _, demand, _ in increments), default=0).bit_length())
        self.increments = sorted(increments, key=lambda inc: inc[2] * scale // inc[1], reverse=True)

    def __call__(self, depth: int, objective: int, free: int) -> int:
        base = self.base_demand[depth]
        if base is None or base > free:
            return -1
        if self.full_demand[depth] <= free:
            return objective + self.full_score[depth]
        room, value = free - base, objective + self.base_score[depth]
        for owner, demand, score in self.increments:
            if owner < depth:
                continue
            if demand > room:
                return value + score * room // demand
            room -= demand
            value += score
        return value


def exact_solve(instance: IlpInstance) -> AllocationTable:
    """Optimal allocation table for ``instance``: the first optimum in exploration order."""
    networks = instance.networks
    table = AllocationTable(networks)
    check_flow_ids(instance.flows)
    n = len(instance.flows)
    options = level_options(instance)
    bound = SurrogateBound(options, instance.require_all)

    residual = [p.capacity_micro_bps for p in networks]
    objective = 0
    # choice[k] is flow k's (network index, level, demand) on the current path, or None.
    choice: list[tuple[int, int, int] | None] = [None] * n

    def frame(i: int):
        """Flow ``i``'s branches in exploration order: apply one, yield, undo it."""
        nonlocal objective
        targets = [j for j, left in enumerate(residual) if residual.index(left) == j]
        for level, score, demand in options[i]:
            for j in targets:
                if residual[j] >= demand:
                    residual[j] -= demand
                    objective += score
                    choice[i] = (j, level, demand)
                    yield
                    residual[j] += demand
                    objective -= score
        if not instance.require_all:
            choice[i] = None
            yield

    def search(target: int) -> tuple[list | None, int]:
        """The first leaf whose objective is at least ``target``, or None and the ceiling.

        The ceiling is the largest bound value or leaf objective below
        ``target``, or -1. A search that returns a leaf leaves the shared
        state mid-path; nothing reads it after that.
        """
        # stack[0] is a root with one empty branch; stack[k + 1] is flow k's frame.
        stack, ceiling = [iter((None,))], -1
        while stack:
            for _ in stack[-1]:
                depth = len(stack) - 1
                if depth == n:
                    if objective >= target:
                        return list(choice), ceiling
                    if objective > ceiling:
                        ceiling = objective
                elif (cut := bound(depth, objective, sum(residual))) >= target:
                    stack.append(frame(depth))
                    break
                elif cut > ceiling:
                    ceiling = cut
            else:
                stack.pop()
        return None, ceiling

    best_choice, target = None, bound(0, 0, sum(residual))
    while best_choice is None and target >= 0:
        best_choice, target = search(target)
    if best_choice is None:
        raise Infeasible("no assignment serves every flow")

    table.fill([(flow.id, *picked) for flow, picked in zip(instance.flows, best_choice) if picked is not None])
    return table
