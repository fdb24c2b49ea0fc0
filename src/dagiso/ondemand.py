"""On-demand points for the equivalence test.

An ``_OnDemandPoint`` is the point ``complete_point`` would give from the
same edge values, with only the entries that are read computed: every
parent block sigma_KK, so that a singular one rejects the same draws,
the entries one membership check reads, and the entries those are forced
from. ``_on_demand`` decides per check whether that pays.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from .dag import Dag
from .fields import PrimeField, _solve_mod
from .points import PRINCIPAL_MINOR_GUARD, _draw, _mix

ON_DEMAND_FACTOR = 4  # see _on_demand


class _Row(dict):
    """One row of an ``_OnDemandPoint``: entry j is looked up in its
    ``_Entries``, which computes it if need be, on its first read."""

    __slots__ = ("entries", "i")

    def __missing__(self, j: int) -> int:
        x = self[j] = self.entries.get(self.i, j)
        return x


def _positions(g: Dag) -> Tuple[List[int], List[List[int]]]:
    """The position of each node in ``g.order``, and the parent positions,
    ascending, of the node at each position."""
    at = [0] * g.n
    for x, i in enumerate(g.order):
        at[i] = x
    return at, [sorted([at[t] for t in g.parents[i]]) for i in g.order]


def _closure(need: List[set], kept, pa: List[List[int]],
             limit: Optional[int] = None):
    """The entries an on-demand point computes for ``need``, as (x, cols)
    steps, earliest position x first, with cols the ascending positions
    y < x: every y in need[x] that ``kept[x]`` lacks, and every entry
    those are forced from. None once they number ``limit`` or more.

    One loop runs from the latest position back, rather than a
    recursion, since the chain of entries one read needs can be as long
    as the graph. The entries of x read those of its parents t: at y < t
    in t's row, and at y > t in y's.
    """
    steps, count = [], 0
    for x in range(len(need) - 1, 0, -1):
        cols = sorted([y for y in need[x] if y not in kept[x]])
        if not cols:
            continue
        count += len(cols)
        if limit is not None and count >= limit:
            return None
        steps.append((x, cols))
        for t in pa[x]:
            at_t = bisect_left(cols, t)
            need[t].update(cols[:at_t])
            for y in cols[at_t:]:
                need[y].add(t)
    steps.reverse()
    return steps


def _demand(g: Dag, left=(), limit: Optional[int] = None):
    """``_closure`` of every block sigma_KK of ``g``'s plan nodes and of
    the entries that ``_minors_vanish(p, left)`` reads, for a point that
    keeps only its edge entries."""
    at, pa = _positions(g)
    need: List[set] = [set() for _ in range(g.n)]
    for x, k in enumerate(pa):
        if x > len(k):
            for y, t in enumerate(k):
                need[t].update(k[:y])
    for i, k, cols in left:
        ps = [at[c] for c in (*cols, *k, i)]
        for r in (i, *k):
            x = at[r]
            need[x].update([y for y in ps if y < x])
            for y in ps:
                if y > x:
                    need[y].add(x)
    return _closure(need, list(map(set, pa)), pa, limit)


class _Entries:
    """The entries of the point ``complete_point(g, edge_values, field)``
    that have been computed, and the means to compute the others.

    Nodes are numbered by their position in ``g.order``, and the entry of
    positions y < x is kept once, as ``_low[x][y]``. An entry that is no
    edge is w_x . sigma_{K_x y} mod q, where K_x are the parents of x and
    sigma_KK w_x = sigma_Kx: the value ``complete_point`` writes.
    Construction computes the entries of ``steps``, which must hold every
    block sigma_KK (see ``_demand``), and solves each w_x; a singular
    block raises SingularPivotError exactly when ``complete_point`` would,
    since the blocks hold the same values.
    """

    __slots__ = ("q", "_at", "_low", "_pa", "_w")

    def __init__(self, g: Dag, edge_values: Dict[Tuple[int, int], int],
                 q: int, steps):
        self.q = q
        self._at, self._pa = at, pa = _positions(g)
        self._low = low = [{} for _ in range(g.n)]
        for (u, v), val in edge_values.items():
            low[at[v]][at[u]] = val % q
        self._w: List[Optional[List[int]]] = [None] * g.n
        self._compute(steps)
        for x in range(g.n):
            if x > len(pa[x]) and self._w[x] is None:
                self._w[x] = self._solve(x)

    def _solve(self, x: int) -> List[int]:
        """w_x, from the block of the parents of x, which must be kept."""
        k, low = self._pa[x], self._low
        if not k:
            return []
        return _solve_mod([[low[r][c] if r > c else low[c][r] if r < c else 1
                            for c in k] + [low[x][r]] for r in k], self.q)

    def _compute(self, steps) -> None:
        """Compute and keep the entries of ``_closure``'s steps, each
        position's as one ``_mix``, solving w_x the first time it is
        needed."""
        low, pa, q = self._low, self._pa, self.q
        for x, cols in steps:
            w = self._w[x]
            if w is None:
                w = self._w[x] = self._solve(x)
            if not w:
                low[x].update(dict.fromkeys(cols, 0))
                continue
            vecs = []
            for t in pa[x]:
                at_t = bisect_left(cols, t)
                row = low[t]
                vecs.append([row[y] for y in cols[:at_t]]
                            + [low[y][t] for y in cols[at_t:]])
            low[x].update(zip(cols, _mix(w, vecs, q)))

    def get(self, i: int, j: int) -> int:
        """The entry of nodes i != j, computed if it is not kept yet."""
        x, y = self._at[i], self._at[j]
        if x < y:
            x, y = y, x
        if y not in self._low[x]:
            need: List[set] = [set() for _ in self._low]
            need[x].add(y)
            self._compute(_closure(need, self._low, self._pa))
        return self._low[x][y]


class _OnDemandPoint:
    """The point ``complete_point(g, edge_values, field)`` with only the
    entries that are read computed: the entries of ``steps`` up front (see
    ``_Entries``), any other on its first read. ``mat`` is a list of rows
    that read like those of ``SymPoint.mat``. The rows refer to the
    ``_Entries``, not to the point, so a point is freed as soon as it is
    dropped."""

    __slots__ = ("field", "n", "mat")

    def __init__(self, g: Dag, edge_values: Dict[Tuple[int, int], int],
                 field: PrimeField, steps):
        entries = _Entries(g, edge_values, field.q, steps)
        self.field, self.n = field, g.n
        self.mat = [_Row({i: 1}) for i in range(g.n)]
        for i, row in enumerate(self.mat):
            row.entries, row.i = entries, i


def _sample_on_demand(g: Dag, field: PrimeField, seed: int, steps
                      ) -> _OnDemandPoint:
    """``sample_point(g, field, seed)`` for n > PRINCIPAL_MINOR_GUARD, as an
    ``_OnDemandPoint`` that computes ``steps`` up front: the same draws,
    rejected on the same singular pivots, so every entry read is the one
    ``sample_point`` gives."""
    return _draw(g, field, seed,
                 lambda values: _OnDemandPoint(g, values, field, steps))


def _on_demand(g: Dag, left):
    """The steps for an ``_OnDemandPoint`` of ``g`` that a check reading
    ``left`` (``_unmade``'s triples) should draw, or None when it should
    draw the full ``sample_point``.

    The point computes every block sigma_KK of ``g`` and the entries
    ``_minors_vanish(p, left)`` reads, with all they are forced from (see
    ``_demand``). On demand is taken when those number fewer than
    n(n-1)/2, the entries ``complete_point`` fills, over
    ON_DEMAND_FACTOR. A check whose co-parent pairs and reads alone reach
    that limit builds no closure. The 2^n screen up to
    ``PRINCIPAL_MINOR_GUARD`` reads every entry, so it is never taken
    there.

    The factor is measured. Per check, on one 2-core x86-64 VM under
    CPython 3.11, building the steps, drawing on demand and checking took
    0.26 to 0.9 of the time of the full point and check while the steps
    held under a quarter of n(n-1)/2 entries (re-rooted trees at n = 200,
    |E| = 2n at n = 100 and 200); 0.63 to 1.08 of it between a quarter
    and 0.45; up to 1.46 of it above (|E| = 2n to 10n); and 2.2 to 2.5
    times it near 1 (a path against its reverse at n = 300, independent
    pairs at n = 200).
    """
    n = g.n
    limit = n * (n - 1) // (2 * ON_DEMAND_FACTOR)
    if (n <= PRINCIPAL_MINOR_GUARD
            or sum(len(k) * (len(k) - 1) // 2 for k in g.parents)
            + sum((len(k) + 1) * (len(cols) + len(k) + 1)
                  for _, k, cols in left) >= limit):
        return None
    return _demand(g, left, limit)
