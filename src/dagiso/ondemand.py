"""On-demand points for the equivalence test.

An ``_OnDemandPoint`` holds, of the point ``complete_point`` would give
from the same edge values, only the entries one membership check reads,
the entries those are forced from, and the parent blocks sigma_KK those
are forced through. A singular one of these blocks rejects the draw; a
block that no forced entry passes through is never computed, so a draw
that ``complete_point`` rejects only on such a block is kept.
``_on_demand`` decides per check whether that pays.

The check stays one-sided. Take the edge values e as variables. An entry
the point computes is sigma_xy = w_x . sigma_{K_x y}, where w_x is the
solution of sigma_KK w_x = sigma_{K x} for the parents K = K_x of x, so
it is a rational function of e with integer coefficients whose
denominators are the determinants |sigma_KK| of the blocks it was
forced through, each itself such a function of earlier entries. At
e = 0 every such block is the identity, and for real e near 0 the
completed matrix is positive definite and makes each node independent
of its earlier non-parents given its parents, so it is a covariance of
the model of the source graph. A Markov-equivalent target has the same
CI statements, so each of its imposed minors vanishes for all real e
near 0 and is zero as a rational function. Over F_q the point holds
these functions evaluated at the draw: reduction mod q extends, one
block at a time, to the ring that inverts the determinants it divides
by, as long as each of those is nonzero mod q, and the solution of a
nonsingular system is unique. So every imposed minor that the check
reads, a polynomial in computed entries, is 0 at every draw whose
blocks here are nonsingular, and ``_minors_vanish``, which answers yes
exactly when the minors it reads vanish, answers yes: an equivalent
pair still always answers yes. A draw that ``complete_point`` would
reject on another block changes nothing in this argument.
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
    y < x: every y in need[x] that ``kept[x]`` lacks, every entry those
    are forced from, and the block sigma_KK of the parents K of each x
    with a step, which w_x is solved from. None once they number
    ``limit`` or more.

    One loop runs from the latest position back, rather than a
    recursion, since the chain of entries one read needs can be as long
    as the graph. The entries of x read those of its parents t: at y < t
    in t's row, and at y > t in y's. The block of x lies before x too,
    so that one pass finds every step.
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
        k = pa[x]
        for z, t in enumerate(k):
            at_t = bisect_left(cols, t)
            need[t].update(k[:z], cols[:at_t])
            for y in cols[at_t:]:
                need[y].add(t)
    steps.reverse()
    return steps


def _demand(g: Dag, left=(), limit: Optional[int] = None):
    """``_closure`` of the entries that ``_minors_vanish(p, left)`` reads,
    for a point that keeps only its edge entries."""
    at, pa = _positions(g)
    need: List[set] = [set() for _ in range(g.n)]
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
    Construction computes the entries of ``steps`` (see ``_closure``),
    solving w_x for each position x with a step. A singular block among
    those raises SingularPivotError, as ``complete_point`` would on the
    same block; the block of a position with no step is never solved.
    """

    __slots__ = ("q", "_at", "_low", "_pa", "_w")

    def __init__(self, g: Dag, edge_values: Dict[Tuple[int, int], int],
                 q: int, steps):
        self.q = q
        self._at, self._pa = _positions(g)
        self._low = [{} for _ in range(g.n)]
        for (u, v), val in edge_values.items():
            self._low[self._at[v]][self._at[u]] = val % q
        self._w: List[Optional[List[int]]] = [None] * g.n
        self._compute(steps)

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
        """The entry of nodes i != j, computed if it is not kept yet.

        Such a read solves the blocks of its own closure, which no draw
        checked, so it may raise SingularPivotError. A point drawn with
        ``_demand(g, left)`` keeps every entry ``_minors_vanish(p, left)``
        reads, so that check never computes here.
        """
        x, y = self._at[i], self._at[j]
        if x < y:
            x, y = y, x
        if y not in self._low[x]:
            need: List[set] = [set() for _ in self._low]
            need[x].add(y)
            self._compute(_closure(need, self._low, self._pa))
        return self._low[x][y]


class _OnDemandPoint:
    """The entries of ``complete_point(g, edge_values, field)`` that are
    read, from the same edge values: the entries of ``steps`` up front (see
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
    ``_OnDemandPoint`` that computes ``steps`` up front. The draws come
    from the same stream, but only the blocks of ``steps`` reject one, so
    it keeps the draw ``sample_point`` keeps or an earlier one that
    ``complete_point`` rejects on another block; on the same draw every
    entry read is the one ``sample_point`` gives."""
    return _draw(g, field, seed,
                 lambda values: _OnDemandPoint(g, values, field, steps))


def _on_demand(g: Dag, left):
    """The steps for an ``_OnDemandPoint`` of ``g`` that a check reading
    ``left`` (``_unmade``'s triples) should draw, or None when it should
    draw the full ``sample_point``.

    The point computes the entries ``_minors_vanish(p, left)`` reads, with
    all they are forced from and the blocks sigma_KK they are forced
    through (see ``_demand``). On demand is taken when those number fewer
    than n(n-1)/2, the entries ``complete_point`` fills, over
    ON_DEMAND_FACTOR. A check whose reads alone reach that limit builds
    no closure. The 2^n screen up to ``PRINCIPAL_MINOR_GUARD`` reads
    every entry, so it is never taken there.

    The factor is measured. Per check, on one 2-core x86-64 VM under
    CPython 3.11, building the steps, drawing on demand and checking took
    0.03 to 0.84 of the time of the full point and check while the steps
    held under a quarter of n(n-1)/2 entries (re-rooted trees at n = 200,
    |E| = 2n to 10n at n = 100 to 200); 0.42 to 1.14 of it between a
    quarter and 0.53, where the pairs with |E| = 2n cross 1 near 0.45;
    0.8 to 1.37 of it between 0.59 and 0.77 (|E| = 3n to 10n); and 2.2 to
    2.3 times it near 1 (a path against its reverse at n = 300,
    independent pairs at n = 200). Solving only the blocks a check uses
    moved the crossover of denser graphs up, but not that of |E| = 2n,
    and on the equiv-large pairs factors 2 and 3 ran within the noise
    of 4.
    """
    n = g.n
    limit = n * (n - 1) // (2 * ON_DEMAND_FACTOR)
    if (n <= PRINCIPAL_MINOR_GUARD
            or sum((len(k) + 1) * (len(cols) + len(k) + 1)
                   for _, k, cols in left) >= limit):
        return None
    return _demand(g, left, limit)
