"""On-demand points for the equivalence test.

An ``_OnDemandPoint`` holds, of the point ``complete_point`` would give
from the same edge values, only the entries one membership check reads,
the entries those are forced from, and the parent blocks sigma_KK those
are forced through, all computed up front by ``_forced_entries``, the
kernel ``complete_point`` fills its rows with; a read of any other entry
is a KeyError. A singular one of these blocks rejects the draw; a block
that no forced entry passes through is never solved, so a draw that
``complete_point`` rejects only on such a block is kept. ``_on_demand``
decides per check, at every n, whether that pays; otherwise the check
reads the full ``complete_point``. Either way the check runs inside the
draw (``_draw``), so a singular target block sigma_K'K' that it solves
rejects the draw too.

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
blocks here are nonsingular. Where the target blocks it solves are
nonsingular too, ``_minors_vanish`` answers yes exactly when the minors
it reads vanish, so it answers yes; where one is singular, the draw is
rejected and no answer is read. An equivalent pair still always answers
yes. A draw that ``complete_point`` would reject on another block
changes nothing in this argument.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from .dag import Dag
from .fields import PrimeField
from .points import _forced_entries, _positions

ON_DEMAND_FACTOR = 4  # see _on_demand


def _closure(need: List[set], pa: List[List[int]],
             limit: Optional[int] = None):
    """The entries an on-demand point computes for ``need``, over node
    positions with ``pa`` the parent positions of each, ascending: as
    (x, cols) steps, earliest position x first, with cols the ascending
    positions y < x. They are every y in need[x] that is no parent of x
    (the edges are the only entries held before the steps), every entry
    those are forced from, and the block sigma_KK of the parents K of
    each x with a step, which its entries are solved through. None once
    they number ``limit`` or more.

    One loop runs from the latest position back, rather than a
    recursion, since the chain of entries one read needs can be as long
    as the graph. The entries of x read those of its parents t: at y < t
    in t's row, and at y > t in y's. The block of x lies before x too,
    so that one pass finds every step.
    """
    steps, count = [], 0
    for x in range(len(need) - 1, 0, -1):
        k = pa[x]
        cols = sorted(need[x].difference(k))
        if not cols:
            continue
        count += len(cols)
        if limit is not None and count >= limit:
            return None
        steps.append((x, cols))
        for z, t in enumerate(k):
            at_t = bisect_left(cols, t)
            need[t].update(k[:z], cols[:at_t])
            for y in cols[at_t:]:
                need[y].add(t)
    steps.reverse()
    return steps


def _demand(g: Dag, left=(), limit: Optional[int] = None):
    """``_closure`` of the entries that ``_minors_vanish(p, left)`` reads,
    for a point that holds only its edge entries, as (i, cols) steps of
    nodes i and their earlier columns, or None at ``limit``."""
    at, order = _positions(g), g.order
    pa = [sorted([at[t] for t in g.parents[i]]) for i in order]
    need: List[set] = [set() for _ in range(g.n)]
    for i, k, cols in left:
        ps = [at[c] for c in (*cols, *k, i)]
        for r in (i, *k):
            x = at[r]
            need[x].update([y for y in ps if y < x])
            for y in ps:
                if y > x:
                    need[y].add(x)
    steps = _closure(need, pa, limit)
    if steps is None:
        return None
    return [(order[x], [order[y] for y in cols]) for x, cols in steps]


class _OnDemandPoint:
    """The entries of ``complete_point(g, edge_values, field)`` named by
    ``steps`` (see ``_demand``), from the same edge values. ``mat`` is a
    list of symmetric dict rows keyed by node, read like the rows of
    ``SymPoint.mat``: they hold the unit diagonal, the edge values mod q
    and, step by step, the node's ``_forced_entries`` at its columns. A
    singular block among the steps raises SingularPivotError, as
    ``complete_point`` would on the same block."""

    __slots__ = ("field", "n", "mat")

    def __init__(self, g: Dag, edge_values: Dict[Tuple[int, int], int],
                 field: PrimeField, steps):
        q, pa = field.q, g.parents
        mat = [{i: 1} for i in range(g.n)]
        for (u, v), val in edge_values.items():
            mat[u][v] = mat[v][u] = val % q
        for i, cols in steps:
            row = mat[i]
            for j, x in zip(cols, _forced_entries(mat, i, pa[i], cols, q)):
                row[j] = mat[j][i] = x
        self.field, self.n, self.mat = field, g.n, mat


def _on_demand(g: Dag, left):
    """The steps for an ``_OnDemandPoint`` of ``g`` that a check reading
    ``left`` (``_unmade``'s triples) should draw, or None when it should
    draw the full ``complete_point``. The rule is the same at every n.

    The point computes the entries ``_minors_vanish(p, left)`` reads, with
    all they are forced from and the blocks sigma_KK they are forced
    through (see ``_demand``). On demand is taken when those number fewer
    than n(n-1)/2, the entries ``complete_point`` fills, over
    ON_DEMAND_FACTOR. A check whose reads alone reach that limit builds
    no closure.

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
    if sum((len(k) + 1) * (len(cols) + len(k) + 1)
           for _, k, cols in left) >= limit:
        return None
    return _demand(g, left, limit)
