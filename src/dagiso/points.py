"""Points of the unit-diagonal DAG variety.

Covariance construction from structural-equation parameters, the
finite-field point sampler (draw edge entries, then solve each imposed
minor relation, which is linear in its one unknown non-edge entry),
exact membership checks, the equivalence test's on-demand points, which
hold only the entries one check reads (``_OnDemandPoint``, with the
proof that the check stays one-sided), and the rank-based Gaussian CI
test.

A note on normalization: rescaling a matrix by a nonzero diagonal,
sigma -> D sigma D, multiplies every minor |sigma_{RC}| by nonzero
factors, so vanishing of the generators and all ranks are unchanged.
Exact rational SEM covariances are therefore kept un-normalized (unit
diagonal would require square roots) and membership is tested on them
directly; sampled finite-field points have an exact unit diagonal.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .ci import CiError, MinorSpec, TreeRelation, imposed_minors
from .dag import Dag, DagError, Permutation, _require_exact, _require_ints
from .fields import (
    Element,
    FieldArithmeticError,
    PrimeField,
    SingularPivotError,
    _det_and_rank,
    _det_mod,
    _solve_mod,
)

PRINCIPAL_MINOR_GUARD = 14  # full 2^n - 1 principal-minor check up to here
RESAMPLE_BUDGET = 64
ON_DEMAND_FACTOR = 4  # see _on_demand


class SamplerError(RuntimeError):
    """Rejection budget exhausted (modulus too small for the node count)."""


class ParameterError(ValueError):
    """Unusable test or sampler parameters."""


@dataclass(frozen=True)
class SymPoint:
    """A symmetric matrix over F_q (field set) or over Q (field None).

    Sampled points have unit diagonal (points of the normalized variety);
    rational SEM covariances keep their true positive diagonal, which is
    equivalent for every check in this package (see module docstring).
    """

    field: Optional[PrimeField]
    mat: Tuple[Tuple[Element, ...], ...]

    def __init__(self, field: Optional[PrimeField], mat):
        if field is not None and not isinstance(field, PrimeField):
            raise FieldArithmeticError(f"not a PrimeField: {field!r}")
        rows = [list(r) for r in mat]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise FieldArithmeticError("point matrix must be square")
        entries = [x for r in rows for x in r]
        if field is not None:
            _require_ints(entries, "F_q point entries", FieldArithmeticError)
            q = field.q
            rows = [[x % q for x in r] for r in rows]
        else:
            _require_exact(entries, "rational point entries",
                           FieldArithmeticError)
            rows = [[Fraction(x) for x in r] for r in rows]
        for i in range(n):
            if rows[i][i] == 0:
                raise FieldArithmeticError(f"zero diagonal entry at {i}")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise FieldArithmeticError(
                        f"matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "mat", tuple(tuple(r) for r in rows))

    @classmethod
    def _trusted(cls, field: PrimeField, rows) -> "SymPoint":
        """A point from rows already reduced mod q, symmetric and with a
        nonzero diagonal, taken without the checks: the sampler's own
        completions."""
        p = object.__new__(cls)
        object.__setattr__(p, "field", field)
        object.__setattr__(p, "mat", tuple(map(tuple, rows)))
        return p

    @property
    def n(self) -> int:
        return len(self.mat)

    def relabel(self, p: Permutation) -> "SymPoint":
        """Row/column relabeling: new[p(i)][p(j)] = old[i][j]."""
        if p.n != self.n:
            raise DagError("permutation size does not match point size")
        inv = p.inverse()
        return SymPoint(self.field,
                        [[self.mat[inv(a)][inv(b)] for b in range(self.n)]
                         for a in range(self.n)])

    def to_json_dict(self) -> dict:
        if self.field is not None:
            return {"q": self.field.q, "mat": [list(r) for r in self.mat]}
        return {"q": "rational",
                "mat": [[str(x) for x in r] for r in self.mat]}


@dataclass(frozen=True)
class SemParams:
    """Structural-equation parameters on a DAG.

    ``alpha`` assigns the edge coefficient to every edge (u, v), read as
    the weight of parent u in the equation for child v; ``omega`` assigns
    a nonzero innovation scale to every node. Values are ints or
    Fractions. Both are kept as read-only views of validated copies, so
    no entry can change after the checks.
    """

    g: Dag
    alpha: Mapping[Tuple[int, int], Fraction]
    omega: Mapping[int, Fraction]

    def __init__(self, g: Dag, alpha, omega):
        _require_ints([x for e in alpha for x in e], "alpha keys")
        _require_ints(omega, "omega keys")
        _require_exact(alpha.values(), "alpha values", DagError)
        _require_exact(omega.values(), "omega values", DagError)
        alpha = {e: Fraction(a) for e, a in alpha.items()}
        omega = {i: Fraction(w) for i, w in omega.items()}
        if set(alpha) != set(g.edges):
            raise DagError("alpha must be supported exactly on the edges")
        if set(omega) != set(range(g.n)):
            raise DagError("omega must assign a value to every node")
        if any(w == 0 for w in omega.values()):
            raise DagError("omega entries must be nonzero")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "alpha", MappingProxyType(alpha))
        object.__setattr__(self, "omega", MappingProxyType(omega))


def minor_eval(p: SymPoint, m: MinorSpec) -> Element:
    """Exact determinant of the specified submatrix of ``p``."""
    if not all(0 <= x < p.n for x in (*m.rows, *m.cols)):
        raise CiError(f"minor indices out of range for n={p.n}")
    mat = p.mat
    if p.field is not None:
        return _det_mod(m.rows, m.cols, mat, range(p.n), p.field.q)
    return _det_and_rank([[mat[r][c] for c in m.cols] for r in m.rows])[0]


def relation_eval(p: SymPoint, rel: TreeRelation) -> Element:
    """Value of a reduced tree generator at ``p``."""
    if not all(0 <= x < p.n for x in (rel.i, rel.j, rel.k) if x is not None):
        raise CiError(f"relation nodes out of range for n={p.n}")
    mat = p.mat
    if rel.kind == "linear":
        return mat[rel.i][rel.j]
    val = mat[rel.i][rel.j] - mat[rel.i][rel.k] * mat[rel.k][rel.j]
    return val % p.field.q if p.field is not None else val


def sem_covariance(params: SemParams) -> SymPoint:
    """Exact rational covariance of the linear SEM given by ``params``.

    This is (I - A)^-1 W^2 (I - A)^-T for the edge-coefficient matrix A
    and the diagonal W of innovation scales, computed without an inverse
    by the structural-equation recursion in topological order:
    sigma_ij = sum_p alpha_pi sigma_pj over the parents p of i for every
    earlier node j, and sigma_ii = sum_p alpha_pi sigma_pi + omega_i^2.
    The diagonal is left un-normalized; every membership check used
    downstream is invariant under the diagonal rescaling that would make
    it 1 (see module docstring), so no square roots are needed.
    """
    g = params.g
    pa = g.parents
    sigma = [[Fraction(0)] * g.n for _ in range(g.n)]
    done: List[int] = []
    for i in g.order:
        coef = [(p, params.alpha[(p, i)]) for p in pa[i]]
        for j in done:
            sigma[i][j] = sigma[j][i] = sum(
                (a * sigma[p][j] for p, a in coef), Fraction(0))
        sigma[i][i] = sum((a * sigma[p][i] for p, a in coef),
                          params.omega[i] ** 2)
        done.append(i)
    return SymPoint(None, sigma)


def _derive_seed(*parts) -> int:
    """Stable stream split: independent child streams from one master seed."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "big")


def _getter(free: Tuple[int, ...]):
    """``itemgetter(*free)``, returning a tuple for one index too."""
    pick = itemgetter(*free)
    return pick if len(free) > 1 else lambda row: (pick(row),)


def _forced_entries(mat, i: int, k: Tuple[int, ...],
                    free: Tuple[int, ...], q: int) -> List[int]:
    """The entries sigma_ij = w . sigma_Kj mod q, for j in ``free`` in
    order, with sigma_KK w = sigma_Ki solved once; raises
    SingularPivotError when sigma_KK is singular.

    The K rows are gathered at the ``free`` columns and combined as whole
    vectors by ``_mix``, rather than one dot product per entry.
    """
    if not k:
        return [0] * len(free)
    w = _solve_mod([[mat[r][c] for c in k] + [mat[r][i]] for r in k], q)
    pick = _getter(free)
    return _mix(w, [pick(mat[r]) for r in k], q)


def _mix(w: List[int], cols: List[Sequence[int]], q: int) -> List[int]:
    """sum_t w[t] cols[t] mod q, entry by entry, one comprehension per
    vector."""
    if len(w) == 1:
        a, = w
        return [a * x % q for x in cols[0]]
    if len(w) == 2:
        a, b = w
        return [(a * x + b * y) % q for x, y in zip(*cols)]
    acc = [w[0] * x for x in cols[0]]
    for a, col in zip(w[1:], cols[1:]):
        acc = [s + a * x for s, x in zip(acc, col)]
    return [s % q for s in acc]


def complete_point(g: Dag, edge_values: Dict[Tuple[int, int], int],
                   field: PrimeField) -> SymPoint:
    """Fill in all non-edge entries of a unit-diagonal point from given
    edge entries by solving each imposed minor relation for its single
    unknown.

    Nodes are visited in topological order. For node i with K = pa(i),
    the relation |sigma_{iK,jK}| = |sigma_KK| (sigma_ij - sigma_iK
    sigma_KK^-1 sigma_Kj) = 0 forces sigma_ij = w . sigma_Kj for every
    earlier non-parent j, where sigma_KK w = sigma_Ki is solved once per
    node. The combine runs over the whole prefix of i in ``g.order``:
    at a parent j it writes back w . sigma_Kj = (sigma_KK w)_j = sigma_ij,
    the edge entry itself. A singular sigma_KK raises SingularPivotError
    (callers resample); a node with no earlier non-parent solves nothing.
    An edge value that is not an int, or a ``field`` that is not a
    PrimeField, raises FieldArithmeticError.
    """
    if not isinstance(field, PrimeField):
        raise FieldArithmeticError(f"not a PrimeField: {field!r}")
    q = field.q
    n = g.n
    if set(edge_values) != set(g.edges):
        raise CiError("edge_values must be keyed exactly by the edges")
    _require_ints(edge_values.values(), "edge values", FieldArithmeticError)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 1
    for (u, v) in g.edges:
        val = edge_values[(u, v)] % q
        mat[u][v] = val
        mat[v][u] = val
    for i, k, pos in g.plan:
        row, cols = mat[i], g.order[:pos]
        for j, x in zip(cols, _forced_entries(mat, i, k, cols, q)):
            row[j] = x
            mat[j][i] = x
    return SymPoint._trusted(field, mat)


# A symmetric matrix of order m is kept as its upper triangle, row-major:
# the m(m+1)/2 entries a_uv with u <= v. Its trailing block A[1:,1:] is
# the tail from position m on, in the same layout, and _SCHUR_PAIRS[m]
# lists (u, v) for each of its entries: the positions in the top row
# A[0,1:] of the two entries its Schur complement entry reads.
_SCHUR_PAIRS = {m: tuple((u, v) for u in range(m - 1) for v in range(u, m - 1))
                for m in range(2, PRINCIPAL_MINOR_GUARD + 1)}


def principal_minors_nonzero(p: SymPoint) -> bool:
    """Whether every one of the 2^n - 1 principal minors of ``p`` is
    nonzero.

    Walks the tree of Griffin and Tsatsomeros ("Principal minors, Part
    I", LAA 2006): a matrix A contributes its pivot a_00 and two
    children, the trailing block A[1:,1:] and the Schur complement
    S = A[1:,1:] - A[1:,0] A[0,1:] / a_00. The principal minors of A
    are those of A[1:,1:] and a_00 times those of S, so every one is
    nonzero exactly when a_00 is and every one of both children is. This
    costs O(2^n) entry updates rather than one elimination per minor.

    The tree is walked a level at a time from the root, since most of
    its nodes have small order, where a Python loop step per node costs
    about as much as its arithmetic. A level is a list of columns, one
    per triangle position, each holding that entry over every node of
    the level. One ``all()`` tests the pivot column, one comprehension
    per trailing position builds that entry of every Schur child, and
    appending it to the trailing column gives the level one order down.
    Only the level in hand and the one it builds are held, at most
    9/8 * 2^n entries (0.7 MB at n = 14).

    Schur complements of a symmetric matrix stay symmetric, so each node
    is one flat upper triangle (see ``_SCHUR_PAIRS``). Over F_q the Schur
    child is kept as a_00 S = a_00 A[1:,1:] - A[1:,0] A[0,1:], which
    needs no inverse: its order-k principal minors are a_00^k times those
    of S, so each is zero exactly when that of S is. Every entry is kept
    reduced mod q, so an entry is zero exactly when it is falsy. Over Q
    the child is S itself, because Fractions would double in size at each
    level without the division.
    Guarded to n <= 14; ``sample_point`` is its one caller, and above
    that it enforces only its solve pivots.
    """
    n = p.n
    if n > PRINCIPAL_MINOR_GUARD:
        raise FieldArithmeticError(
            f"principal-minor enumeration needs n <= {PRINCIPAL_MINOR_GUARD}")
    q = p.field.q if p.field is not None else None
    cols = [[x] for i, r in enumerate(p.mat) for x in r[i:]]
    m = n
    while m > 1:  # no other name holds a level: each is freed
        pivots, top, cols = cols[0], cols[1:m], cols[m:]
        if not all(pivots):
            return False
        for col, (u, v) in zip(cols, _SCHUR_PAIRS[m]):
            if q is None:
                col += [x - y * z / a
                        for a, x, y, z in zip(pivots, col, top[u], top[v])]
            else:
                col += [(a * x - y * z) % q
                        for a, x, y, z in zip(pivots, col, top[u], top[v])]
        m -= 1
    return not cols or all(cols[0])


def _draw(g: Dag, field: PrimeField, seed: int, complete):
    """The first value other than None that ``complete(values)`` returns
    over ``RESAMPLE_BUDGET`` draws from ``seed``'s edge stream: it rejects
    a draw by returning None or raising SingularPivotError. Edge values
    are drawn uniformly from F_q in ``g.sorted_edges()`` order, each as
    k = q.bit_length() random bits, drawn again while they reach q: the
    values ``randrange(q)`` returns in CPython 3.10 to 3.13, without its
    call layers and without resting on its private routine. SamplerError
    when every draw is rejected. It is the one draw of
    ``sample_point``, ``isomorphism_test`` and ``equivalence_test``, each
    of which completes its point, and runs its check, in ``complete``.
    """
    _require_ints([seed], "seed", ParameterError)
    if not isinstance(field, PrimeField):
        raise FieldArithmeticError(f"not a PrimeField: {field!r}")
    q = field.q
    getrandbits = random.Random(_derive_seed("edges", seed)).getrandbits
    k = q.bit_length()
    edges = g.sorted_edges()
    for _ in range(RESAMPLE_BUDGET):
        values = {}
        for e in edges:
            r = getrandbits(k)
            while r >= q:
                r = getrandbits(k)
            values[e] = r
        try:
            point = complete(values)
        except SingularPivotError:
            continue
        if point is not None:
            return point
    raise SamplerError(
        f"no admissible point in {RESAMPLE_BUDGET} draws over F_{q} "
        f"(modulus too small for n={g.n}?)")


def sample_point(g: Dag, field: PrimeField, seed: int) -> SymPoint:
    """A random unit-diagonal point of the variety of ``g`` over F_q.

    Edge entries are drawn uniformly from F_q, non-edge entries are forced
    by the imposed relations, and the draw is rejected unless the result
    has nonzero principal minors: for n <= 14 all 2^n - 1 of them (see
    ``principal_minors_nonzero``), and for larger n the conditioning-set
    minors |sigma_KK| that appear as solve pivots (the product of those is
    an equally valid saturation locus). This is the point ``dagiso
    sample`` emits; the randomized tests draw theirs with ``_draw`` and
    reject only on the parent blocks their checks read.
    Deterministic given ``seed``, which must be an int (ParameterError
    otherwise: a float or bool seed would draw another stream).
    """
    check_all = g.n <= PRINCIPAL_MINOR_GUARD

    def complete(values):
        point = complete_point(g, values, field)
        if check_all and not principal_minors_nonzero(point):
            return None
        return point

    return _draw(g, field, seed, complete)


def on_variety(p: SymPoint, g: Dag) -> bool:
    """Whether every imposed minor of ``g`` vanishes at ``p``."""
    if p.n != g.n:
        raise CiError("point size does not match node count")
    zero = 0 if p.field is not None else Fraction(0)
    for m in imposed_minors(g):
        if minor_eval(p, m) != zero:
            return False
    return True


def _positions(g: Dag) -> List[int]:
    """The position of each node in ``g.order``."""
    at = [0] * g.n
    for x, i in enumerate(g.order):
        at[i] = x
    return at


def _unmade(g: Dag, made: Optional[Dag]):
    """The (i, K, cols) triples of ``g.plan`` whose minors may be
    nonzero at a point completed from ``made``; with ``made`` None, every
    node with its whole prefix in ``g.order``.

    A node i with the same K in ``made`` keeps only the columns j of its
    prefix in ``g.order`` that are descendants of i in ``made``, and is
    skipped when its prefix mask ANDed with its descendant mask
    (``made.descendant_masks``) is 0; a node whose parent sets differ
    keeps its whole prefix. Only the nodes kept list their columns.

    This is sound. For a non-descendant j of i in ``made`` that is not in
    K, |sigma_{iK,jK}| is a local Markov relation of ``made``: i is
    independent of its non-descendants given its parents, which is
    equivalent to the ordered Markov property (Lauritzen, Graphical
    Models, 1996, 3.2), so some topological order of ``made`` imposes the
    minor (Sullivant, Adv. Appl. Math. 2008). It vanishes on the model of
    ``made``, so it is zero as a rational function of the edge values
    (the argument of ``_OnDemandPoint``), and wherever ``complete_point``
    succeeds it is 0: it can never refute, and the check stays one-sided.
    At a parent j both sides of the check are sigma_ij. The columns before
    i in ``made.order``, whose minors the completion makes zero by
    construction, are non-descendants, so they are skipped too. A node
    skipped whole solves no block in the check, so a draw that is
    singular only on blocks no kept minor needs is kept: on demand, and
    also in full where such a block is that of a node with no earlier
    non-parent in ``made``, which ``complete_point`` does not solve.
    """
    order = g.order
    if made is None:
        return [(i, k, order[:pos]) for i, k, pos in g.plan]
    desc, pa = made.descendant_masks, made.parents
    before, seen = [], 0
    for j in order:  # before[pos] also holds order[pos], no descendant
        seen |= 1 << j
        before.append(seen)
    left = []
    for i, k, pos in g.plan:
        if pa[i] != k:
            left.append((i, k, order[:pos]))
        elif desc[i] & before[pos]:
            below = desc[i]
            left.append((i, k, tuple([j for j in order[:pos]
                                      if below >> j & 1])))
    return left


def _minors_vanish(p, left) -> bool:
    """Whether every imposed minor of the (i, K, cols) triples ``left``
    vanishes at the finite-field point ``p``: a ``SymPoint``, or an
    ``_OnDemandPoint`` drawn with ``_demand(g, left)``, which holds every
    entry read here. A singular block sigma_KK of ``left`` raises
    SingularPivotError; where every block of ``left = _unmade(g, None)``
    is nonsingular, it agrees with ``on_variety(p, g)``.

    Per node i, |sigma_{iK,jK}| = |sigma_KK| (sigma_ij - w . sigma_Kj)
    vanishes exactly when sigma_ij is the entry the sampler would force,
    so the node's row must equal ``_forced_entries`` over its columns (at
    a parent j both sides are sigma_ij), and the first node that differs
    rejects. The equivalence test runs this check inside its draw
    (``_draw``), so a singular block of ``left`` rejects the draw, as a
    singular solve pivot of the sampler does, and no answer is read off
    a singular block.

    With ``left = _unmade(g, made)`` for the graph ``made`` that ``p`` was
    drawn from, the minors that are local Markov relations of ``made``,
    and so 0 wherever its blocks are nonsingular, are skipped. A node
    with no column left costs no solve, so its block rejects no draw.
    """
    mat, q = p.mat, p.field.q
    for i, k, cols in left:
        if _forced_entries(mat, i, k, cols, q) != list(_getter(cols)(mat[i])):
            return False
    return True


def _demand(g: Dag, left=(), limit: Optional[int] = None):
    """The entries an on-demand point of ``g`` computes for the check
    ``_minors_vanish(p, left)``, given a point that holds only its edge
    entries before: as (i, cols) steps, earliest node in ``g.order``
    first, with cols the nodes before i there, in that order. They are
    every entry the check reads that is no edge (the edges are the only
    entries held before the steps), every entry those are forced from,
    and the block sigma_KK of the parents K of each i with a step, which
    its entries are solved through. None once they number ``limit`` or
    more.

    One loop runs from the latest position back, rather than a
    recursion, since the chain of entries one read needs can be as long
    as the graph. Over positions in ``g.order``, the entries of x read
    those of its parents t: at y < t in t's row, and at y > t in y's.
    The block of x lies before x too, so that one pass finds every step.
    """
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
    steps, count = [], 0
    for x in range(g.n - 1, 0, -1):
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
    return [(order[x], [order[y] for y in cols])
            for x, cols in reversed(steps)]


class _OnDemandPoint:
    """The entries of ``complete_point(g, edge_values, field)`` named by
    ``steps`` (see ``_demand``), from the same edge values. ``mat`` is a
    list of symmetric dict rows keyed by node, read like the rows of
    ``SymPoint.mat``: they hold the unit diagonal, the edge values mod q
    and, step by step, the node's ``_forced_entries`` at its columns, so
    the point holds only the entries one membership check reads, the
    entries those are forced from, and the parent blocks sigma_KK those
    are forced through; a read of any other entry is a KeyError. A
    singular one of these blocks raises SingularPivotError, as
    ``complete_point`` would on the same block, and rejects the draw; a
    block that no forced entry passes through is never solved, so a draw
    that ``complete_point`` rejects only on such a block is kept.
    ``_on_demand`` decides per check, at every n, whether that pays;
    otherwise the check reads the full ``complete_point``. Either way the
    check runs inside the draw (``_draw``), so a singular target block
    sigma_K'K' that it solves rejects the draw too.

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


def gaussian_ci(sigma: Sequence[Sequence[Element]], a: Iterable[int],
                b: Iterable[int], c: Iterable[int] = ()) -> bool:
    """Rank-based CI test on an exact symmetric rational matrix.

    True iff rank(sigma_{A+C, B+C}) equals rank(sigma_CC). Valid for
    singular (PSD) covariance matrices; positive semidefiniteness itself
    is assumed, not checked, but a non-square or non-symmetric ``sigma``,
    or an entry that is not an int or a Fraction, raises CiError.
    """
    a, b, c = (list(s) for s in (a, b, c))
    _require_ints(a + b + c, "node lists", CiError)
    a, b, c = sorted(a), sorted(b), sorted(c)
    n = len(sigma)
    _require_exact([x for row in sigma for x in row], "sigma entries",
                   CiError)
    sigma = [[Fraction(x) for x in row] for row in sigma]
    if any(len(row) != n for row in sigma):
        raise CiError("sigma must be a square matrix")
    if any(sigma[i][j] != sigma[j][i] for i in range(n) for j in range(i)):
        raise CiError("sigma must be symmetric")
    all_idx = a + b + c
    if len(set(a) | set(b) | set(c)) != len(a) + len(b) + len(c):
        raise CiError("A, B, C must be pairwise disjoint")
    if any(not (0 <= x < n) for x in all_idx):
        raise CiError(f"index out of range for n={n}")
    rows = a + c
    cols = b + c
    sub = [[sigma[r][c_] for c_ in cols] for r in rows]
    cc = [[sigma[r][c_] for c_ in c] for r in c]
    return _det_and_rank(sub)[1] == _det_and_rank(cc)[1]
