"""Points of the unit-diagonal DAG variety.

Covariance construction from structural-equation parameters, the
finite-field point sampler (draw edge entries, then solve each imposed
minor relation, which is linear in its one unknown non-edge entry),
exact membership checks, and the rank-based Gaussian CI test.

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ci import CiError, MinorSpec, TreeRelation, _node_plan, imposed_minors
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
    Fractions.
    """

    g: Dag
    alpha: Dict[Tuple[int, int], Fraction]
    omega: Dict[int, Fraction]

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
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "omega", omega)


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
    vectors, one comprehension per parent, rather than one dot product
    per entry.
    """
    if not k:
        return [0] * len(free)
    w = _solve_mod([[mat[r][c] for c in k] + [mat[r][i]] for r in k], q)
    pick = _getter(free)
    cols = [pick(mat[r]) for r in k]
    if len(k) == 1:
        a, = w
        return [a * x % q for x in cols[0]]
    if len(k) == 2:
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
    for i, k, pos in _node_plan(g):
        row, cols = mat[i], g.order[:pos]
        for j, x in zip(cols, _forced_entries(mat, i, k, cols, q)):
            row[j] = x
            mat[j][i] = x
    return SymPoint._trusted(field, mat)


_LEAF_ORDER = 4  # the largest order _leaf_minors writes out

# A symmetric matrix of order m is kept as its upper triangle, row-major:
# the m(m+1)/2 entries a_uv with u <= v. _ORDER maps that length back to
# m, and _SCHUR_PAIRS[m] lists (u, v) for each entry of the trailing
# block A[1:,1:] in the same layout, as positions in the top row A[0,1:].
_ORDER = {m * (m + 1) // 2: m for m in range(1, PRINCIPAL_MINOR_GUARD + 1)}
_SCHUR_PAIRS = {m: tuple((u, v) for u in range(m - 1) for v in range(u, m - 1))
                for m in range(_LEAF_ORDER + 1, PRINCIPAL_MINOR_GUARD + 1)}


def _leaf_minors(t: tuple) -> tuple:
    """All 1, 3, 7 or 15 principal minors of a symmetric matrix of order
    1 to 4, given as its flat upper triangle, as straight-line products."""
    if len(t) == 10:  # rows (a b c d), (e f g), (h i), (j)
        a, b, c, d, e, f, g, h, i, j = t
        ae, ah, aj = a * e - b * b, a * h - c * c, a * j - d * d
        eh, ej, hj = e * h - f * f, e * j - g * g, h * j - i * i
        # 2 x 2 minors off the diagonal, shared by the 3 x 3 cofactor
        # expansions and the 4 x 4 Laplace expansion along rows 0 and 1
        bf_ce, bg_de, cg_df = b * f - c * e, b * g - d * e, c * g - d * f
        fj_gi, fi_gh, cj_di = f * j - g * i, f * i - g * h, c * j - d * i
        ci_dh = c * i - d * h
        return (a, e, h, j, ae, ah, aj, eh, ej, hj,
                a * eh - b * (b * h - c * f) + c * bf_ce,
                a * ej - b * (b * j - d * g) + d * bg_de,
                a * hj - c * cj_di + d * ci_dh,
                e * hj - f * fj_gi + g * fi_gh,
                ae * hj - (a * f - b * c) * fj_gi + (a * g - b * d) * fi_gh
                + bf_ce * cj_di - bg_de * ci_dh + cg_df * cg_df)
    if len(t) == 6:  # rows (a b c), (d e), (f)
        a, b, c, d, e, f = t
        df = d * f - e * e
        return (a, d, f, a * d - b * b, a * f - c * c, df,
                a * df - b * (b * f - c * e) + c * (b * e - c * d))
    if len(t) == 3:
        a, b, c = t
        return (a, c, a * c - b * b)
    return t


def principal_minors_nonzero(p: SymPoint) -> bool:
    """Whether all 2^n - 1 principal minors of ``p`` are nonzero.

    Walks the tree of Griffin and Tsatsomeros ("Principal minors, Part
    I", LAA 2006) depth first: a matrix A contributes its pivot a_00 and
    two children, the trailing block A[1:,1:] and the Schur complement
    S = A[1:,1:] - A[1:,0] A[0,1:] / a_00. The principal minors of A
    are those of A[1:,1:] and a_00 times those of S, so every one is
    nonzero exactly when a_00 is and every one of both children is. This
    costs O(2^n) entry updates rather than one elimination per minor.

    Schur complements of a symmetric matrix stay symmetric, so each node
    is one flat upper triangle (see ``_ORDER``), and its trailing block
    is the tail of that tuple. Over F_q the Schur child is kept as
    a_00 S = a_00 A[1:,1:] - A[1:,0] A[0,1:], which needs no inverse:
    its order-k principal minors are a_00^k times those of S, so each is
    zero exactly when that of S is. Over Q the child is S itself, because
    Fractions would double in size at each level without the division.
    Nodes of order <= 4 test their minors in closed form.
    Guarded to n <= 14; above that the sampler enforces only its solve
    pivots.
    """
    n = p.n
    if n > PRINCIPAL_MINOR_GUARD:
        raise FieldArithmeticError(
            f"principal-minor enumeration needs n <= {PRINCIPAL_MINOR_GUARD}")
    q = p.field.q if p.field is not None else None
    stack = [tuple(x for i, r in enumerate(p.mat) for x in r[i:])]
    while stack:
        t = stack.pop()
        m = _ORDER[len(t)]
        if m <= _LEAF_ORDER:
            minors = _leaf_minors(t)
            if not all(minors if q is None else map(q.__rmod__, minors)):
                return False
            continue
        a00 = t[0]
        if not a00:
            return False
        top, trail = t[1:m], t[m:]
        if q is None:
            f = [x / a00 for x in top]
            schur = tuple([x - f[u] * top[v]
                           for x, (u, v) in zip(trail, _SCHUR_PAIRS[m])])
        else:
            schur = tuple([(a00 * x - top[u] * top[v]) % q
                           for x, (u, v) in zip(trail, _SCHUR_PAIRS[m])])
        stack.append(trail)
        stack.append(schur)
    return True


def sample_point(g: Dag, field: PrimeField, seed: int) -> SymPoint:
    """A random unit-diagonal point of the variety of ``g`` over F_q.

    Edge entries are drawn uniformly from F_q, non-edge entries are forced
    by the imposed relations, and the draw is rejected unless the result
    has nonzero principal minors: all 2^n - 1 of them for n <= 14, and for
    larger n the conditioning-set minors |sigma_KK| that appear as solve
    pivots (the product of those is an equally valid saturation locus).
    Deterministic given ``seed``, which must be an int (ParameterError
    otherwise: a float or bool seed would draw another stream).
    """
    _require_ints([seed], "seed", ParameterError)
    if not isinstance(field, PrimeField):
        raise FieldArithmeticError(f"not a PrimeField: {field!r}")
    rng = random.Random(_derive_seed("edges", seed))
    q = field.q
    edges = g.sorted_edges()
    check_all = g.n <= PRINCIPAL_MINOR_GUARD
    for _ in range(RESAMPLE_BUDGET):
        values = {e: rng.randrange(q) for e in edges}
        try:
            point = complete_point(g, values, field)
        except SingularPivotError:
            continue
        if not check_all or principal_minors_nonzero(point):
            return point
    raise SamplerError(
        f"no admissible point in {RESAMPLE_BUDGET} draws over F_{q} "
        f"(modulus too small for n={g.n}?)")


def on_variety(p: SymPoint, g: Dag) -> bool:
    """Whether every imposed minor of ``g`` vanishes at ``p``."""
    if p.n != g.n:
        raise CiError("point size does not match node count")
    zero = 0 if p.field is not None else Fraction(0)
    for m in imposed_minors(g):
        if minor_eval(p, m) != zero:
            return False
    return True


def _unmade(g: Dag, made: Optional[Dag]):
    """The (i, K, cols) triples of ``_node_plan(g)`` whose minors may be
    nonzero at a point completed from ``made``; with ``made`` None, every
    node with its whole prefix in ``g.order``.

    ``complete_point`` sets sigma_ij = w . sigma_Kj for each j before a
    node i of ``made``, from the same sigma_KK, sigma_Ki and sigma_Kj that
    the point ends with, so |sigma_{iK,jK}| is exactly 0 there. A node
    with the same K in ``made`` therefore keeps only the columns j of its
    prefix in ``g.order`` that come after i in ``made.order``. It keeps
    one exactly when the largest ``made`` position over that prefix,
    ``reach[pos]``, a running maximum along ``g.order``, exceeds its own.
    """
    order = g.order
    plan = _node_plan(g)
    if made is None:
        return [(i, k, order[:pos]) for i, k, pos in plan]
    at = [0] * g.n
    for x, i in enumerate(made.order):
        at[i] = x
    reach = list(accumulate((at[j] for j in order), max, initial=-1))
    left = []
    for i, k, pos in plan:
        if made.parents[i] != k:
            left.append((i, k, order[:pos]))
        elif reach[pos] > at[i]:
            at_i = at[i]
            left.append((i, k, tuple([j for j in order[:pos]
                                      if at[j] > at_i])))
    return left


def _minors_vanish(p: SymPoint, g: Dag, made: Optional[Dag] = None) -> bool:
    """Whether every imposed minor of ``g`` vanishes at the finite-field
    point ``p``; agrees with ``on_variety``.

    Per node i, |sigma_{iK,jK}| = |sigma_KK| (sigma_ij - w . sigma_Kj)
    vanishes exactly when sigma_ij is the entry the sampler would force,
    so the node's row must equal ``_forced_entries`` over its prefix (at
    a parent j both sides are sigma_ij), and the first node that differs
    rejects. A singular sigma_KK (off the sampler's locus, but possible
    for a point of another graph) evaluates that node's minors in full
    instead, at its non-parent columns.

    ``made`` is the graph that ``complete_point`` completed ``p`` from.
    The minors that completion made zero by construction are skipped
    (see ``_unmade``), and a node with no column left costs no solve.
    """
    mat, q, ident = p.mat, p.field.q, range(p.n)
    for i, k, cols in _unmade(g, made):
        try:
            forced = _forced_entries(mat, i, k, cols, q)
        except SingularPivotError:
            if any(_det_mod((i, *k), (j, *k), mat, ident, q)
                   for j in cols if j not in k):
                return False
            continue
        if forced != list(_getter(cols)(mat[i])):
            return False
    return True


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
