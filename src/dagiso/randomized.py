"""Randomized isomorphism and Markov-equivalence tests with exact
failure-probability certificates.

Per round, a fresh point is sampled from the first graph's variety over
F_q and tested for membership in the second variety, after a permutation
of indices (isomorphism) or directly (equivalence); only when it passes is
a point of the second graph drawn and tested the other way. Membership
of a variety point in the wrong variety requires hitting the root set of a
nonzero polynomial, so the tests are one-sided: graphs that really are
isomorphic (equivalent) are never rejected, and the false-accept
probability decays with the modulus and the round count. Each check runs
inside its draw, and a parent block it reads that is singular rejects
the draw; no principal minor is screened.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .dag import (Dag, DagError, Permutation, _first_permutation,
                  _require_exact, _require_ints)
from .fields import MERSENNE31, FieldArithmeticError, PrimeField, _det_mod
from .points import (ParameterError, SymPoint, _OnDemandPoint,
                     _derive_seed, _draw, _minors_vanish, _on_demand,
                     _unmade, complete_point)

# The witness search is factorial in the worst case: disjoint triangles,
# where every node has the same refined colour. n = 12 keeps every pair of
# BENCH_witness_colours.json under 5 s; at n = 13 a pair took 10 s.
# Equivalence has no such cap.
ISO_NODE_GUARD = 12


@dataclass(frozen=True)
class IsoParams:
    """Round count m, prime modulus q and master seed. The degree in the
    certificate is not a parameter: each test derives it from its pair."""

    m: int
    q: int
    seed: int

    def __post_init__(self):
        _require_ints([self.m, self.q, self.seed], "m, q and seed",
                      ParameterError)
        if self.m < 1:
            raise ParameterError(f"need m >= 1, got m={self.m}")


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of a randomized test, with its audit trail.

    ``witnesses`` holds one (forward, backward) permutation pair per round
    on a yes answer; ``refuting_round`` is the 1-based failing round on a
    no answer (0 when a deterministic precheck refuted before sampling).
    ``failure_bound`` is the exact rational certificate on the false-accept
    probability, at the degree ``d_bound = degree_surrogate(g, g2)`` of
    the pair; it is heuristic in that this degree is a documented
    surrogate, and it is flagged vacuous when >= 1.
    """

    answer: str
    mode: str
    n: int
    rounds_run: int
    witnesses: Optional[Tuple[Tuple[Permutation, Permutation], ...]]
    refuting_round: Optional[int]
    failure_bound: Fraction
    d_bound: int
    params: IsoParams

    @property
    def accepted(self) -> bool:
        return self.answer == "yes"

    @property
    def bound_vacuous(self) -> bool:
        return self.failure_bound >= 1

    def to_json_dict(self) -> dict:
        return {
            "answer": self.answer,
            "mode": self.mode,
            "n": self.n,
            "rounds_run": self.rounds_run,
            "witnesses": None if self.witnesses is None else [
                {"forward": list(f.mapping), "backward": list(b.mapping)}
                for f, b in self.witnesses],
            "refuting_round": self.refuting_round,
            "certificate": {
                "failure_bound": f"{self.failure_bound.numerator}"
                                 f"/{self.failure_bound.denominator}",
                "failure_bound_float": float(self.failure_bound),
                "vacuous": self.bound_vacuous,
                "heuristic": True,
            },
            "params": {"m": self.params.m, "q": self.params.q,
                       "d_bound": self.d_bound,
                       "seed": self.params.seed},
        }


def degree_surrogate(g: Dag, g2: Dag) -> int:
    """Conservative stand-in for the degree of the sampler's excluded
    locus: the total degree of both graphs' conditioning-set principal
    minors (= parent-set sizes summed = edge counts) plus 2n slack for
    the completion denominators.
    """
    return _degree_bound(g.n, g.num_edges, g2.num_edges)


def _degree_bound(n: int, edges: int, edges2: int) -> int:
    return edges + edges2 + 2 * n


def default_params(g: Dag, g2: Dag, m: int = 3, q: int = MERSENNE31,
                   seed: int = 0) -> IsoParams:
    """IsoParams(m, q, seed); both graphs are ignored."""
    return IsoParams(m=m, q=q, seed=seed)


def failure_bound(n: int, d_bound: int, q: int, m: int,
                  with_permutations: bool = True) -> Fraction:
    """Exact false-accept certificate (n! (n+2d-1) / (q-d))^m, without the
    n! factor for the permutation-free equivalence variant. Raises
    ParameterError unless n >= 1, m >= 1 and 0 <= d_bound < q, in ints."""
    _require_ints([n, m, q, d_bound], "n, m, q and d_bound", ParameterError)
    if n < 1:
        raise ParameterError(f"need n >= 1, got n={n}")
    if m < 1 or not 0 <= d_bound < q:
        raise ParameterError("need m >= 1 and 0 <= d_bound < q, got "
                             f"m={m}, q={q}, d_bound={d_bound}")
    num = n + 2 * d_bound - 1
    if with_permutations:
        num *= math.factorial(n)
    return Fraction(num, q - d_bound) ** m


def choose_params(n: int, edges: int, target_eps: Fraction,
                  q: int = MERSENNE31, seed: int = 0,
                  with_permutations: bool = True) -> IsoParams:
    """Smallest round count m whose certificate meets ``target_eps`` at
    modulus q for two graphs on n nodes with at most ``edges`` edges each;
    ``with_permutations`` as in ``failure_bound`` (False for the
    equivalence test). Raises ParameterError unless n >= 1 and
    0 <= edges <= n(n-1)/2, in ints, and ``target_eps`` is an int or a
    Fraction; then, as the tests do, ParameterError unless q exceeds the
    degree bound and FieldArithmeticError unless q is a prime."""
    _require_ints([n, edges], "n and edges", ParameterError)
    _require_exact([target_eps], "target_eps", ParameterError)
    if n < 1 or not 0 <= edges <= n * (n - 1) // 2:
        raise ParameterError("need n >= 1 and 0 <= edges <= n(n-1)/2, got "
                             f"n={n}, edges={edges}")
    eps = Fraction(target_eps)
    if eps <= 0:
        raise ParameterError(f"target_eps must be positive, got {eps}")
    base = failure_bound(n, _degree_bound(n, edges, edges), q, 1,
                         with_permutations)
    PrimeField(q)  # FieldArithmeticError unless q is a prime
    if eps >= 1:
        return IsoParams(m=1, q=q, seed=seed)
    if base >= 1:
        raise ParameterError(
            f"single-round bound {base} >= 1 at q={q}; pick a larger modulus")
    m = 1
    bound = base
    while bound > eps:
        m += 1
        bound *= base
    return IsoParams(m=m, q=q, seed=seed)


def _lands_on(mat, by_index, q: int, image: List[int], inv: Sequence[int],
              done: int) -> bool:
    """Whether the point ``mat`` relabeled through the inverse index map
    ``inv`` kills every (index bitmask, (rows, cols)) minor of
    ``by_index[v]``, for the last image v, whose indices all lie in the
    mapped-image bitmask ``done``."""
    for mask, (rows, cols) in by_index[image[-1]]:
        if mask & done == mask and _det_mod(rows, cols, mat, inv, q):
            return False
    return True


def perm_witness(z: SymPoint, target: Dag, source: Optional[Dag] = None
                 ) -> Optional[Permutation]:
    """First permutation (deterministic lexicographic order) whose action
    on the rows/columns of ``z`` lands on the variety of ``target``.

    Each imposed minor of the Dag ``target`` (``Dag.minors_by_index``,
    built once per graph) is evaluated as soon as all its row and column
    indices have preimages, so a nonzero minor cuts off every completion
    of the prefix at once.

    ``source`` is the Dag ``z`` was sampled from. When given, only maps
    carrying each node's refined pattern colour (``Dag.colours``) of
    ``source`` onto the same colour of ``target`` are candidates, and
    unequal colour multisets answer None before any minor is evaluated;
    that check serves direct callers, since ``isomorphism_test`` refutes
    such a pair before it draws. This is sound: every model isomorphism
    of the two graphs is a pattern isomorphism, so it keeps the refined
    colours, and it carries every point in the image of the source's
    parametrization into the target's image. A point that
    ``_checked_witness`` accepts is in that image, so an isomorphic pair
    still finds a witness in every round, and a search that finds none
    refutes. The candidates are a subset of the n! relabelings, so the n!
    certificate stays valid. Without ``source`` every relabeling is a
    candidate; that uncoloured search is the independent referee of the
    coloured one.
    """
    if not isinstance(target, Dag):
        raise DagError(f"target must be a Dag, got {type(target).__name__}")
    if z.n != target.n:
        raise DagError("point size does not match target node count")
    if z.field is None:
        raise FieldArithmeticError("witness search expects a finite-field point")
    if source is None:  # uncoloured: every permutation is a candidate
        colours = ([0] * target.n,) * 2
    elif not isinstance(source, Dag):
        raise DagError(f"source must be a Dag, got {type(source).__name__}")
    elif source.n != target.n:
        raise DagError("source node count does not match target")
    else:
        colours = (source.colours, target.colours)
    return _first_permutation(
        *colours, functools.partial(_lands_on, z.mat,
                                    target.minors_by_index, z.field.q))


def _refuted(mode: str, g: Dag, g2: Dag,
             params: Optional[IsoParams]) -> Tuple[IsoVerdict, PrimeField]:
    """The no verdict of a precheck, which ``_rounds`` amends into its
    answer, and the field F_q. A graph that is not a Dag raises DagError,
    and ``params`` that are neither None (the defaults) nor an IsoParams
    ParameterError. The certificate is computed here at the pair's
    degree d and the field is built here, so q <= d raises
    ParameterError, and a q that is not a prime FieldArithmeticError,
    before any precheck can answer."""
    if not isinstance(g, Dag) or not isinstance(g2, Dag):
        raise DagError(f"{mode} test needs two Dags, got {type(g).__name__}"
                       f" and {type(g2).__name__}")
    if params is None:
        params = default_params(g, g2)
    elif not isinstance(params, IsoParams):
        raise ParameterError(f"params must be an IsoParams, got {params!r}")
    d = degree_surrogate(g, g2)
    no = IsoVerdict(
        answer="no", mode=mode, n=g.n, rounds_run=0, witnesses=None,
        refuting_round=0, d_bound=d, params=params,
        failure_bound=failure_bound(g.n, d, params.q, params.m,
                                    with_permutations=(mode == "isomorphism")))
    return no, PrimeField(params.q)


def _rounds(g: Dag, g2: Dag, no: IsoVerdict,
            witness: Callable[[Dag, Dag, int], Optional[Permutation]]
            ) -> IsoVerdict:
    """Per round, ask ``witness(g, g2, seed)`` to draw a point of ``g``
    from ``seed`` and find a relabeling carrying it onto the variety of
    ``g2``; only when there is one, ask the same backward from a point of
    ``g2``. A yes needs both in every round. Each point has its own seed,
    so the points drawn are the same whether or not a refuted round
    skips the second. ``no`` is the precheck verdict to amend."""
    params = no.params
    witnesses = []
    for r in range(1, params.m + 1):
        fwd = witness(g, g2, _derive_seed(params.seed, r, "a"))
        bwd = None
        if fwd is not None:
            bwd = witness(g2, g, _derive_seed(params.seed, r, "b"))
        if bwd is None:
            return replace(no, rounds_run=r, refuting_round=r)
        witnesses.append((fwd, bwd))
    return replace(no, answer="yes", rounds_run=params.m,
                   witnesses=tuple(witnesses), refuting_round=None)


def _checked_witness(z: SymPoint, source: Dag, target: Dag):
    """The isomorphism test's check of a point ``z`` completed from the
    Dag ``source``, run inside its draw (``_draw``): None, which rejects
    the draw, when a parent block sigma_KK of the source, or of the Dag
    ``target`` at the preimages of the first witness (``perm_witness``),
    is singular at z; else that witness, or False when there is none.

    It rests on the parent-block lemma. Over any field, let Sigma be a
    symmetric matrix at which every imposed minor of a DAG G vanishes and
    every parent block Sigma_KK of G is nonsingular. Then Sigma is in the
    image of G's parametrization. Proof: number the nodes in a
    topological order of G. For node i with K = pa(i), set
    lambda_i = Sigma_KK^-1 sigma_Ki, the weights of i's edges, and let
    B = I - Lambda, where column i of Lambda holds lambda_i at the rows
    K. For j < i not in K, the imposed minor
    |sigma_{iK,jK}| = |Sigma_KK| (sigma_ji - sigma_jK lambda_i) is zero,
    so sigma_ji = sigma_jK lambda_i; for j in K this is the row j of
    Sigma_KK lambda_i = sigma_Ki. So (Sigma B)_ji = sigma_ji -
    sigma_jK lambda_i = 0 for every j < i: Sigma B is zero above the
    diagonal. B^T is lower triangular, so B^T Sigma B is zero above the
    diagonal too, and being symmetric it is a diagonal Omega. B is
    unitriangular, so Sigma = B^-T Omega B^-1, the covariance of G's
    structural equations with edge weights Lambda and innovation
    variances diag(Omega), zero allowed. ``tests/test_theorem.py``
    checks the lemma exhaustively over F_3 and F_5 for n <= 4.

    The check is one-sided. An accepted z has nonsingular source blocks,
    so z is in the source's image. A model isomorphism sigma keeps the
    refined colours and carries z into the target's image, so the search
    always finds some pi. The draw is rejected, rather than pi skipped,
    because sigma^-1(K') need not be a source parent set: the blocks that
    sigma maps can be singular, and skipping pi could then answer no on
    an isomorphic pair. A witness pi gives pi(z) on the target's
    imposed-minor variety with nonsingular target blocks, so pi(z) is in
    the target's image.

    Every block read here is a principal minor of z of order at most the
    largest parent-set size r over both graphs, so a draw whose minors of
    order <= r are all nonzero is accepted with the same witness.
    """
    mat, q = z.mat, z.field.q
    if not all(_det_mod(k, k, mat, range(z.n), q)
               for k in source.parents if len(k) > 1):
        return None
    pi = perm_witness(z, target, source)
    if pi is None:
        return False
    inverse = pi.inverse().mapping
    if not all(_det_mod(k, k, mat, inverse, q)
               for k in target.parents if len(k) > 1):
        return None
    return pi


def isomorphism_test(g: Dag, g2: Dag,
                     params: Optional[IsoParams] = None) -> IsoVerdict:
    """Randomized model-isomorphism decision.

    Prechecks: unequal node counts refute immediately; unequal edge counts
    refute because the varieties then differ in dimension; unequal
    multisets of refined colours (``Dag.colours``) refute because a model
    isomorphism is a pattern isomorphism, which keeps them. Each answers
    no with ``rounds_run`` 0 before any set-up or draw. Per round, a
    fresh point is sampled from ``g`` and a permutation witness onto
    ``g2`` is searched; only when one is found is a point of ``g2``
    sampled and searched backward. A yes answer requires every round to
    produce both witnesses. Isomorphic inputs always answer yes. No
    principal minor is screened: a singular parent block rejects the
    draw (``_checked_witness``, which proves this sound).
    """
    no, field = _refuted("isomorphism", g, g2, params)
    if g.n != g2.n:
        return no
    if g.n > ISO_NODE_GUARD:
        raise ParameterError(
            f"isomorphism test searches permutations; needs n <= {ISO_NODE_GUARD}")
    if g.num_edges != g2.num_edges or sorted(g.colours) != sorted(g2.colours):
        return no

    def witness(source: Dag, target: Dag, seed: int):
        return _draw(source, field, seed, lambda values: _checked_witness(
            complete_point(source, values, field), source, target)) or None

    return _rounds(g, g2, no, witness)


def equivalence_test(g: Dag, g2: Dag,
                     params: Optional[IsoParams] = None) -> IsoVerdict:
    """Randomized Markov-equivalence decision: the permutation-free
    variant (identity relabeling only), with no factorial component, so it
    scales to hundreds of nodes. Equivalent inputs always answer yes.

    Per round, a point of ``g`` is checked against the imposed minors of
    ``g2``, and only when they all vanish is a point of ``g2`` drawn and
    checked against ``g``. Each check skips the minors that are local
    Markov relations of its source: those of a node with the same parent
    set K in both graphs, at columns that are non-descendants of the node
    in the source (see ``_unmade``). They are 0 wherever the source's
    blocks are nonsingular, so they cannot refute: wherever the check of
    every minor answers on a completed point, the answer is the same.
    There is one draw at every n: per check,
    ``_on_demand`` picks the full ``complete_point`` or, for a check that
    reads few entries, an ``_OnDemandPoint`` that holds only the entries
    the check reads, those they are forced from and the parent blocks
    those pass through. The check runs inside the draw (``_draw``), so a
    singular block that it solves, a source pivot or a target block
    sigma_K'K' of a node it checks, rejects the draw and another is
    drawn. No principal minor is screened: the check stays one-sided
    (see ``_OnDemandPoint``), and it never answers on a singular block.
    """
    no, field = _refuted("equivalence", g, g2, params)
    if g.n != g2.n:
        return no
    ident_perm = Permutation.identity(g.n)

    def witness(source: Dag, target: Dag, seed: int):
        left = _unmade(target, source)
        steps = _on_demand(source, left)

        def check(values):
            z = (complete_point(source, values, field) if steps is None
                 else _OnDemandPoint(source, values, field, steps))
            return _minors_vanish(z, left)

        return ident_perm if _draw(source, field, seed, check) else None

    return _rounds(g, g2, no, witness)
