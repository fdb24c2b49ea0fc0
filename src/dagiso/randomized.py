"""Randomized isomorphism and Markov-equivalence tests with exact
failure-probability certificates.

Per round, a fresh point is sampled from the first graph's variety over
F_q and tested for membership in the second variety, after a permutation
of indices (isomorphism) or directly (equivalence); only when it passes is
a point of the second graph drawn and tested the other way. Membership
of a variety point in the wrong variety requires hitting the root set of a
nonzero polynomial, so the tests are one-sided: graphs that really are
isomorphic (equivalent) are never rejected, and the false-accept
probability decays with the modulus and the round count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .ci import _node_plan
from .dag import (Dag, DagError, Permutation, _first_permutation,
                  _require_exact, _require_ints)
from .fields import MERSENNE31, FieldArithmeticError, PrimeField, _det_mod
from .points import (ParameterError, SymPoint, _derive_seed, _minors_vanish,
                     sample_point)

ISO_NODE_GUARD = 10  # factorial witness search; equivalence has no such cap


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
    Fraction."""
    _require_ints([n, edges], "n and edges", ParameterError)
    _require_exact([target_eps], "target_eps", ParameterError)
    if n < 1 or not 0 <= edges <= n * (n - 1) // 2:
        raise ParameterError("need n >= 1 and 0 <= edges <= n(n-1)/2, got "
                             f"n={n}, edges={edges}")
    eps = Fraction(target_eps)
    if eps <= 0:
        raise ParameterError(f"target_eps must be positive, got {eps}")
    if eps >= 1:
        return IsoParams(m=1, q=q, seed=seed)
    base = failure_bound(n, _degree_bound(n, edges, edges), q, 1,
                         with_permutations)
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


class _WitnessTarget:
    """The per-target set-up of the witness search: node count, skeleton
    degrees, and for every index v the (index bitmask, minor) pairs of the
    imposed minors that involve v, cheap minors first."""

    __slots__ = ("n", "degrees", "by_index")

    def __init__(self, target: Dag):
        # the imposed minors |sigma_{iK,jK}|, in the order of imposed_minors
        minors = [((i, *k), (j, *k)) for i, k, pos in _node_plan(target)
                  for j in target.order[:pos] if j not in k]
        minors.sort(key=lambda rc: len(rc[0]))  # cheap minors refute first
        self.n = n = target.n
        self.degrees = target.skeleton_degrees()
        self.by_index: List[list] = [[] for _ in range(n)]
        for rc in minors:
            support = {*rc[0], *rc[1]}
            mask = sum(1 << x for x in support)
            for x in support:
                self.by_index[x].append((mask, rc))


def perm_witness(z: SymPoint, target: Union[Dag, _WitnessTarget],
                 source_degrees: Optional[Sequence[int]] = None
                 ) -> Optional[Permutation]:
    """First permutation (deterministic lexicographic order) whose action
    on the rows/columns of ``z`` lands on the variety of ``target``.

    ``target`` is a Dag, or its ``_WitnessTarget`` set-up built once for
    repeated searches. When ``source_degrees`` (skeleton degrees of the
    graph ``z`` was sampled from) is given, candidates are restricted to
    skeleton-degree compatible maps; this prunes the n! search without
    changing answers. Each imposed minor of ``target`` is evaluated as
    soon as all its row and column indices have preimages, so a nonzero
    minor cuts off every completion of the prefix at once.
    """
    if not isinstance(target, _WitnessTarget):
        target = _WitnessTarget(target)
    if z.n != target.n:
        raise DagError("point size does not match target node count")
    if z.field is None:
        raise FieldArithmeticError("witness search expects a finite-field point")
    colors = (source_degrees, target.degrees)
    if source_degrees is None:  # uncoloured: every permutation is a candidate
        colors = ([0] * target.n,) * 2
    elif len(source_degrees) != target.n:
        raise DagError("source degrees do not match target node count")
    return _first_permutation(
        *colors, functools.partial(_lands_on, z.mat, target.by_index,
                                   z.field.q))


def _refuted(mode: str, g: Dag, g2: Dag,
             params: IsoParams) -> Tuple[IsoVerdict, PrimeField]:
    """The no verdict of a precheck, which ``_rounds`` amends into its
    answer, and the field F_q. The certificate is computed here at the
    pair's degree d and the field is built here, so q <= d raises
    ParameterError, and a q that is not a prime FieldArithmeticError,
    before any precheck can answer."""
    d = degree_surrogate(g, g2)
    no = IsoVerdict(
        answer="no", mode=mode, n=g.n, rounds_run=0, witnesses=None,
        refuting_round=0, d_bound=d, params=params,
        failure_bound=failure_bound(g.n, d, params.q, params.m,
                                    with_permutations=(mode == "isomorphism")))
    return no, PrimeField(params.q)


def _rounds(g: Dag, g2: Dag, no: IsoVerdict, field: PrimeField,
            witness: Callable[[SymPoint, Dag, Dag], Optional[Permutation]]
            ) -> IsoVerdict:
    """Per round, sample a fresh point of ``g`` and ask ``witness(z, g,
    g2)`` for a relabeling carrying it onto the variety of ``g2``; only
    when there is one, sample a point of ``g2`` and ask the same backward. A yes needs both in every round.
    Each point has its own seed, so the points drawn are the same
    whether or not a refuted round skips the second. ``no`` is the
    precheck verdict to amend."""
    params = no.params
    witnesses = []
    for r in range(1, params.m + 1):
        z_g = sample_point(g, field, _derive_seed(params.seed, r, "a"))
        fwd = witness(z_g, g, g2)
        bwd = None
        if fwd is not None:
            z_g2 = sample_point(g2, field, _derive_seed(params.seed, r, "b"))
            bwd = witness(z_g2, g2, g)
        if bwd is None:
            return replace(no, rounds_run=r, refuting_round=r)
        witnesses.append((fwd, bwd))
    return replace(no, answer="yes", rounds_run=params.m,
                   witnesses=tuple(witnesses), refuting_round=None)


def isomorphism_test(g: Dag, g2: Dag,
                     params: Optional[IsoParams] = None) -> IsoVerdict:
    """Randomized model-isomorphism decision.

    Prechecks: unequal node counts refute immediately; unequal edge counts
    refute because the varieties then differ in dimension. Per round, a
    fresh point is sampled from ``g`` and a permutation witness onto
    ``g2`` is searched; only when one is found is a point of ``g2``
    sampled and searched backward. A yes answer requires every round to
    produce both witnesses. Isomorphic inputs always answer yes.
    """
    no, field = _refuted("isomorphism", g, g2, params or default_params(g, g2))
    if g.n != g2.n:
        return no
    if g.n > ISO_NODE_GUARD:
        raise ParameterError(
            f"isomorphism test searches permutations; needs n <= {ISO_NODE_GUARD}")
    if g.num_edges != g2.num_edges:
        return no
    targets = {h: _WitnessTarget(h) for h in (g, g2)}
    return _rounds(g, g2, no, field, lambda z, source, target: perm_witness(
        z, targets[target], source_degrees=targets[source].degrees))


def equivalence_test(g: Dag, g2: Dag,
                     params: Optional[IsoParams] = None) -> IsoVerdict:
    """Randomized Markov-equivalence decision: the permutation-free
    variant (identity relabeling only), with no factorial component, so it
    scales to hundreds of nodes. Equivalent inputs always answer yes.

    Per round, a point of ``g`` is checked against the imposed minors of
    ``g2``, and only when they all vanish is a point of ``g2`` drawn and
    checked against ``g``. Each check skips the minors that the
    completion of its point made zero by construction: those of a node
    with the same parent set K in both graphs, at columns that are
    earlier non-parents of the node in the source's order too (see
    ``_unmade``). They cannot refute, so the verdict is the same as with
    every minor evaluated.
    """
    no, field = _refuted("equivalence", g, g2, params or default_params(g, g2))
    if g.n != g2.n:
        return no
    ident_perm = Permutation.identity(g.n)

    def witness(z: SymPoint, source: Dag, target: Dag):
        return ident_perm if _minors_vanish(z, target, source) else None

    return _rounds(g, g2, no, field, witness)
