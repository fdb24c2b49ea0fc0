"""Randomized isomorphism and Markov-equivalence tests with exact
failure-probability certificates.

Per round, a fresh point is sampled from each graph's variety over F_q and
each point is tested for membership in the other variety, after a
permutation of indices (isomorphism) or directly (equivalence). Membership
of a variety point in the wrong variety requires hitting the root set of a
nonzero polynomial, so the tests are one-sided: graphs that really are
isomorphic (equivalent) are never rejected, and the false-accept
probability decays with the modulus and the round count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .ci import NodePlan, _node_plan
from .dag import (Dag, DagError, Permutation, _first_permutation,
                  _require_ints)
from .fields import MERSENNE31, FieldArithmeticError, PrimeField, _det_mod
from .points import SymPoint, _derive_seed, _minors_vanish, sample_point

ISO_NODE_GUARD = 10  # factorial witness search; equivalence has no such cap


class ParameterError(ValueError):
    """Unusable test parameters."""


@dataclass(frozen=True)
class IsoParams:
    """Round count m, prime modulus q, degree surrogate, master seed."""

    m: int
    q: int
    d_bound: int
    seed: int

    def __post_init__(self):
        _require_ints([self.seed], "seed", ParameterError)
        _check_rounds(self.m, self.q, self.d_bound)


def _check_rounds(m: int, q: int, d_bound: int) -> None:
    """Raise ParameterError unless m >= 1 and 0 <= d_bound < q, in ints."""
    _require_ints([m, q, d_bound], "m, q and d_bound", ParameterError)
    if m < 1 or not 0 <= d_bound < q:
        raise ParameterError("need m >= 1 and 0 <= d_bound < q, got "
                             f"m={m}, q={q}, d_bound={d_bound}")


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of a randomized test, with its audit trail.

    ``witnesses`` holds one (forward, backward) permutation pair per round
    on a yes answer; ``refuting_round`` is the 1-based failing round on a
    no answer (0 when a deterministic precheck refuted before sampling).
    ``failure_bound`` is the exact rational certificate on the false-accept
    probability; it is heuristic in that the degree entering it is a
    documented surrogate, and it is flagged vacuous when >= 1.
    """

    answer: str
    mode: str
    n: int
    rounds_run: int
    witnesses: Optional[Tuple[Tuple[Permutation, Permutation], ...]]
    refuting_round: Optional[int]
    failure_bound: Fraction
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
                       "d_bound": self.params.d_bound,
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
    return IsoParams(m=m, q=q, d_bound=degree_surrogate(g, g2), seed=seed)


def failure_bound(n: int, d_bound: int, q: int, m: int,
                  with_permutations: bool = True) -> Fraction:
    """Exact false-accept certificate (n! (n+2d-1) / (q-d))^m, without the
    n! factor for the permutation-free equivalence variant."""
    _check_rounds(m, q, d_bound)
    num = n + 2 * d_bound - 1
    if with_permutations:
        num *= math.factorial(n)
    return Fraction(num, q - d_bound) ** m


def choose_params(n: int, edges: int, target_eps: Fraction,
                  q: int = MERSENNE31, seed: int = 0) -> IsoParams:
    """Smallest round count m whose certificate meets ``target_eps`` at
    modulus q, with the degree surrogate for two graphs of the given size."""
    eps = Fraction(target_eps)
    if eps <= 0:
        raise ParameterError(f"target_eps must be positive, got {eps}")
    d = _degree_bound(n, edges, edges)
    if eps >= 1:
        return IsoParams(m=1, q=q, d_bound=d, seed=seed)
    base = failure_bound(n, d, q, 1)
    if base >= 1:
        raise ParameterError(
            f"single-round bound {base} >= 1 at q={q}; pick a larger modulus")
    m = 1
    bound = base
    while bound > eps:
        m += 1
        bound *= base
    return IsoParams(m=m, q=q, d_bound=d, seed=seed)


def _lands_on(mat, inv: Sequence[int], minors, done: int, q: int) -> bool:
    """Whether the point ``mat`` relabeled through the inverse index map
    ``inv`` kills every (index bitmask, (rows, cols)) minor of ``minors``
    whose indices all lie in the mapped-image bitmask ``done``."""
    for mask, (rows, cols) in minors:
        if mask & done == mask and _det_mod(rows, cols, mat, inv, q):
            return False
    return True


class _WitnessTarget:
    """The per-target set-up of the witness search: node count, skeleton
    degrees, node plan, and for every index v the (index bitmask, minor)
    pairs of the imposed minors that involve v, cheap minors first."""

    __slots__ = ("n", "degrees", "plan", "by_index")

    def __init__(self, target: Dag):
        # the imposed minors |sigma_{iK,jK}|, in the order of imposed_minors
        self.plan = _node_plan(target)
        minors = [((i, *k), (j, *k)) for i, k, free in self.plan
                  for j in free]
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
    n = target.n
    if z.n != n:
        raise DagError("point size does not match target node count")
    if z.field is None:
        raise FieldArithmeticError("witness search expects a finite-field point")
    q = z.field.q
    if source_degrees is None:
        source_degrees = tgt = [0] * n  # every permutation is a candidate
    else:
        tgt = target.degrees
        if sorted(source_degrees) != sorted(tgt):
            return None
    by_index, mat = target.by_index, z.mat
    # mapped[k]: bitmask of the first k images, current because consistent
    # sees every extension of the prefix
    mapped = [0] * (n + 1)

    def consistent(image: List[int], pre: List[int]) -> bool:
        k, v = len(image), image[-1]
        done = mapped[k] = mapped[k - 1] | 1 << v
        return _lands_on(mat, pre, by_index[v], done, q)

    return _first_permutation(source_degrees, tgt, consistent)


def _verdict(mode: str, g: Dag, params: IsoParams, rounds_run: int,
             witnesses=None) -> IsoVerdict:
    """A yes verdict when ``witnesses`` is given, else a no refuted in
    round ``rounds_run`` (0 when a precheck refuted before sampling)."""
    return IsoVerdict(
        answer="no" if witnesses is None else "yes", mode=mode, n=g.n,
        rounds_run=rounds_run,
        witnesses=None if witnesses is None else tuple(witnesses),
        refuting_round=rounds_run if witnesses is None else None,
        failure_bound=failure_bound(g.n, params.d_bound, params.q, params.m,
                                    with_permutations=(mode == "isomorphism")),
        params=params)


def _rounds(mode: str, g: Dag, g2: Dag, params: IsoParams,
            witness: Callable[[SymPoint, Dag, Dag], Optional[Permutation]],
            plans: Dict[Dag, NodePlan]) -> IsoVerdict:
    """Per round, sample a fresh point of each graph (from its node plan
    in ``plans``) and ask ``witness(z, source, target)`` for a relabeling
    carrying each point onto the other graph's variety; a yes needs both
    in every round."""
    field = PrimeField(params.q)
    witnesses = []
    for r in range(1, params.m + 1):
        z_g = sample_point(g, field, _derive_seed(params.seed, r, "a"),
                           plans[g])
        z_g2 = sample_point(g2, field, _derive_seed(params.seed, r, "b"),
                            plans[g2])
        fwd = witness(z_g, g, g2)
        bwd = None if fwd is None else witness(z_g2, g2, g)
        if bwd is None:
            return _verdict(mode, g, params, r)
        witnesses.append((fwd, bwd))
    return _verdict(mode, g, params, params.m, witnesses)


def isomorphism_test(g: Dag, g2: Dag,
                     params: Optional[IsoParams] = None) -> IsoVerdict:
    """Randomized model-isomorphism decision.

    Prechecks: unequal node counts refute immediately; unequal edge counts
    refute because the varieties then differ in dimension. Per round, a
    fresh point is sampled from each graph and a permutation witness is
    searched in both directions; a yes answer requires every round to
    produce both witnesses. Isomorphic inputs always answer yes.
    """
    if params is None:
        params = default_params(g, g2)
    mode = "isomorphism"
    if g.n != g2.n:
        return _verdict(mode, g, params, 0)
    if g.n > ISO_NODE_GUARD:
        raise ParameterError(
            f"isomorphism test searches permutations; needs n <= {ISO_NODE_GUARD}")
    if g.num_edges != g2.num_edges:
        return _verdict(mode, g, params, 0)
    targets = {h: _WitnessTarget(h) for h in (g, g2)}
    return _rounds(mode, g, g2, params, lambda z, source, target: perm_witness(
        z, targets[target], source_degrees=targets[source].degrees),
        {h: t.plan for h, t in targets.items()})


def equivalence_test(g: Dag, g2: Dag,
                     params: Optional[IsoParams] = None) -> IsoVerdict:
    """Randomized Markov-equivalence decision: the permutation-free
    variant (identity relabeling only), with no factorial component, so it
    scales to hundreds of nodes. Equivalent inputs always answer yes.
    """
    if params is None:
        params = default_params(g, g2)
    mode = "equivalence"
    if g.n != g2.n:
        return _verdict(mode, g, params, 0)
    plans = {h: _node_plan(h) for h in (g, g2)}
    ident_perm = Permutation.identity(g.n)

    def witness(z: SymPoint, source: Dag, target: Dag):
        return ident_perm if _minors_vanish(z, plans[target]) else None

    return _rounds(mode, g, g2, params, witness, plans)
