"""Randomized isomorphism/equivalence decisions and their certificates."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import factorial, sqrt

import pytest

from dagiso import (
    Dag,
    DagError,
    FieldArithmeticError,
    IsoParams,
    MERSENNE31,
    MinorSpec,
    ParameterError,
    Permutation,
    PrimeField,
    SamplerError,
    SingularPivotError,
    SymPoint,
    apply_permutation,
    choose_params,
    default_params,
    degree_surrogate,
    equivalence_test,
    failure_bound,
    imposed_minors,
    isomorphism_test,
    markov_equivalent,
    minor_eval,
    on_variety,
    pattern,
    pattern_isomorphic,
    perm_witness,
    sample_point,
)
from dagiso import dag as dag_module
from dagiso import points, randomized
from dagiso.points import _derive_seed
from oracles import (
    all_dags,
    covered_edge_partner,
    cycle_union,
    non_covered_reversal,
    random_dag,
    random_dag_with_edges,
    random_permutation,
)

CHAIN = Dag(3, [(0, 1), (1, 2)])
FORK = Dag(3, [(0, 1), (0, 2)])
COLLIDER = Dag(3, [(0, 2), (1, 2)])
M31 = PrimeField(MERSENNE31)


def params_for(g, g2, m=3, seed=0):
    return default_params(g, g2, m=m, seed=seed)


def above_the_guard():
    """An 80-node DAG with an equivalent and a non-equivalent partner, past
    both guards; the checks of the equivalent pair draw their points on
    demand."""
    rng = random.Random(4040)
    g = random_dag_with_edges(80, 160, rng)
    return g, covered_edge_partner(g, rng), random_dag_with_edges(80, 160, rng)


def spy_on_draws(monkeypatch, draw):
    """Route every point ``_rounds`` draws through ``draw(g, seed)``: the
    one draw, ``_draw``, that ``sample_point`` and both tests call, full
    or on demand."""
    real = points._draw

    def spy(g, field, seed, complete):
        draw(g, seed)
        return real(g, field, seed, complete)

    monkeypatch.setattr(points, "_draw", spy)
    monkeypatch.setattr(randomized, "_draw", spy)


def record_calls(monkeypatch, name, modules=(randomized,)):
    """Wrap the function ``name`` of ``modules`` and return the list it
    fills with the (first argument, result) pair of every call: the
    (graph, point) of ``complete_point``, the (point, witness) of
    ``perm_witness``."""
    calls = []
    real = getattr(modules[0], name)

    def spy(*args, **kwargs):
        calls.append((args[0], real(*args, **kwargs)))
        return calls[-1][1]

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return calls


class TestIsomorphismTest:
    def test_chain_fork_yes(self):
        v = isomorphism_test(CHAIN, FORK, params_for(CHAIN, FORK, m=5))
        assert v.answer == "yes"
        assert v.rounds_run == 5
        assert len(v.witnesses) == 5

    def test_chain_collider_no(self):
        # only the collider has an immorality, so the colour precheck
        # refutes before any round
        v = isomorphism_test(CHAIN, COLLIDER, params_for(CHAIN, COLLIDER, m=5))
        assert v.answer == "no"
        assert v.rounds_run == 0 and v.refuting_round == 0

    def test_fork_collider_no(self):
        v = isomorphism_test(FORK, COLLIDER, params_for(FORK, COLLIDER, m=5))
        assert v.answer == "no"

    def test_relabeling_always_accepted(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(2, 6)
            g = random_dag(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = apply_permutation(g, Permutation(perm))
            v = isomorphism_test(
                g, g2, params_for(g, g2, seed=rng.randrange(10**6)))
            assert v.answer == "yes"

    def test_one_sided_exhaustive_n_up_to_4(self):
        # every (dag, relabeling) pair must be accepted, in every round,
        # also at q = 23, where singular parent blocks reject many draws
        for q in (MERSENNE31, 23):
            seed = 0
            for n in (2, 3, 4):
                for g in all_dags(n):
                    for perm in itertools.permutations(range(n)):
                        g2 = apply_permutation(g, Permutation(perm))
                        seed += 1
                        params = default_params(g, g2, m=1, q=q, seed=seed)
                        assert isomorphism_test(g, g2, params).answer == "yes"

    def test_witnesses_actually_map_between_varieties(self, monkeypatch):
        # the points the searches ran on, caught as they ran: over M31 no
        # parent block is singular, so each search gave a witness
        searched = record_calls(monkeypatch, "perm_witness")
        collider = Dag(4, [(0, 2), (1, 2), (2, 3)])
        pairs = [(CHAIN, FORK), (collider, apply_permutation(
            collider, Permutation((3, 0, 2, 1))))]
        for g, g2 in pairs:
            v = isomorphism_test(g, g2, params_for(g, g2))
            assert v.answer == "yes"
            assert [w for pair in v.witnesses for w in pair] \
                == [w for _, w in searched]
            for (z, w), (source, target) in zip(
                    searched, itertools.cycle([(g, g2), (g2, g)])):
                moved = z.relabel(w)
                assert on_variety(z, source) and on_variety(moved, target)
                assert all(minor_eval(moved, MinorSpec(k, k))
                           for k in target.parents if k)
            searched.clear()

    def test_node_count_mismatch_is_structural_no(self):
        v = isomorphism_test(CHAIN, Dag(4, [(0, 1)]),
                             IsoParams(m=3, q=MERSENNE31, seed=0))
        assert v.answer == "no" and v.rounds_run == 0 and v.refuting_round == 0

    def test_edge_count_mismatch_is_structural_no(self):
        g2 = Dag(3, [(0, 1)])
        v = isomorphism_test(CHAIN, g2, params_for(CHAIN, g2))
        assert v.answer == "no" and v.rounds_run == 0

    def test_node_guard(self):
        n = randomized.ISO_NODE_GUARD + 1
        g = Dag(n, [(0, 1)])
        g2 = Dag(n, [(1, 2)])
        with pytest.raises(ParameterError):
            isomorphism_test(g, g2, params_for(g, g2))
        # the guard comes before the colour precheck: a chain and a
        # collider, whose colours differ, still raise
        chain, collider = Dag(n, [(0, 1), (1, 2)]), Dag(n, [(0, 2), (1, 2)])
        assert sorted(chain.colours) != sorted(collider.colours)
        with pytest.raises(ParameterError):
            isomorphism_test(chain, collider, params_for(chain, collider))
        # the guard itself is allowed
        rng = random.Random(12)
        g = cycle_union(n - 1, rng)
        yes = apply_permutation(g, Permutation(random_permutation(n - 1, rng)))
        assert isomorphism_test(g, yes, params_for(g, yes)).answer == "yes"

    def test_deterministic_verdict_json(self):
        p = params_for(CHAIN, FORK, seed=99)
        a = isomorphism_test(CHAIN, FORK, p).to_json_dict()
        b = isomorphism_test(CHAIN, FORK, p).to_json_dict()
        assert a == b

    def test_colour_precheck_refutes_only_non_isomorphic_pairs(self):
        # every ordered pair of DAGs with n <= 3 and a seeded sample at
        # n = 4: a no before any round, past the edge count, comes only
        # from unequal colour multisets, and only where the oracle finds
        # no pattern isomorphism
        rng = random.Random(113)
        dags = {n: list(all_dags(n)) for n in (1, 2, 3, 4)}
        pairs = [pair for n in (1, 2, 3)
                 for pair in itertools.product(dags[n], repeat=2)]
        pairs += [(rng.choice(dags[4]), rng.choice(dags[4]))
                  for _ in range(300)]
        prechecked = 0
        for g, g2 in pairs:
            v = isomorphism_test(g, g2, params_for(g, g2, m=1))
            mismatch = sorted(g.colours) != sorted(g2.colours)
            if g.num_edges == g2.num_edges and v.rounds_run == 0:
                assert mismatch and v.answer == "no"
                assert pattern_isomorphic(pattern(g), pattern(g2)) is None
                prechecked += 1
            else:
                assert not mismatch or g.num_edges != g2.num_edges
        assert prechecked > 100

    def test_agrees_with_pattern_oracle_sample(self):
        rng = random.Random(17)
        dags = list(all_dags(3))
        for _ in range(150):
            g1, g2 = rng.choice(dags), rng.choice(dags)
            expected = pattern_isomorphic(pattern(g1), pattern(g2)) is not None
            got = isomorphism_test(
                g1, g2, params_for(g1, g2, seed=rng.randrange(10**6)))
            assert got.accepted == expected


class TestPermWitness:
    def test_chain_to_fork_finds_swap(self):
        z = sample_point(CHAIN, M31, seed=1)
        w = perm_witness(z, FORK, source=CHAIN)
        assert w == Permutation((1, 0, 2))

    def test_chain_to_collider_finds_nothing(self):
        z = sample_point(CHAIN, M31, seed=1)
        assert perm_witness(z, COLLIDER, source=CHAIN) is None
        # a source of the wrong size, or colours passed by hand, are an
        # error, not a "no"
        with pytest.raises(DagError):
            perm_witness(z, CHAIN, source=Dag(2, [(0, 1)]))
        with pytest.raises(DagError):
            perm_witness(z, CHAIN, source=[1, 2, 1])
        with pytest.raises(DagError):
            perm_witness(z, [1, 2, 1])

    def test_self_witness_is_identity(self):
        rng = random.Random(29)
        for _ in range(10):
            g = random_dag(4, rng)
            z = sample_point(g, M31, seed=rng.randrange(10**6))
            assert perm_witness(z, g, source=g) == Permutation.identity(4)

    def test_coloured_equals_uncoloured_on_cycle_unions(self):
        # every skeleton degree is 2, so only the refined colours prune
        rng = random.Random(8)
        g = cycle_union(8, rng)
        yes = apply_permutation(covered_edge_partner(g, rng) or g,
                                Permutation(random_permutation(8, rng)))
        found = set()
        for g2 in (yes, cycle_union(8, rng), cycle_union(8, rng)):
            expected = pattern_isomorphic(pattern(g), pattern(g2))
            z = sample_point(g, M31, seed=rng.randrange(10**6))
            w = perm_witness(z, g2, source=g)
            assert w == perm_witness(z, g2)
            assert (w is None) == (expected is None)
            found.add(w is None)
        assert found == {True, False}

    def test_colour_mismatch_refutes_without_a_minor(self, monkeypatch):
        # a chain and a collider have the same skeleton degrees, but only
        # the collider has an immorality
        calls = []
        det_mod = randomized._det_mod

        def counting(*args):
            calls.append(args)
            return det_mod(*args)

        monkeypatch.setattr(randomized, "_det_mod", counting)
        z = sample_point(CHAIN, M31, seed=1)
        assert perm_witness(z, COLLIDER, source=CHAIN) is None
        assert calls == []
        # the test refutes the pair by the same colours before it draws
        drawn = record_calls(monkeypatch, "complete_point",
                             (points, randomized))
        v = isomorphism_test(CHAIN, COLLIDER, params_for(CHAIN, COLLIDER))
        assert (v.answer, v.refuting_round, calls, drawn) == ("no", 0, [], [])
        assert perm_witness(z, COLLIDER) is None  # the spy does count
        assert calls

    def test_pruning_never_changes_answer(self):
        # Referee: the first relabeling from itertools.permutations that
        # lands on the target variety, i.e. (as in on_variety) kills every
        # imposed minor of the target. Each distinct minor is evaluated
        # once per relabeled point, which keeps the n = 4 sweep fast.
        for n in range(1, 5):
            dags = list(all_dags(n))
            minors = {g: frozenset(imposed_minors(g)) for g in dags}
            every_minor = frozenset().union(*minors.values())
            perms = [Permutation(p) for p in itertools.permutations(range(n))]
            for k, g1 in enumerate(dags):
                z = sample_point(g1, M31, seed=k)
                vanishing = []
                for p in perms:
                    zp = z.relabel(p)
                    vanishing.append(frozenset(
                        m for m in every_minor if minor_eval(zp, m) == 0))
                for g2 in dags:
                    if g2.num_edges != g1.num_edges:
                        continue
                    brute = next((p for p, zero in zip(perms, vanishing)
                                  if minors[g2] <= zero), None)
                    pruned = perm_witness(z, g2, source=g1)
                    assert pruned == perm_witness(z, g2) == brute
                    if brute is not None:
                        assert on_variety(z.relabel(brute), g2)


    def test_small_field_points_against_first_landing_relabeling(self):
        # Random symmetric points over F_3, F_5 and F_7, not sampled from
        # any graph: the search must return the first relabeling (in
        # itertools order) whose point lies on the target variety.
        rng = random.Random(59)
        found = 0
        orders = set()
        for _ in range(400):
            q = rng.choice((3, 5, 7))
            n = rng.randrange(1, 6)
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                mat[i][i] = rng.randrange(1, q)
                for j in range(i):
                    mat[i][j] = mat[j][i] = rng.randrange(q)
            z = SymPoint(PrimeField(q), mat)
            g2 = random_dag(n, rng, p=rng.choice((0.3, 0.5, 0.7)))
            orders |= {len(m.rows) for m in imposed_minors(g2)}
            brute = next((Permutation(p)
                          for p in itertools.permutations(range(n))
                          if on_variety(z.relabel(Permutation(p)), g2)),
                         None)
            assert perm_witness(z, g2) == brute, (mat, g2.edges)
            found += brute is not None
        assert 0 < found < 400
        assert orders == {1, 2, 3, 4}


class TestEquivalenceTest:
    def test_chain_vs_reversed_chain_yes(self):
        rev = Dag(3, [(2, 1), (1, 0)])
        v = equivalence_test(CHAIN, rev, params_for(CHAIN, rev))
        assert v.answer == "yes"

    def test_chain_vs_collider_no(self):
        v = equivalence_test(CHAIN, COLLIDER, params_for(CHAIN, COLLIDER))
        assert v.answer == "no"

    def test_self_equivalence(self):
        rng = random.Random(37)
        for _ in range(20):
            g = random_dag(rng.randrange(2, 7), rng)
            assert equivalence_test(g, g, params_for(g, g)).answer == "yes"

    def test_covered_edge_reversal_equivalent(self):
        rng = random.Random(41)
        found = 0
        while found < 20:
            g = random_dag(rng.randrange(3, 6), rng)
            partner = covered_edge_partner(g, rng)
            if partner is None:
                continue
            found += 1
            assert markov_equivalent(g, partner)
            assert equivalence_test(g, partner,
                                    params_for(g, partner)).answer == "yes"

    def test_agrees_with_pattern_equality_sample(self):
        rng = random.Random(43)
        dags = list(all_dags(3))
        for _ in range(150):
            g1, g2 = rng.choice(dags), rng.choice(dags)
            v = equivalence_test(
                g1, g2, params_for(g1, g2, seed=rng.randrange(10**6)))
            assert v.accepted == markov_equivalent(g1, g2)

    def test_scales_past_the_factorial_guard(self):
        rng = random.Random(47)
        g = random_dag(30, rng, p=0.1)
        assert equivalence_test(g, g, params_for(g, g, m=1)).answer == "yes"


# SHA-256 over equivalence_test verdict JSON for the cases below; any
# change in a verdict, a sampled point's fate or a certificate changes
# it. The second graph's point is drawn only once the first point has
# passed, so the case n=13, q=1009, m=1 of the non-equivalent partner
# answers "no" rather than exhausting the sampler on that second draw.
# The draws screen no principal minor, only the blocks their check
# solves, so no case at q = 1009 exhausts the sampler.
EQUIVALENCE_DIGEST = \
    "1fe2a6f727f7ce8118fed7ae2d3ca8d52db18a07a81b2ced775f567b59ff35e7"


@pytest.mark.parametrize("test", [isomorphism_test, equivalence_test])
def test_second_point_is_drawn_only_after_the_forward_check(test,
                                                            monkeypatch):
    drawn = []
    spy_on_draws(monkeypatch, lambda g, seed: drawn.append((g, seed)))
    reversed_chain = Dag(3, [(2, 1), (1, 0)])  # equivalent to CHAIN
    params = params_for(CHAIN, reversed_chain, m=2, seed=5)
    seeds = [_derive_seed(5, r, side) for r in (1, 2) for side in "ab"]
    if test is equivalence_test:  # the on-demand draws count too
        pairs = [(CHAIN, reversed_chain, COLLIDER), above_the_guard()]
        g, yes, _ = pairs[-1]
        assert points._on_demand(g, points._unmade(yes, g)) is not None
    else:
        # the colour precheck refutes CHAIN against COLLIDER before any
        # draw, so the no partner here has g's colours: a tree with arms
        # of lengths 1, 2 and 2, against a triangle with a tail and an edge
        assert test(CHAIN, COLLIDER, params).answer == "no" and drawn == []
        g = Dag(6, [(1, 2), (1, 4), (1, 5), (2, 0), (5, 3)])
        no = Dag(6, [(0, 4), (0, 5), (3, 1), (4, 5), (5, 2)])
        assert sorted(g.colours) == sorted(no.colours)
        pairs = [(g, apply_permutation(g, Permutation((5, 3, 0, 4, 1, 2))),
                  no)]
    for g, yes, no in pairs:
        assert test(g, yes, params).answer == "yes"
        assert drawn == list(zip((g, yes) * 2, seeds))
        drawn.clear()
        assert test(g, no, params).answer == "no"
        assert drawn == [(g, seeds[0])]  # refuted before drawing no's
        drawn.clear()


@pytest.mark.parametrize("test", [isomorphism_test, equivalence_test])
def test_tests_sort_nothing_after_construction(test, monkeypatch):
    """Every plan is read from ``Dag.order``: the only topological sort
    is the one each constructor runs."""
    sorts = []
    real = dag_module._kahn

    def spy(*args):
        sorts.append(args)
        return real(*args)

    monkeypatch.setattr(dag_module, "_kahn", spy)
    pairs = [(CHAIN, Dag(3, [(2, 1), (1, 0)])), (CHAIN, COLLIDER)]
    rng = random.Random(97)
    g = random_dag_with_edges(9, 14, rng)
    pairs += [(g, covered_edge_partner(g, rng) or g),
              (g, random_dag_with_edges(9, 14, rng))]
    if test is equivalence_test:
        g, yes, no = above_the_guard()
        pairs += [(g, yes), (g, no)]
    built = len(sorts)
    answers = {test(g, g2, params_for(g, g2)).answer for g, g2 in pairs}
    assert answers == {"yes", "no"}
    assert len(sorts) == built
    Dag(2, [(0, 1)])  # the spy sees the constructor's sort
    assert len(sorts) == built + 1


def test_equivalence_builds_no_parent_sets(monkeypatch):
    """Node plans, membership and ``_unmade`` read ``Dag.parents``, built
    once per graph, rather than rebuilding ``parent_sets`` frozensets."""
    calls = []
    real = Dag.parent_sets

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Dag, "parent_sets", spy)
    rng = random.Random(101)
    g = random_dag_with_edges(12, 20, rng)
    big, yes, no = above_the_guard()
    pairs = [(g, covered_edge_partner(g, rng) or g),
             (g, random_dag_with_edges(12, 20, rng)),
             (CHAIN, Dag(3, [(2, 1), (1, 0)])), (CHAIN, COLLIDER),
             (big, yes), (big, no)]
    answers = {equivalence_test(a, b, params_for(a, b)).answer
               for a, b in pairs}
    assert answers == {"yes", "no"}
    assert calls == []
    CHAIN.parent_sets()  # the spy sees a direct call
    assert calls == [CHAIN]


def test_equivalence_verdicts_are_pinned():
    h = hashlib.sha256()
    answers = set()
    for n in range(2, 41):  # past PRINCIPAL_MINOR_GUARD
        rng = random.Random(n)
        e = min(2 * n, n * (n - 1) // 4 + 1)
        g = random_dag_with_edges(n, e, rng)
        yes = covered_edge_partner(g, rng) or g
        other = random_dag_with_edges(n, e, rng)
        for g2 in (yes, other):
            for q in (1009, 2**31 - 1):
                for m in (1, 3):
                    params = default_params(g, g2, m=m, q=q,
                                            seed=rng.randrange(10**6))
                    try:
                        v = equivalence_test(g, g2, params)
                    except SamplerError:  # many minors, a small modulus
                        h.update(b"SamplerError\n")
                        continue
                    assert v.accepted == markov_equivalent(g, g2), (n, q, m)
                    answers.add(v.answer)
                    h.update(json.dumps(v.to_json_dict(),
                                        sort_keys=True).encode() + b"\n")
    assert answers == {"yes", "no"}
    assert h.hexdigest() == EQUIVALENCE_DIGEST


def test_the_pinned_n14_case_at_q_1009_answers_no():
    # the non-equivalent partner's case n = 14, q = 1009, m = 1 above;
    # screening every principal minor up to the largest parent-set size
    # rejected all RESAMPLE_BUDGET draws of g, where the one draw now
    # keeps its first and refutes on it
    rng = random.Random(14)
    g = random_dag_with_edges(14, 28, rng)
    covered_edge_partner(g, rng)
    other = random_dag_with_edges(14, 28, rng)
    assert not markov_equivalent(g, other)
    v = equivalence_test(g, other, IsoParams(m=1, q=1009, seed=471057))
    assert v.answer == "no" and v.refuting_round == 1


def test_a_singular_target_block_rejects_the_draw(monkeypatch):
    # h conditions node 0 on K' = {1, 3}, g on {3}, so the check of g's
    # point solves the target block [[1, s13], [s13, 1]]; the first draw
    # from this seed has s13 = -1 mod 17, a singular block, and the check
    # rejects that draw rather than answering on it
    g = Dag(4, [(0, 1), (3, 0), (3, 1)])
    h = Dag(4, [(1, 0), (3, 0), (3, 1)])
    assert markov_equivalent(g, h)
    assert (0, (1, 3), (2, 3, 1)) in points._unmade(h, g)
    checks = []
    real = points._minors_vanish

    def spy(z, left):
        try:
            checks.append(real(z, left))
        except SingularPivotError:
            checks.append(z.mat[1][3])
            raise
        return checks[-1]

    monkeypatch.setattr(randomized, "_minors_vanish", spy)
    v = equivalence_test(g, h, IsoParams(m=1, q=17, seed=11))
    assert v.answer == "yes"
    assert checks[0] == 16 and checks[1:] == [True, True], checks


def test_a_zero_minor_off_the_parent_blocks_keeps_the_draw(monkeypatch):
    # g's one parent block of order 2 is {1, 2}, and the first witness
    # swaps 2 and 3, so h's block {1, 3} maps onto it too; the first draw
    # from this seed has sigma_23 = 1 mod 23, so |sigma_{23,23}| is zero,
    # off every block the check reads. That draw answers: one completion
    # of g, where a screen of every minor up to order 2 draws again
    g = Dag(4, [(1, 3), (2, 3)])
    h = Dag(4, [(1, 2), (3, 2)])
    drawn = record_calls(monkeypatch, "complete_point", (points, randomized))
    v = isomorphism_test(g, h, IsoParams(m=1, q=23, seed=10))
    assert v.answer == "yes"
    assert v.witnesses[0][0] == Permutation((0, 1, 3, 2))
    assert [source for source, _ in drawn] == [g, h]
    z = drawn[0][1].mat
    assert z[2][3] == 1 and z[1][2] == 0


def test_a_singular_mapped_target_block_rejects_the_draw(monkeypatch):
    # g and h are complete on {1, 2, 3} and swap 2 and 3, so the identity
    # lands first; h conditions node 2 on K' = {1, 3}, and the first draw
    # from this seed has sigma_13 = 1 mod 23, so the identity maps that
    # block onto a singular minor. The draw is rejected rather than the
    # identity skipped, and the next draw answers
    g = Dag(4, [(1, 2), (1, 3), (2, 3)])
    h = Dag(4, [(1, 2), (1, 3), (3, 2)])
    searched = record_calls(monkeypatch, "perm_witness")
    v = isomorphism_test(g, h, IsoParams(m=1, q=23, seed=10))
    ident = Permutation.identity(4)
    assert v.answer == "yes" and v.witnesses == ((ident, ident),)
    assert [w for _, w in searched] == [ident] * 3
    z = searched[0][0].mat
    assert z[1][3] == 1 and (1 - z[1][2] ** 2) % 23
    assert searched[1][0].mat != z


def test_a_singular_source_block_rejects_the_draw_before_the_search(
        monkeypatch):
    # every earlier node of node 2 of g is a parent, so no completion
    # solves through its block {0, 1}; the first draw from this seed has
    # sigma_01 = 1 mod 23, and the check rejects it before any search.
    # h's block {1, 2} is nonsingular there, so nothing else would
    g = Dag(3, [(0, 1), (0, 2), (1, 2)])
    h = Dag(3, [(2, 1), (2, 0), (1, 0)])
    drawn = record_calls(monkeypatch, "complete_point")
    searched = record_calls(monkeypatch, "perm_witness")
    v = isomorphism_test(g, h, IsoParams(m=1, q=23, seed=17))
    assert v.answer == "yes"
    (_, first), *kept = drawn
    assert first.mat[0][1] == 1 and (1 - first.mat[1][2] ** 2) % 23
    assert [z for z, _ in searched] == [z for _, z in kept]


# SHA-256 over isomorphism_test verdict JSON for the cases below; any
# change in a verdict, a witness, a refuting round or a certificate
# changes it. The no pairs whose colour multisets differ are refuted by
# the precheck, with rounds_run and refuting_round 0.
ISOMORPHISM_DIGEST = \
    "87b581e15cc537f0d4c3b311c43e7d593fd40032732812d09d4c8fe95f6cc2cc"


def test_isomorphism_verdicts_are_pinned():
    h = hashlib.sha256()
    answers = set()
    for n in range(2, 9):
        rng = random.Random(1000 + n)
        for cycles in (False, True) if n >= 3 else (False,):
            g = cycle_union(n, rng) if cycles else random_dag(n, rng)
            yes = apply_permutation(covered_edge_partner(g, rng) or g,
                                    Permutation(random_permutation(n, rng)))
            other = (cycle_union(n, rng) if cycles
                     else random_dag_with_edges(n, g.num_edges, rng))
            for g2 in (yes, other):
                for q in (2**31 - 1, 1009):
                    for m in (1, 3):
                        params = default_params(g, g2, m=m, q=q,
                                                seed=rng.randrange(10**6))
                        try:
                            v = isomorphism_test(g, g2, params)
                        except SamplerError:
                            h.update(b"SamplerError\n")
                            continue
                        answers.add(v.answer)
                        h.update(json.dumps(v.to_json_dict(),
                                            sort_keys=True).encode() + b"\n")
    assert answers == {"yes", "no"}
    assert h.hexdigest() == ISOMORPHISM_DIGEST


class TestCertificateAudit:
    """Observed false accepts of equivalence_test at one round and small
    moduli against its certificate, with the pattern oracle as ground
    truth, over every ordered pair of 3-node DAGs and a seeded sample of
    4-node pairs."""

    @pytest.mark.parametrize("q", (101, 1009))
    def test_false_accepts_within_certificate(self, q):
        rng = random.Random(q)
        dags4 = list(all_dags(4))
        pairs = list(itertools.product(all_dags(3), repeat=2)) + [
            (rng.choice(dags4), rng.choice(dags4)) for _ in range(20000)]
        refuted = false_accepts = 0
        mean = var = 0.0
        for seed, (g, g2) in enumerate(pairs):
            v = equivalence_test(g, g2, default_params(g, g2, m=1, q=q,
                                                       seed=seed))
            if markov_equivalent(g, g2):
                assert v.accepted  # one-sided
                continue
            refuted += 1
            false_accepts += v.accepted
            c = min(float(v.failure_bound), 1.0)
            mean += c
            var += c * (1 - c)
        # each non-equivalent pair is falsely accepted with probability
        # at most its certificate c, so the count is at most a sum of
        # independent Bernoulli(c) draws: allow four standard deviations
        assert refuted > 20000
        assert false_accepts <= mean + 4 * sqrt(var), (false_accepts, refuted)


class TestFailureBound:
    def test_a_certificate_past_the_digit_limit_is_still_returned(self):
        # only the command line prints the certificate in decimal
        v = isomorphism_test(CHAIN, CHAIN, IsoParams(500, MERSENNE31, 0))
        assert v.answer == "yes" and v.rounds_run == 500
        assert v.failure_bound.denominator > 10 ** 4300

    def test_paper_worked_value(self):
        assert failure_bound(3, 2, 101, 1) == Fraction(4, 11)

    def test_exponentiation_in_rounds(self):
        assert failure_bound(3, 2, 101, 2) == Fraction(4, 11) ** 2

    def test_large_modulus_tiny_bound(self):
        exact = failure_bound(6, 100, MERSENNE31, 3)
        assert exact == Fraction(factorial(6) * (6 + 200 - 1),
                                 MERSENNE31 - 100) ** 3
        assert failure_bound(6, 100, MERSENNE31, 3,
                             with_permutations=False) < Fraction(1, 10**15)

    def test_rejects_small_modulus(self):
        with pytest.raises(ParameterError):
            failure_bound(3, 101, 101, 1)

    def test_strictly_decreasing_in_q_and_m(self):
        rng = random.Random(53)
        primes = [x for x in range(10**4, 10**5) if _is_prime_slow(x)]
        for _ in range(100):
            n = rng.randrange(1, 9)
            d = rng.randrange(1, 200)
            q1, q2 = sorted(rng.sample(primes, 2))
            m = rng.randrange(1, 5)
            assert failure_bound(n, d, q2, m) < failure_bound(n, d, q1, m)
            base_small = failure_bound(n, d, MERSENNE31, 1)
            assert base_small < 1
            assert failure_bound(n, d, MERSENNE31, m + 1) \
                < failure_bound(n, d, MERSENNE31, m)

    def test_vacuous_flagged(self):
        v = failure_bound(8, 50, 1009, 1)
        assert v >= 1  # 8! dominates a thousand-sized modulus


def _is_prime_slow(x):
    return x > 1 and all(x % p for p in range(2, int(x ** 0.5) + 1))


def _dense_dag(n, edges):
    """A DAG on n nodes with the first ``edges`` pairs (i < j) as edges."""
    return Dag(n, list(itertools.combinations(range(n), 2))[:edges])


class TestChooseParams:
    def test_meets_target(self):
        p = choose_params(4, 6, Fraction(1, 10**9))
        assert p.q == MERSENNE31
        d = degree_surrogate(_dense_dag(4, 6), _dense_dag(4, 6))
        assert failure_bound(4, d, p.q, p.m) <= Fraction(1, 10**9)

    def test_eps_one_needs_single_round(self):
        assert choose_params(4, 6, Fraction(1)).m == 1

    def test_tight_target_large_n(self):
        p = choose_params(10, 20, Fraction(1, 10**12))
        d = degree_surrogate(_dense_dag(10, 20), _dense_dag(10, 20))
        assert failure_bound(10, d, p.q, p.m) <= Fraction(1, 10**12)

    def test_unreachable_with_small_modulus(self):
        with pytest.raises(ParameterError):
            choose_params(8, 20, Fraction(1, 10**9), q=101)

    # checked as the tests check q, and at eps >= 1 too
    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1)])
    @pytest.mark.parametrize("q, error", [
        (4, ParameterError), (10, ParameterError),  # d_bound = 10
        (2**31 + 1, FieldArithmeticError), (1001, FieldArithmeticError)])
    def test_rejects_a_modulus_the_tests_reject(self, q, error, eps):
        with pytest.raises(error, match="d_bound" if q <= 10 else "prime"):
            choose_params(3, 2, eps, q=q)
        with pytest.raises(error):
            equivalence_test(CHAIN, FORK, IsoParams(m=1, q=q, seed=0))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ParameterError):
            choose_params(4, 6, Fraction(0))

    # checked before the target: at eps >= 1 the answer needs neither
    @pytest.mark.parametrize("eps", [Fraction(1, 10**9), Fraction(1)])
    @pytest.mark.parametrize("n", [0, -3, True, 4.0, "4"])
    def test_rejects_bad_node_count(self, n, eps):
        with pytest.raises(ParameterError, match="n and edges|n >= 1"):
            choose_params(n, 0, eps)

    # True would count as eps = 1, and a float enters as its binary value
    @pytest.mark.parametrize("eps", [True, 0.5, 1e-9, "1/2", None])
    def test_rejects_an_inexact_target(self, eps):
        with pytest.raises(ParameterError, match="target_eps"):
            choose_params(3, 2, eps)

    @pytest.mark.parametrize("eps", [Fraction(1, 1000), Fraction(1)])
    @pytest.mark.parametrize("edges", [-9, -1, 7, False, 6.0, "6"])
    def test_rejects_bad_edge_count(self, edges, eps):
        # four nodes have at most 6 edges
        with pytest.raises(ParameterError, match="n and edges|edges <="):
            choose_params(4, edges, eps)


BAD_ROUND_PARAMS = [{"m": True}, {"m": 1.5}, {"q": 1009.0}, {"q": True},
                    {"d_bound": 2.0}, {"d_bound": False}, {"d_bound": -5},
                    {"n": True}, {"n": 1.5}, {"n": 0}, {"n": -1}]


class TestIsoParams:
    @pytest.mark.parametrize("bad", [
        bad for bad in BAD_ROUND_PARAMS if set(bad) <= {"m", "q"}]
        + [{"seed": True}, {"seed": 0.5}])
    def test_rejects_non_int_and_negative_values(self, bad):
        with pytest.raises(ParameterError):
            IsoParams(**{"m": 1, "q": 1009, "seed": 0, **bad})

    @pytest.mark.parametrize("bad", BAD_ROUND_PARAMS)
    def test_failure_bound_rejects_them_too(self, bad):
        with pytest.raises(ParameterError):
            failure_bound(**{"n": 3, "m": 1, "q": 1009, "d_bound": 2, **bad})

    def test_validation(self, monkeypatch):
        with pytest.raises(ParameterError):
            IsoParams(m=0, q=101, seed=0)

        def no_sampling(*args):
            raise AssertionError("sampled before checking the inputs")

        spy_on_draws(monkeypatch, no_sampling)
        for test in (isomorphism_test, equivalence_test):
            for params in ("x", {"m": 1}, {}, 0, (1, 1009, 0)):
                with pytest.raises(ParameterError, match="IsoParams"):
                    test(CHAIN, CHAIN, params)
            for g, g2 in ((CHAIN, None), (None, CHAIN), (CHAIN, CHAIN.edges),
                          (pattern(CHAIN), CHAIN)):
                with pytest.raises(DagError, match="two Dags"):
                    test(g, g2, IsoParams(m=1, q=1009, seed=0))

    @pytest.mark.parametrize("test", [isomorphism_test, equivalence_test])
    def test_pair_degree_reaching_q_is_rejected_before_sampling(
            self, test, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before checking q > d")

        spy_on_draws(monkeypatch, no_sampling)
        big, yes, _ = above_the_guard()
        # the node-count precheck too, and a pair past both guards
        for g, g2 in ((CHAIN, FORK), (CHAIN, Dag(4, [(0, 1)])), (big, yes)):
            q = degree_surrogate(g, g2)  # q = d is one too small
            with pytest.raises(ParameterError, match="d_bound"):
                test(g, g2, IsoParams(m=1, q=q, seed=0))

    @pytest.mark.parametrize("test", [isomorphism_test, equivalence_test])
    def test_non_prime_modulus_is_rejected_before_the_prechecks(
            self, test, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before checking q")

        spy_on_draws(monkeypatch, no_sampling)
        big, yes, _ = above_the_guard()
        # same shape, unequal edge counts, unequal node counts, and a pair
        # past both guards
        for g, g2 in ((CHAIN, FORK), (CHAIN, Dag(3, [(0, 1)])),
                      (CHAIN, Dag(4, [(0, 1)])), (big, yes)):
            with pytest.raises(FieldArithmeticError, match="prime"):
                test(g, g2, IsoParams(m=1, q=1000, seed=0))

    def test_verdict_degree_is_the_pairs_on_every_path(self):
        for g2 in (FORK, COLLIDER, Dag(3, [(0, 1)]), Dag(4, [(0, 1)])):
            d = degree_surrogate(CHAIN, g2)
            for params in (None, default_params(CHAIN, g2),
                           IsoParams(m=1, q=1009, seed=0),
                           choose_params(3, 2, Fraction(1, 10**6))):
                for test in (isomorphism_test, equivalence_test):
                    v = test(CHAIN, g2, params)
                    assert v.d_bound == d == v.to_json_dict()["params"]["d_bound"]

    def test_verdict_json_shape(self):
        v = isomorphism_test(CHAIN, FORK, params_for(CHAIN, FORK))
        d = v.to_json_dict()
        assert d["answer"] == "yes"
        assert d["params"]["q"] == MERSENNE31
        assert d["certificate"]["heuristic"] is True
        assert d["certificate"]["vacuous"] is False
        num, den = d["certificate"]["failure_bound"].split("/")
        assert Fraction(int(num), int(den)) == v.failure_bound


def seeded_non_covered_reversal(n, seed):
    """A random DAG with |E| = 2n and one non-covered reversal of it, as
    in the large equivalence benchmark's no pairs."""
    rng = random.Random(seed)
    while True:
        g = random_dag_with_edges(n, 2 * n, rng)
        h = non_covered_reversal(g, rng)
        if h is not None:
            return g, h


def test_a_non_covered_reversal_builds_one_point(monkeypatch):
    # the first stage reads the source-ancestral columns, finds the
    # nonzero minor there, and the whole check is never planned or drawn
    g, h = seeded_non_covered_reversal(150, 36)
    built, demands = [], []
    real_point, real_demand = randomized._OnDemandPoint, points._demand

    def point(*args):
        built.append(args[3])
        return real_point(*args)

    def demand(*args):
        demands.append(args)
        return real_demand(*args)

    def complete(*args):
        raise AssertionError("completed in full")

    monkeypatch.setattr(randomized, "_OnDemandPoint", point)
    monkeypatch.setattr(randomized, "complete_point", complete)
    monkeypatch.setattr(points, "_demand", demand)
    v = equivalence_test(g, h, IsoParams(m=1, q=MERSENNE31, seed=7))
    assert v.answer == "no" and v.refuting_round == 1
    assert len(built) == len(demands) == 1
    left = points._unmade(h, g)
    assert demands[0][1] == points._ancestral(g, left) != left


def test_a_draw_the_first_stage_refutes_solves_no_second_stage_block(
        monkeypatch):
    # node 4 has K = {3} in g and none in h: its first stage reads
    # sigma_40, sigma_42 and sigma_43 (ancestors of 4 in g), which need
    # no block of two parents, and sigma_43 = 5 is not 0. Its second stage
    # also reads sigma_41, forced through sigma_31 and so through the
    # block of node 3, parents {0, 2} with sigma_02 = 1: singular. Nodes
    # 5 to 7 raise the on-demand limit to 7, over the check's 5 reads.
    g = Dag(8, [(0, 2), (0, 3), (2, 3), (3, 4)])
    h = Dag(8, [(0, 2), (0, 3), (2, 3)])
    field = PrimeField(29)
    values = {(0, 2): 1, (0, 3): 2, (2, 3): 3, (3, 4): 5}
    left = points._unmade(h, g)
    assert left == [(4, (), (0, 1, 2, 3))]
    assert points._ancestral(g, left) == [(4, (), (0, 2, 3))]
    assert points._limit(g, left) == 7
    # a point for the whole check solves that block, and so raises
    with pytest.raises(SingularPivotError):
        points._OnDemandPoint(g, values, field, points._on_demand(g, left))
    with pytest.raises(SingularPivotError):
        points.complete_point(g, values, field)

    def draw(source, field, seed, complete):
        assert source is g
        return complete(dict(values))

    monkeypatch.setattr(randomized, "_draw", draw)
    v = equivalence_test(g, h, IsoParams(m=1, q=29, seed=0))
    assert v.answer == "no" and v.refuting_round == 1


def test_the_first_stage_refutes_most_non_covered_reversals():
    # the order of the stages: the refuting minor of a single reversal
    # that is not covered lies at a source-ancestral column
    refuted = 0
    for t in range(30):
        n = 100 + 100 * t // 29
        g, h = seeded_non_covered_reversal(n, 3600 + t)
        first = points._ancestral(g, points._unmade(h, g))
        steps = points._demand(g, first)
        answer = points._draw(g, M31, t, lambda values: points._minors_vanish(
            points._OnDemandPoint(g, values, M31, steps), first) or "no")
        refuted += answer == "no"
    assert refuted >= 25, refuted


@pytest.mark.parametrize("q", [1, 4, 9, 1001, 2**64 + 1])
def test_failure_bound_refuses_a_modulus_that_is_no_prime(q):
    with pytest.raises(FieldArithmeticError, match="prime"):
        failure_bound(3, 0, q, 1)


def test_failure_bound_checks_parameters_before_the_modulus():
    with pytest.raises(ParameterError):
        failure_bound(3, 4, 4, 1)  # d_bound >= q, and q is no prime
    with pytest.raises(ParameterError):
        failure_bound(0, 0, 4, 1)


def test_equivalent_partners_with_a_first_stage_answer_yes(monkeypatch):
    # one-sided in two stages: reversing a covered edge u -> v whose tail
    # has parents gives target node u the columns pa(u), source ancestors
    # of u, so the first stage is not empty; at the smallest modulus the
    # test still answers yes on every pair
    staged = []
    real = randomized._ancestral

    def spy(source, left):
        first = real(source, left)
        staged.append(bool(first))
        return first

    monkeypatch.setattr(randomized, "_ancestral", spy)
    answers = []
    for n in range(8, 41, 2):
        rng = random.Random(9000 + n)
        for _ in range(6):
            g = random_dag_with_edges(n, 3 * n, rng)
            pa = g.parent_sets()
            covered = [(u, v) for u, v in sorted(g.edges)
                       if pa[v] == pa[u] | {u} and pa[u]]
            if not covered:
                continue
            u, v = covered[rng.randrange(len(covered))]
            h = Dag(n, (g.edges - {(u, v)}) | {(v, u)})
            q = degree_surrogate(g, h) + 1
            while not _is_prime_slow(q):
                q += 1
            params = IsoParams(m=3, q=q, seed=rng.randrange(10**6))
            answers.append(equivalence_test(g, h, params).answer)
    assert answers.count("yes") == len(answers) > 30
    assert staged.count(True) > 100, (staged.count(True), len(staged))
