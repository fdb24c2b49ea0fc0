"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

The slow n=7 classification check is marked 'slow'; everything else is
part of the default run.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from dagiso import (
    Dag,
    MERSENNE31,
    Permutation,
    PrimeField,
    apply_permutation,
    classify_trees,
    default_params,
    equivalence_test,
    failure_bound,
    gaussian_ci,
    imposed_minors,
    isomorphism_test,
    markov_equivalent,
    on_variety,
    pattern,
    pattern_isomorphic,
    principal_minors_nonzero,
    sample_point,
    sem_covariance,
    SemParams,
)
from oracles import (
    all_dags,
    covered_edge_partner,
    prufer_tree_report,
    random_dag,
    random_dag_with_edges,
    random_permutation,
)

CHAIN = Dag(3, [(0, 1), (1, 2)])
FORK = Dag(3, [(0, 1), (0, 2)])
COLLIDER = Dag(3, [(0, 2), (1, 2)])
M31_FIELD = PrimeField(MERSENNE31)
TARGET_EPS = Fraction(1, 10**9)


def report(num, ok, text):
    marker = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {marker} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_three_node_classes():
    t0 = time.time()
    p = lambda a, b: default_params(a, b, m=5, seed=0)
    results = (
        isomorphism_test(CHAIN, FORK, p(CHAIN, FORK)).answer,
        isomorphism_test(CHAIN, COLLIDER, p(CHAIN, COLLIDER)).answer,
        isomorphism_test(FORK, COLLIDER, p(FORK, COLLIDER)).answer,
    )
    again = (
        isomorphism_test(CHAIN, FORK, p(CHAIN, FORK)).answer,
        isomorphism_test(CHAIN, COLLIDER, p(CHAIN, COLLIDER)).answer,
        isomorphism_test(FORK, COLLIDER, p(FORK, COLLIDER)).answer,
    )
    elapsed = time.time() - t0
    report(1, results == ("yes", "no", "no") and results == again
           and elapsed < 1.0,
           f"chain/fork/collider verdicts {results}, reproducible, "
           f"{elapsed:.2f}s < 1s (m=5, q=2^31-1)")


def test_criterion_2_tree_class_counts():
    t0 = time.time()
    counts = [classify_trees(n, mode="cross-check", seed=0).class_count
              for n in range(1, 7)]
    elapsed = time.time() - t0
    report(2, counts == [1, 1, 2, 5, 14, 42] and elapsed < 300,
           f"cross-check class counts n=1..6 are {counts}, "
           f"{elapsed:.0f}s < 300s")


@pytest.mark.slow
def test_criterion_2_slow_seven_nodes():
    t0 = time.time()
    got = classify_trees(7, mode="cross-check").to_json_dict()
    elapsed = time.time() - t0
    same = got == prufer_tree_report(7, "cross-check")
    report(2, same and got["class_count"] == 142,
           f"slow suite: n=7 cross-check has {got['class_count']} classes "
           f"({elapsed:.1f}s), report equal to the Prüfer referee: {same}")


def _oracle_iso(g1, g2):
    return pattern_isomorphic(pattern(g1), pattern(g2)) is not None


def test_criterion_3_oracle_agreement():
    worst_bound = Fraction(0)
    disagreements = 0
    checked = 0

    def check(g1, g2, seed):
        nonlocal worst_bound, disagreements, checked
        params = default_params(g1, g2, m=3, seed=seed)
        iso = isomorphism_test(g1, g2, params)
        equiv = equivalence_test(g1, g2, params)
        worst_bound = max(worst_bound, iso.failure_bound,
                          equiv.failure_bound)
        if iso.accepted != _oracle_iso(g1, g2):
            disagreements += 1
        if equiv.accepted != markov_equivalent(g1, g2):
            disagreements += 1
        checked += 1

    dags3 = list(all_dags(3))
    for k, (g1, g2) in enumerate(itertools.product(dags3, repeat=2)):
        check(g1, g2, seed=k)

    rng = random.Random(2024)
    for k in range(10000):
        n = 4 if k % 2 == 0 else 5
        g1 = random_dag(n, rng)
        r = rng.random()
        if r < 0.5:
            g2 = random_dag(n, rng)
        elif r < 0.75:
            g2 = apply_permutation(g1, Permutation(random_permutation(n, rng)))
        else:
            g2 = covered_edge_partner(g1, rng) \
                or apply_permutation(g1, Permutation(random_permutation(n, rng)))
        check(g1, g2, seed=10**6 + k)

    report(3, disagreements == 0 and worst_bound < TARGET_EPS,
           f"{checked} pairs (625 exhaustive n=3 + 10000 random n=4-5), "
           f"{disagreements} disagreements, worst certificate "
           f"{float(worst_bound):.2e} < 1e-9")


def test_criterion_4_sampler_and_parametrization():
    rng = random.Random(7)
    bad = 0
    for _ in range(100):
        n = rng.randrange(2, 9)
        g = random_dag(n, rng)
        for k in range(100):
            z = sample_point(g, M31_FIELD, seed=rng.randrange(2**62))
            if not (on_variety(z, g) and principal_minors_nonzero(z)):
                bad += 1
        alpha = {e: Fraction(rng.randint(-9, 9)) for e in g.edges}
        omega = {i: Fraction(rng.choice([x for x in range(-9, 10) if x]))
                 for i in range(n)}
        sigma = sem_covariance(SemParams(g, alpha, omega))
        if not on_variety(sigma, g):
            bad += 1
    report(4, bad == 0,
           "100 DAGs x 100 seeds: every sampled point on-variety with "
           "nonzero principal minors; every SEM covariance on-variety "
           "exactly over the rationals")


def test_criterion_5_four_node_golden_minors():
    g = Dag(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    minors = imposed_minors(g)
    rendered = [set(map(frozenset, m.one_based())) for m in minors]
    expected = [
        {frozenset({1, 2}), frozenset({2, 3})},
        {frozenset({1, 2, 3}), frozenset({4, 2, 3})},
    ]
    ok = (len(minors) == 2 and rendered == expected
          and [m.to_json_dict() for m in minors]
          == [{"rows": [2, 1], "cols": [0, 1]},
              {"rows": [3, 1, 2], "cols": [0, 1, 2]}])
    report(5, ok,
           "imposed generators of the 4-node example are exactly "
           f"{[m.label() for m in minors]}")


def test_criterion_6_singular_rank_ci():
    limit = [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
    dependent = not gaussian_ci(limit, {0}, {2}, {1, 3})
    independent = gaussian_ci(limit, {0}, {1}, ())
    report(6, dependent and independent,
           "rank test on the singular limit matrix: 0 _||_ 2 | {1,3} is "
           "false, 0 _||_ 1 | {} is true")


def test_criterion_7_failure_bound_formula():
    exact = failure_bound(3, 2, 101, 1) == Fraction(4, 11)
    rng = random.Random(11)
    primes = [p for p in range(10**4, 10**5)
              if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
    monotone = True
    for _ in range(100):
        n = rng.randrange(1, 9)
        d = rng.randrange(1, 200)
        q1, q2 = sorted(rng.sample(primes, 2))
        m = rng.randrange(1, 5)
        if not failure_bound(n, d, q2, m) < failure_bound(n, d, q1, m):
            monotone = False
        if not failure_bound(n, d, MERSENNE31, m + 1) \
                < failure_bound(n, d, MERSENNE31, m):
            monotone = False
    report(7, exact and monotone,
           "failure_bound(3,2,101,1) = 4/11 exactly; strictly decreasing "
           "in q and m over 100 random parameter tuples")


def test_criterion_8_equivalence_scaling():
    rng = random.Random(13)
    sizes = (50, 100, 200)
    times = []
    for n in sizes:
        g = random_dag_with_edges(n, 2 * n, rng)
        params = default_params(g, g, m=1, seed=n)
        t0 = time.time()
        verdict = equivalence_test(g, g, params)
        dt = time.time() - t0
        assert verdict.answer == "yes"
        times.append(dt)
    # least-squares slope of log t against log n
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
        / sum((x - mx) ** 2 for x in xs)
    ok = all(t < 5.0 for t in times) and slope <= 4.5
    report(8, ok,
           f"equivalence on n=50/100/200 (|E|=2n) took "
           f"{', '.join(f'{t:.2f}s' for t in times)} (< 5s each); "
           f"log-log scaling exponent {slope:.2f} <= 4.5")
