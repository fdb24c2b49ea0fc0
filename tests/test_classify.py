"""Directed tree enumeration and isomorphism-class counting."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from dagiso import (
    ClassifyError,
    CrossCheckError,
    Dag,
    classify_trees,
    enumerate_tree_dags,
    isomorphism_test,
    pattern,
    pattern_isomorphic,
)
from dagiso import classify
from dagiso.classify import (
    _collect_entries,
    _least_relabeling,
    _prufer_decode,
    _unlabeled_trees,
    canonical_pattern_of,
)
from dagiso.dag import _pattern_colours
from oracles import (labeled_tree_count, least_relabeling_reference,
                     prufer_tree_report)

CHAIN = Dag(3, [(0, 1), (1, 2)])
FORK = Dag(3, [(0, 1), (0, 2)])
COLLIDER = Dag(3, [(0, 2), (1, 2)])

EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 142,
                         8: 495}
MODES = ("oracle", "randomized", "cross-check")

# sha256 of json.dumps(classify_trees(n, mode, seed=0).to_json_dict()),
# past the reach of the Prüfer referee (n <= 6) and of the slow n=7 test
REPORT_DIGESTS = {
    (7, "oracle"):
        "e8a6c592d7368459687a29cfdaa829e4a7c62312b01464364f25cc7d758d0aa6",
    (7, "cross-check"):
        "0713849ba00377df6769df72955f306917ee99c82eedc561fec04dadcec80354",
    (8, "oracle"):
        "caa04be7d5be31a05e58b4b2bc2ebc34846d035e884f4deefd29979a4f388cbc",
    (8, "cross-check"):
        "8150d5346c9c317d9ee2546f0a491446cc2757539e83fc6212e806f573154fd1",
}


class TestEnumeration:
    def test_two_nodes(self):
        dags = list(enumerate_tree_dags(2))
        assert dags == [Dag(2, [(0, 1)]), Dag(2, [(1, 0)])]

    def test_counts(self):
        for n in (1, 2, 3, 4, 5):
            assert sum(1 for _ in enumerate_tree_dags(n)) \
                == labeled_tree_count(n)
        assert labeled_tree_count(3) == 12
        assert labeled_tree_count(4) == 128

    def test_all_members_are_spanning_trees(self):
        for g in enumerate_tree_dags(4):
            assert g.num_edges == 3
            assert len({v for e in g.edges for v in e}) == 4

    def test_no_duplicates(self):
        dags = list(enumerate_tree_dags(4))
        assert len({(g.n, g.edges) for g in dags}) == len(dags)

    def test_deterministic_order(self):
        assert list(enumerate_tree_dags(3)) == list(enumerate_tree_dags(3))

    def test_guard(self):
        with pytest.raises(ClassifyError):
            list(enumerate_tree_dags(9))
        with pytest.raises(ClassifyError):
            list(enumerate_tree_dags(0))


class TestCanonicalPattern:
    def test_chain_equals_fork(self):
        assert canonical_pattern_of(pattern(CHAIN)) \
            == canonical_pattern_of(pattern(FORK))

    def test_chain_differs_from_collider(self):
        assert canonical_pattern_of(pattern(CHAIN)) \
            != canonical_pattern_of(pattern(COLLIDER))

    def test_single_node_fixed(self):
        one, two = pattern(Dag(1)), pattern(Dag(2))
        assert canonical_pattern_of(one) == canonical_pattern_of(one)
        assert canonical_pattern_of(one) != canonical_pattern_of(two)

    def test_equal_strings_iff_isomorphic_exhaustive_n3(self):
        from oracles import all_dags
        dags = list(all_dags(3))
        for g1, g2 in itertools.combinations(dags, 2):
            same = (canonical_pattern_of(pattern(g1))
                    == canonical_pattern_of(pattern(g2)))
            iso = pattern_isomorphic(pattern(g1), pattern(g2)) is not None
            assert same == iso

    def test_relabeling_invariance_n5(self):
        from dagiso import Permutation, apply_permutation
        rng = random.Random(67)
        for _ in range(50):
            g = next(itertools.islice(enumerate_tree_dags(5),
                                      rng.randrange(2000), None))
            perm = list(range(5))
            rng.shuffle(perm)
            g2 = apply_permutation(g, Permutation(perm))
            assert canonical_pattern_of(pattern(g)) \
                == canonical_pattern_of(pattern(g2))

    def test_guard(self):
        with pytest.raises(ClassifyError):
            canonical_pattern_of(pattern(Dag(11)))


class TestClassifyTrees:
    def test_oracle_counts_small(self):
        for n in (1, 2, 3, 4, 5):
            report = classify_trees(n, mode="oracle")
            assert report.class_count == EXPECTED_CLASS_COUNTS[n]
            assert sum(report.class_sizes) == labeled_tree_count(n)
            assert report.total == labeled_tree_count(n)

    def test_three_node_classes_are_chain_and_collider(self):
        report = classify_trees(3, mode="oracle")
        keys = {canonical_pattern_of(pattern(g))
                for g in report.representatives}
        assert keys == {canonical_pattern_of(pattern(CHAIN)),
                        canonical_pattern_of(pattern(COLLIDER))}

    def test_representatives_pairwise_non_isomorphic(self):
        report = classify_trees(5, mode="oracle")
        for g1, g2 in itertools.combinations(report.representatives, 2):
            assert pattern_isomorphic(pattern(g1), pattern(g2)) is None

    def test_representatives_belong_to_their_class_sizes(self):
        report = classify_trees(4, mode="oracle")
        assert report.class_count == 5
        assert len(report.representatives) == len(report.class_sizes) == 5
        assert all(size >= 1 for size in report.class_sizes)

    def test_randomized_matches_oracle(self):
        for n in (1, 2, 3, 4, 5):
            oracle = classify_trees(n, mode="oracle")
            randomized = classify_trees(n, mode="randomized", seed=11)
            assert randomized.class_count == oracle.class_count
            assert sorted(randomized.class_sizes) == sorted(oracle.class_sizes)
            assert [g.edges for g in randomized.representatives] \
                == [g.edges for g in oracle.representatives]

    def test_cross_check_passes(self):
        report = classify_trees(5, mode="cross-check", seed=2)
        assert report.class_count == 14

    def test_mode_validation(self):
        with pytest.raises(ClassifyError):
            classify_trees(3, mode="psychic")

    @pytest.mark.parametrize("n", [True, 5.0, "5", None])
    def test_node_count_must_be_an_int(self, n):
        for mode in MODES:
            with pytest.raises(ClassifyError):
                classify_trees(n, mode=mode)

    @pytest.mark.parametrize("q, m", [(4, 3), (2, 3), (1, 3), (1_000_000, 3),
                                      (101.0, 3), (True, 3), (101, 0),
                                      (101, -1), (101, True), (101, 2.0)])
    def test_randomized_parameters_checked_before_any_work(self, q, m):
        # n = 3 has no bucket with two entries, so no pairwise test would
        # ever reach the modulus or the round count
        for mode in ("randomized", "cross-check"):
            with pytest.raises(ClassifyError):
                classify_trees(3, mode=mode, q=q, m=m)
        assert classify_trees(3, mode="oracle", q=q, m=m).class_count == 2

    # str(seed) names the stream: "1" would draw seed 1's, and 1.0, True
    # and None each another one
    @pytest.mark.parametrize("seed", ["1", 1.0, True, None])
    def test_seed_must_be_an_int(self, seed):
        for mode in ("randomized", "cross-check"):
            with pytest.raises(ClassifyError, match="seed"):
                classify_trees(3, mode=mode, seed=seed)

    @pytest.mark.parametrize("n", [3, 5])
    def test_modulus_must_exceed_the_tree_degree_bound(self, n):
        # two trees on n nodes have degree surrogate 4n - 2; at n = 5 a
        # smaller prime used to fail only at the first pairwise test
        for q in (p for p in (3, 5, 7, 11, 13, 17) if p <= 4 * n - 2):
            for mode in ("randomized", "cross-check"):
                with pytest.raises(ClassifyError, match=f"q > {4 * n - 2}"):
                    classify_trees(n, mode=mode, q=q)
        assert classify_trees(3, mode="cross-check", q=11).class_count == 2

    def test_composite_modulus_past_two_to_the_64(self):
        # a strong pseudoprime to every Miller-Rabin base up to 37
        for mode in ("randomized", "cross-check"):
            with pytest.raises(ClassifyError, match="2\\^64"):
                classify_trees(5, mode, q=3317044064679887385961981)

    def test_pairwise_verdicts_carry_the_tree_degree(self, monkeypatch):
        verdicts = []

        def recording(g, g2, params):
            verdicts.append(isomorphism_test(g, g2, params))
            return verdicts[-1]

        monkeypatch.setattr(classify, "isomorphism_test", recording)
        classify_trees(5, mode="randomized", q=101, m=1)
        assert verdicts
        assert {v.d_bound for v in verdicts} == {4 * 5 - 2}

    def test_pairwise_tests_per_n(self, monkeypatch):
        # buckets keyed by refined colour multisets: 14, 41 and 137 buckets,
        # of which 0, 1 and 4 hold more than one class
        calls = []

        def counting(g, g2, params):
            calls.append(g)
            return isomorphism_test(g, g2, params)

        monkeypatch.setattr(classify, "isomorphism_test", counting)
        for n, tests in ((5, 10), (6, 49), (7, 164)):
            calls.clear()
            classify_trees(n, mode="randomized")
            assert len(calls) == tests, n

    @pytest.mark.parametrize("accept", [True, False])
    def test_cross_check_reports_a_disagreeing_pair(self, monkeypatch, accept):
        class Verdict:
            accepted = accept

        monkeypatch.setattr(classify, "isomorphism_test",
                            lambda *args, **kwargs: Verdict())
        with pytest.raises(CrossCheckError) as info:
            # n = 6 is the least n with a bucket that holds two classes
            classify_trees(6, mode="cross-check")
        g1, g2 = info.value.pair
        same = pattern_isomorphic(pattern(g1), pattern(g2)) is not None
        assert same != accept

    # of n = 6's 49 pairwise tests, all but the 29th and 30th accept
    @pytest.mark.parametrize("k", [1, 10, 29, 49])
    def test_cross_check_raises_at_the_flipped_verdict(self, monkeypatch, k):
        calls = []
        monkeypatch.setattr(classify, "isomorphism_test", _flipping(k, calls))
        with pytest.raises(CrossCheckError, match="merges unequal"
                           if k == 29 else "splits equal") as info:
            classify_trees(6, mode="cross-check")
        assert len(calls) == k  # no later test ran
        assert info.value.pair == calls[-1]

    @pytest.mark.parametrize("k", [1, 10, 49])
    def test_randomized_mode_reports_the_flipped_partition(self, monkeypatch,
                                                           k):
        # a rejected merge splits the class of the tested pair in two; both
        # parts keep its key, which names each of them
        calls = []
        monkeypatch.setattr(classify, "isomorphism_test", _flipping(k, calls))
        report = classify_trees(6, mode="randomized")
        oracle = classify_trees(6, mode="oracle")
        split = Dag(6, _least_relabeling(6, [calls[k - 1][0].edges]))

        def classes(r, part):
            return [(g, size) for g, size in zip(r.representatives,
                                                  r.class_sizes)
                    if (g == split) == part]

        assert report.class_count == 43 and report.total == oracle.total
        assert classes(report, False) == classes(oracle, False)
        (_, whole), = classes(oracle, True)
        parts = [size for _, size in classes(report, True)]
        assert len(parts) == 2 and sum(parts) == whole

    def test_guard(self):
        with pytest.raises(ClassifyError):
            classify_trees(9)
        with pytest.raises(ClassifyError):
            classify_trees(0)

    def test_eight_nodes_cross_check(self):
        # no published value: the randomized test confirms the oracle's
        # partition, and the sizes add up to 8^6 * 2^7 labeled trees
        report = classify_trees(8, mode="cross-check", seed=0)
        assert report.class_count == EXPECTED_CLASS_COUNTS[8]
        assert sum(report.class_sizes) == report.total == 33_554_432
        assert report.total == labeled_tree_count(8)

    @pytest.mark.parametrize("n, mode", sorted(REPORT_DIGESTS))
    def test_report_bytes_are_pinned(self, n, mode):
        report = classify_trees(n, mode, seed=0).to_json_dict()
        digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
        assert digest == REPORT_DIGESTS[n, mode]

    def test_report_json(self):
        report = classify_trees(2)
        d = report.to_json_dict()
        assert d["class_count"] == 1
        assert d["class_sizes"] == [2]
        assert d["representatives"] == [{"n": 2, "edges": [[0, 1]]}]


class TestOrbitPipeline:
    """The orbit counts and the relabeling search against the Prüfer
    enumeration of every labeled directed tree."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_report_bytes_match_prufer_referee(self, n):
        for mode in MODES:
            got = classify_trees(n, mode=mode).to_json_dict()
            assert json.dumps(got) == json.dumps(prufer_tree_report(n, mode))

    def test_unlabeled_trees_and_their_copies(self):
        # free trees on n nodes (OEIS A000055); the labeled copies of all
        # of them are Cayley's n^(n-2) labeled trees
        counts = [1, 1, 1, 2, 3, 6, 11, 23]
        for n, count in enumerate(counts, start=1):
            trees = _unlabeled_trees(n)
            assert len(trees) == count
            assert sum(copies for _, copies in trees) \
                == (1 if n == 1 else n ** (n - 2))

    def test_least_relabeling_matches_bruteforce(self):
        for n in range(1, 6):
            perms = list(itertools.permutations(range(n)))
            for g in enumerate_tree_dags(n):
                brute = min(tuple(sorted((p[u], p[v]) for u, v in g.edges))
                            for p in perms)
                assert _least_relabeling(n, [g.sorted_edges()]) == brute, g

    def test_least_relabeling_over_several_orientations(self):
        rng = random.Random(5)
        dags = list(enumerate_tree_dags(5))
        perms = list(itertools.permutations(range(5)))
        for _ in range(100):
            group = rng.sample(dags, 3)
            brute = min(tuple(sorted((p[u], p[v]) for u, v in g.edges))
                        for g in group for p in perms)
            assert _least_relabeling(
                5, [g.sorted_edges() for g in group]) == brute

    def test_least_relabeling_over_orientations_of_one_tree(self):
        # entries hold several orientations of one labeled tree
        rng = random.Random(61)
        perms = list(itertools.permutations(range(6)))
        for _ in range(40):
            base = _prufer_decode(tuple(rng.randrange(6) for _ in range(4)), 6)
            group = [tuple(sorted((b, a) if mask >> i & 1 else (a, b)
                                  for i, (a, b) in enumerate(base)))
                     for mask in rng.sample(range(32), rng.choice((2, 3)))]
            brute = min(tuple(sorted((p[u], p[v]) for u, v in edges))
                        for edges in group for p in perms)
            assert _least_relabeling(6, group) == brute, group

    @pytest.mark.parametrize(
        "n", [*range(1, 9), pytest.param(9, marks=pytest.mark.slow)])
    def test_keys_match_reference_search_on_every_entry(self, n):
        for e in _collect_entries(n):
            assert e.key == least_relabeling_reference(n, e.orientations), e

    @pytest.mark.parametrize("n", range(1, 8))
    def test_keys_partition_like_canonical_patterns(self, n):
        entries = _collect_entries(n)

        def partition(key):
            classes = {}
            for i, e in enumerate(entries):
                classes.setdefault(key(e), set()).add(i)
            return {frozenset(c) for c in classes.values()}

        classes = partition(lambda e: e.key)
        assert classes == partition(
            lambda e: canonical_pattern_of(pattern(e.member)))
        # randomized mode's buckets never split a class
        buckets = partition(
            lambda e: tuple(sorted(_pattern_colours(pattern(e.member)))))
        assert all(any(c <= b for b in buckets) for c in classes)


def _flipping(k, calls):
    """isomorphism_test with the k-th verdict inverted; ``calls`` gets the
    pair of every test."""
    def test(g, g2, params):
        calls.append((g, g2))
        v = isomorphism_test(g, g2, params)
        if len(calls) == k:
            v = dataclasses.replace(v, answer="no" if v.accepted else "yes")
        return v
    return test


def _brute_least(n, orientations):
    return min(tuple(sorted((p[u], p[v]) for u, v in edges))
               for edges in orientations
               for p in itertools.permutations(range(n)))


class TestRelabelingPruning:
    """Each cut of the relabeling search on a tree built to reach it,
    against every relabeling. The node ids put a losing candidate first,
    so a cut that dropped the wrong one would change the key."""

    def check(self, n, orientations):
        key = _least_relabeling(n, orientations)
        assert key == _brute_least(n, orientations)
        assert key == least_relabeling_reference(n, orientations)
        return key

    def test_siblings_with_different_child_counts(self):
        # children 1 and 2 of the root: 1 has one child, 2 has two, so
        # label 1 must go to 2 and the key runs (0,1) (0,2) (1,3) (1,4)
        edges = [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5)]
        assert self.check(6, [edges]) == (
            (0, 1), (0, 2), (1, 3), (1, 4), (2, 5))

    def test_root_candidates_with_different_child_counts(self):
        # nodes 0 and 3 both have children; 3 has more and must be label 0
        edges = [(0, 1), (3, 0), (3, 2), (3, 4)]
        assert self.check(5, [edges])[:3] == ((0, 1), (0, 2), (0, 3))

    def test_back_edge_candidates_with_different_child_counts(self):
        # the root 0 labels its children 1, 2, 3 first; then collider 1 has
        # unlabeled parents 4 (no other child) and 5 (child 6): 5 must get
        # label 4 so that its child follows as (4, 5)
        edges = [(0, 1), (0, 2), (0, 3), (4, 1), (5, 1), (5, 6)]
        assert self.check(7, [edges]) == (
            (0, 1), (0, 2), (0, 3), (4, 1), (4, 5), (6, 1))

    def test_twin_leaves(self):
        # three leaf children of 0 and two leaf parents of 0, plus a twin
        # pair of leaf parents of the collider 5
        edges = [(0, 1), (0, 2), (0, 3), (4, 0), (6, 0), (0, 5), (7, 5),
                 (8, 5)]
        self.check(9, [edges])
        # nodes of degree two that share a neighbour are not twins
        self.check(4, [[(0, 1), (1, 3), (2, 0)]])
        self.check(7, [[(0, 1), (0, 2), (3, 1), (4, 2), (4, 6), (5, 3)]])

    def test_best_list_from_a_later_orientation(self):
        # three orientations of one path with different keys, in every
        # order: each orientation starts tied with the best list so far,
        # and one after the least must not replace it
        chain = [(0, 1), (1, 2), (2, 3)]
        collider = [(0, 1), (2, 1), (2, 3)]
        fork = [(1, 0), (1, 2), (2, 3)]
        keys = [_brute_least(4, [o]) for o in (fork, collider, chain)]
        assert keys == sorted(set(keys))
        for group in itertools.permutations([chain, collider, fork]):
            assert self.check(4, list(group)) == keys[0]

    def test_every_order_of_the_orientations_of_an_entry(self):
        entries = [e for e in _collect_entries(6) if len(e.orientations) > 2]
        later = 0
        for e in entries:
            later += _least_relabeling(6, e.orientations[:1]) != e.key
            for group in itertools.permutations(e.orientations[:4]):
                assert _least_relabeling(6, group) \
                    == least_relabeling_reference(6, group)
        assert later  # some entries take their key from a later orientation
