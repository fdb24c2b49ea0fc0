"""Directed tree enumeration and isomorphism-class counting."""

import itertools
import json
import random

import pytest

from dagiso import (
    ClassifyError,
    Dag,
    canonical_pattern,
    classify_trees,
    enumerate_tree_dags,
    labeled_tree_count,
    pattern,
    pattern_isomorphic,
)
from dagiso.classify import _least_relabeling, _unlabeled_trees
from oracles import prufer_tree_report

CHAIN = Dag(3, [(0, 1), (1, 2)])
FORK = Dag(3, [(0, 1), (0, 2)])
COLLIDER = Dag(3, [(0, 2), (1, 2)])

EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 142,
                         8: 495}
MODES = ("oracle", "randomized", "cross-check")


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
        assert canonical_pattern(CHAIN) == canonical_pattern(FORK)

    def test_chain_differs_from_collider(self):
        assert canonical_pattern(CHAIN) != canonical_pattern(COLLIDER)

    def test_single_node_fixed(self):
        assert canonical_pattern(Dag(1)) == canonical_pattern(Dag(1))
        assert canonical_pattern(Dag(1)) != canonical_pattern(Dag(2))

    def test_equal_strings_iff_isomorphic_exhaustive_n3(self):
        from oracles import all_dags
        dags = list(all_dags(3))
        for g1, g2 in itertools.combinations(dags, 2):
            same = canonical_pattern(g1) == canonical_pattern(g2)
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
            assert canonical_pattern(g) == canonical_pattern(g2)

    def test_guard(self):
        with pytest.raises(ClassifyError):
            canonical_pattern(Dag(11))


class TestClassifyTrees:
    def test_oracle_counts_small(self):
        for n in (1, 2, 3, 4, 5):
            report = classify_trees(n, mode="oracle")
            assert report.class_count == EXPECTED_CLASS_COUNTS[n]
            assert sum(report.class_sizes) == labeled_tree_count(n)
            assert report.total == labeled_tree_count(n)

    def test_three_node_classes_are_chain_and_collider(self):
        report = classify_trees(3, mode="oracle")
        keys = {canonical_pattern(g) for g in report.representatives}
        assert keys == {canonical_pattern(CHAIN), canonical_pattern(COLLIDER)}

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
