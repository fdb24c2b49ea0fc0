"""d-separation, imposed/implied relation lists, minors, tree generators,
marginalization, and the lies-below check."""

import itertools
import random

import pytest

from dagiso import (
    CiError,
    CiStatement,
    Dag,
    MinorSpec,
    TreeRelation,
    d_separated,
    implied_relations,
    imposed_minors,
    lies_below_ci,
    marginal_implied,
    pattern,
    toposorted_imposed,
    tree_reduced_generators,
)
from oracles import all_dags, dsep_bruteforce, random_dag

CHAIN = Dag(3, [(0, 1), (1, 2)])
FORK = Dag(3, [(0, 1), (0, 2)])
COLLIDER = Dag(3, [(0, 2), (1, 2)])
# 4-node fixture: 0 -> 1, 1 -> 2, 1 -> 3, 2 -> 3
DIAMONDISH = Dag(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
# two directed paths 0 -> {1,2} -> 3
SPLIT_MERGE = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def stmts(pairs):
    return [CiStatement(i, j, cond) for i, j, cond in pairs]


class TestCiStatement:
    def test_rejects_equal_endpoints(self):
        with pytest.raises(CiError):
            CiStatement(1, 1, ())

    def test_rejects_overlap(self):
        with pytest.raises(CiError):
            CiStatement(0, 1, (1,))

    def test_json(self):
        assert CiStatement(2, 0, (3, 1)).to_json_dict() \
            == {"i": 2, "j": 0, "cond": [1, 3]}

    @pytest.mark.parametrize("i, j, cond", [
        (1.9, 0, [2]), (1, 0, [2.2]), (True, 0, ()), (1, "0", ()),
        (2, 0, [True])])
    def test_rejects_non_integer_nodes(self, i, j, cond):
        with pytest.raises(CiError):
            CiStatement(i, j, cond)


class TestDSeparated:
    def test_chain_blocked_by_middle(self):
        assert d_separated(CHAIN, 0, 2, (1,))
        assert not d_separated(CHAIN, 0, 2, ())

    def test_collider_opens_on_conditioning(self):
        assert d_separated(COLLIDER, 0, 1, ())
        assert not d_separated(COLLIDER, 0, 1, (2,))

    def test_edgeless(self):
        assert d_separated(Dag(2), 0, 1, ())

    def test_collider_descendant_opens(self):
        g = Dag(4, [(0, 2), (1, 2), (2, 3)])
        assert not d_separated(g, 0, 1, (3,))

    def test_overlap_rejected(self):
        with pytest.raises(CiError):
            d_separated(CHAIN, 0, 2, (0,))
        with pytest.raises(CiError):
            d_separated(CHAIN, 0, 0, ())

    @pytest.mark.parametrize("i, j, cond", [
        (0, 2.0, [1]), (0.0, 2, [1]), (0, 2, [1.0]), (True, 2, ()),
        (0, "2", ())])
    def test_rejects_non_integer_nodes(self, i, j, cond):
        with pytest.raises(CiError):
            d_separated(CHAIN, i, j, cond)

    def test_agrees_with_bruteforce_exhaustively(self):
        for n in (3, 4):
            for g in all_dags(n):
                for i, j in itertools.combinations(range(n), 2):
                    rest = [v for v in range(n) if v not in (i, j)]
                    for size in range(len(rest) + 1):
                        for cond in itertools.combinations(rest, size):
                            assert d_separated(g, i, j, cond) \
                                == dsep_bruteforce(g, i, j, cond)

    def test_agrees_with_bruteforce_random_n5(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_dag(5, rng)
            for _ in range(10):
                i, j = rng.sample(range(5), 2)
                rest = [v for v in range(5) if v not in (i, j)]
                cond = tuple(v for v in rest if rng.random() < 0.5)
                assert d_separated(g, i, j, cond) \
                    == dsep_bruteforce(g, i, j, cond)


class TestToposortedImposed:
    def test_four_node_fixture(self):
        assert toposorted_imposed(DIAMONDISH) == stmts(
            [(2, 0, {1}), (3, 0, {1, 2})])

    def test_complete_dag_empty(self):
        g = Dag(3, [(0, 1), (0, 2), (1, 2)])
        assert toposorted_imposed(g) == []

    def test_edgeless_full_independence(self):
        assert toposorted_imposed(Dag(3)) == stmts(
            [(1, 0, ()), (2, 0, ()), (2, 1, ())])


class TestImpliedRelations:
    def test_chain(self):
        assert implied_relations(CHAIN) == stmts([(0, 2, {1})])

    def test_four_node_fixture_complete_list(self):
        assert implied_relations(DIAMONDISH) == stmts(
            [(0, 2, {1}), (0, 2, {1, 3}), (0, 3, {1}), (0, 3, {1, 2})])

    def test_complete_dag(self):
        g = Dag(3, [(0, 1), (0, 2), (1, 2)])
        assert implied_relations(g) == []

    def test_size_guard(self):
        with pytest.raises(CiError):
            implied_relations(Dag(13))

    def test_imposed_subset_of_implied(self):
        rng = random.Random(5)
        dags = list(all_dags(4)) + [random_dag(6, rng) for _ in range(40)]
        for g in dags:
            implied = {(frozenset({s.i, s.j}), s.cond)
                       for s in implied_relations(g)}
            for s in toposorted_imposed(g):
                assert (frozenset({s.i, s.j}), s.cond) in implied

    def test_equal_implied_iff_equal_pattern(self):
        dags = list(all_dags(4))
        by_implied = {}
        by_pattern = {}
        for k, g in enumerate(dags):
            key_i = frozenset((frozenset({s.i, s.j}), s.cond)
                              for s in implied_relations(g))
            key_p = pattern(g)
            by_implied.setdefault(key_i, set()).add(k)
            by_pattern.setdefault(key_p, set()).add(k)
        assert set(map(frozenset, by_implied.values())) \
            == set(map(frozenset, by_pattern.values()))


class TestImposedMinors:
    def test_four_node_fixture_golden(self):
        minors = imposed_minors(DIAMONDISH)
        assert minors == [MinorSpec((2, 1), (0, 1)),
                          MinorSpec((3, 1, 2), (0, 1, 2))]
        # 1-based renderings, as unordered row/col set pairs
        rendered = [{m.one_based()[0], m.one_based()[1]} for m in minors]
        assert rendered == [{(3, 2), (1, 2)}, {(4, 2, 3), (1, 2, 3)}]
        assert [m.label() for m in minors] \
            == ["|sigma_{32,12}|", "|sigma_{423,123}|"]

    def test_chain_single_minor(self):
        assert imposed_minors(CHAIN) == [MinorSpec((2, 1), (0, 1))]

    def test_complete_dag_empty(self):
        g = Dag(3, [(0, 1), (0, 2), (1, 2)])
        assert imposed_minors(g) == []

    def test_minor_spec_square(self):
        with pytest.raises(CiError):
            MinorSpec((0, 1), (2,))

    @pytest.mark.parametrize("rows, cols", [
        ((2.0, 1), (0, 1)), ((2, 1), (0, True)), (("2",), ("0",))])
    def test_minor_spec_rejects_non_integer_indices(self, rows, cols):
        with pytest.raises(CiError):
            MinorSpec(rows, cols)


class TestTreeReducedGenerators:
    def test_chain(self):
        assert tree_reduced_generators(CHAIN) \
            == [TreeRelation("quadratic", 0, 2, 1)]

    def test_edgeless_pair(self):
        assert tree_reduced_generators(Dag(2)) == [TreeRelation("linear", 0, 1)]

    def test_star(self):
        star = Dag(4, [(0, 1), (0, 2), (0, 3)])
        assert tree_reduced_generators(star) == [
            TreeRelation("quadratic", 1, 2, 0),
            TreeRelation("quadratic", 1, 3, 0),
            TreeRelation("quadratic", 2, 3, 0),
        ]

    def test_collider_gives_linear(self):
        assert tree_reduced_generators(COLLIDER) == [TreeRelation("linear", 0, 1)]

    def test_non_forest_rejected(self):
        with pytest.raises(CiError):
            tree_reduced_generators(SPLIT_MERGE)

    def test_relation_validation(self):
        for args in [("quadratic", 0, 1), ("linear", 0, 1, 2),
                     ("linear", 0.5, 1), ("quadratic", True, 2, 0),
                     ("quadratic", 0, 2, 1.0), ("linear", "0", 1)]:
            with pytest.raises(CiError):
                TreeRelation(*args)


class TestMarginalImplied:
    def test_eliminating_sink_leaves_fork_relation(self):
        assert marginal_implied(SPLIT_MERGE, {3}) == stmts([(1, 2, {0})])

    def test_eliminating_middle_gives_dense_model(self):
        assert marginal_implied(SPLIT_MERGE, {1}) == []

    def test_empty_elimination_is_identity(self):
        assert marginal_implied(SPLIT_MERGE, ()) \
            == implied_relations(SPLIT_MERGE)

    def test_out_of_range(self):
        with pytest.raises(CiError):
            marginal_implied(SPLIT_MERGE, {4})

    @pytest.mark.parametrize("eliminate", [[2.7], [True], ["2"], [2.0]])
    def test_rejects_non_integer_nodes(self, eliminate):
        with pytest.raises(CiError):
            marginal_implied(CHAIN, eliminate)


class TestLiesBelow:
    def test_fork_below_split_merge(self):
        assert lies_below_ci(FORK, SPLIT_MERGE, (0, 1, 2))

    def test_chain_not_below_through_open_path(self):
        assert not lies_below_ci(CHAIN, SPLIT_MERGE, (0, 2, 3))

    def test_single_node_vacuous(self):
        assert lies_below_ci(Dag(1), SPLIT_MERGE, (2,))

    def test_non_injective_rejected(self):
        with pytest.raises(CiError):
            lies_below_ci(FORK, SPLIT_MERGE, (0, 1, 1))

    def test_wrong_length_rejected(self):
        with pytest.raises(CiError):
            lies_below_ci(FORK, SPLIT_MERGE, (0, 1))

    @pytest.mark.parametrize("embed", [
        [0.9, 1.5], [False, True], ["0", "1"], [0, 1.0],
    ])
    def test_rejects_non_integer_nodes(self, embed):
        with pytest.raises(CiError):
            lies_below_ci(Dag(2, [(0, 1)]), CHAIN, embed)


def test_node_plan_matches_membership_construction():
    """``Dag.plan`` keeps the nodes whose prefix in the topological order
    is longer than their parent set; the plain construction tests every
    earlier node for membership in the parent set."""
    rng = random.Random(89)
    for _ in range(300):
        n = rng.randrange(1, 61)
        g = random_dag(n, rng, p=rng.choice((0.05, 0.1, 0.3, 0.6)))
        order = g.order
        pa = g.parent_sets()
        want = []
        for pos, i in enumerate(order):
            if any(j not in pa[i] for j in order[:pos]):
                want.append((i, tuple(sorted(pa[i])), pos))
        assert g.plan == tuple(want)
        # a position per node, never the prefix itself: O(n) per graph
        assert all(type(pos) is int for _, _, pos in g.plan)
