"""DAG representation, ordering, relabeling, and the pattern oracle."""

import dataclasses
import itertools
import pickle
import random

import pytest

from dagiso import (
    CycleError,
    Dag,
    DagError,
    Pattern,
    Permutation,
    apply_permutation,
    imposed_minors,
    markov_equivalent,
    nondescendants,
    pattern,
    pattern_isomorphic,
    relabel_pattern,
)
from dagiso import dag as dag_module
from dagiso.dag import _pattern_colours, descendants
from oracles import (all_dags, cycle_union, random_dag, random_permutation,
                     topo_order)

CHAIN = Dag(3, [(0, 1), (1, 2)])
FORK = Dag(3, [(0, 1), (0, 2)])
COLLIDER = Dag(3, [(0, 2), (1, 2)])


class TestConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(CycleError):
            Dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_two_cycle(self):
        with pytest.raises(CycleError):
            Dag(2, [(0, 1), (1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(DagError):
            Dag(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DagError):
            Dag(2, [(0, 2)])

    @pytest.mark.parametrize("n, edges", [
        (True, []), (2.0, []), ("3", []),
        (3, [(0, 1.5)]), (3, [(0, 1.0)]), (3, [(False, 1)]),
        (3, [("0", 1)]), (3, [([0], 1)]),
        (3, [(0, 1), (0, True)]),  # equal to an accepted edge, still no int
    ])
    def test_rejects_non_integer_count_and_ids(self, n, edges):
        with pytest.raises(DagError):
            Dag(n, edges)

    def test_duplicate_edges_collapse(self):
        assert Dag(2, [(0, 1), (0, 1)]).num_edges == 1

    def test_json_round_trip(self):
        g = Dag(4, [(2, 0), (0, 1), (1, 3)])
        assert Dag.from_json_dict(g.to_json_dict()) == g

    def test_one_based_input(self):
        d = {"n": 3, "edges": [[1, 2], [2, 3]]}
        assert Dag.from_json_dict(d, one_based=True) == CHAIN


class TestTopoSort:
    def test_chain_already_sorted(self):
        assert CHAIN.order == (0, 1, 2)

    def test_kahn_by_hand(self):
        assert Dag(3, [(2, 0), (0, 1)]).order == (2, 0, 1)

    def test_smallest_id_tie_break(self):
        assert Dag(3, [(1, 0), (2, 0)]).order == (1, 2, 0)

    def test_order_is_kept_from_construction(self):
        """``Dag.order`` against the min-ready referee on seeded DAGs, and
        after relabeling, a JSON round trip and a pickle round trip; it
        takes no part in equality, hash or repr. The same for the cached
        ``Dag.parents``, against the parents read off the edge set."""
        rng = random.Random(101)
        for _ in range(200):
            g = random_dag(rng.randrange(1, 30), rng,
                           p=rng.choice((0.1, 0.3, 0.6)))
            perm = Permutation(random_permutation(g.n, rng))
            for h in (g, apply_permutation(g, perm),
                      Dag.from_json_dict(g.to_json_dict()),
                      pickle.loads(pickle.dumps(g))):
                assert h.order == tuple(topo_order(h))
                assert h.parents == tuple(
                    tuple(sorted(u for u, v in h.edges if v == i))
                    for i in range(h.n))
            copy = pickle.loads(pickle.dumps(g))
            assert copy == g and hash(copy) == hash(g)
            assert copy.parents == g.parents
            assert "order" not in repr(g) and "parents" not in repr(g)
        assert [f.name for f in dataclasses.fields(Dag)] == ["n", "edges"]

    def test_colours_are_kept_pattern_colours(self, monkeypatch):
        """``Dag.colours`` is ``_pattern_colours`` of the pattern, computed
        once from the parent lists with no Pattern built, and takes no part
        in equality, hash or repr."""
        built = []
        real = dag_module.Pattern.__init__

        def spy(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(dag_module.Pattern, "__init__", spy)
        rng = random.Random(103)
        graphs = [g for n in range(1, 13)
                  for g in (Dag(n), Dag(n, itertools.combinations(range(n), 2)),
                            *(random_dag(n, rng, p=rng.random())
                              for _ in range(5)))]
        for g in graphs:
            colours = g.colours
            assert built == []
            assert colours == tuple(_pattern_colours(pattern(g)))
            assert g.colours is colours
            built.clear()
            fresh = Dag(g.n, g.edges)
            assert fresh == g and hash(fresh) == hash(g)
            assert "colours" not in repr(g)
        assert COLLIDER.colours == (((1, 0, 1), 0), ((1, 0, 1), 0),
                                    ((2, 1, 0), 1))

    def test_witness_table_lists_each_imposed_minor_under_its_indices(self):
        """``Dag.minors_by_index`` lists every ``imposed_minors`` entry
        once under each index it reads, with the bitmask of those indices,
        lowest order first and otherwise in ``imposed_minors`` order. It
        and ``Dag.plan`` are built once and take no part in equality, hash
        or repr."""
        rng = random.Random(107)
        for _ in range(200):
            g = random_dag(rng.randrange(1, 13), rng,
                           p=rng.choice((0.1, 0.3, 0.6)))
            table, plan = g.minors_by_index, g.plan
            assert g.minors_by_index is table and g.plan is plan
            minors = [(m.rows, m.cols) for m in imposed_minors(g)]
            assert len(table) == g.n
            for v, entries in enumerate(table):
                assert [rc for _, rc in entries] == sorted(
                    (rc for rc in minors if v in rc[0] + rc[1]),
                    key=lambda rc: len(rc[0]))
                for mask, (rows, cols) in entries:
                    assert mask == sum(1 << x for x in {*rows, *cols})
            fresh = Dag(g.n, g.edges)
            assert fresh == g and hash(fresh) == hash(g)
            assert "plan" not in repr(g) and "minors" not in repr(g)

    def test_parent_precedes_child_everywhere(self):
        for n in (2, 3, 4):
            for g in all_dags(n):
                order = g.order
                pos = {v: k for k, v in enumerate(order)}
                assert all(pos[u] < pos[v] for u, v in g.edges)


class TestNondescendants:
    def test_chain_middle(self):
        assert nondescendants(CHAIN, 1) == frozenset({0})

    def test_collider_source(self):
        assert nondescendants(COLLIDER, 0) == frozenset({1})

    def test_edgeless(self):
        assert nondescendants(Dag(3), 0) == frozenset({1, 2})

    def test_out_of_range(self):
        for node in (3, -1):
            for query in (nondescendants, descendants):
                with pytest.raises(DagError):
                    query(CHAIN, node)

    @pytest.mark.parametrize("node", [True, 1.0, "1"])
    def test_rejects_a_node_that_is_not_an_int(self, node):
        for query in (nondescendants, descendants):
            with pytest.raises(DagError):
                query(CHAIN, node)


class TestApplyPermutation:
    def test_swap_on_chain(self):
        g = apply_permutation(CHAIN, Permutation((1, 0, 2)))
        assert g.edges == frozenset({(1, 0), (0, 2)})

    def test_identity(self):
        assert apply_permutation(CHAIN, Permutation.identity(3)) == CHAIN

    def test_three_cycle_on_collider(self):
        g = apply_permutation(COLLIDER, Permutation((1, 2, 0)))
        assert g.edges == frozenset({(1, 0), (2, 0)})

    def test_permutation_validation(self):
        with pytest.raises(DagError):
            Permutation((0, 0, 2))
        # unequal sizes used to truncate, or fail with a bare IndexError
        for a, b in ((3, 2), (2, 3)):
            with pytest.raises(DagError):
                Permutation.identity(a).compose(Permutation.identity(b))

    @pytest.mark.parametrize("mapping", [
        [0.5, 1], [1.0, 0.0], [True, False], ["1", "0"], [0, 2.0, 1]])
    def test_permutation_rejects_non_integer_images(self, mapping):
        with pytest.raises(DagError):
            Permutation(mapping)


class TestPattern:
    def test_chain(self):
        p = pattern(CHAIN)
        assert p.skeleton == frozenset({(0, 1), (1, 2)})
        assert p.immoralities == frozenset()

    def test_fork_matches_chain(self):
        p = pattern(FORK)
        assert p.skeleton == frozenset({(0, 1), (0, 2)})
        assert p.immoralities == frozenset()

    def test_collider(self):
        p = pattern(COLLIDER)
        assert p.skeleton == frozenset({(0, 2), (1, 2)})
        assert p.immoralities == frozenset({(0, 2, 1)})

    def test_shielded_collider_is_moral(self):
        g = Dag(3, [(0, 2), (1, 2), (0, 1)])
        assert pattern(g).immoralities == frozenset()

    def test_immorality_validation(self):
        with pytest.raises(DagError):
            Pattern(3, [(0, 2), (1, 2), (0, 1)], [(0, 2, 1)])

    @pytest.mark.parametrize("n, skeleton, imms", [
        (2.7, [], []), (True, [], []), ("3", [], []),
        (3, [(0, 1.0)], []), (3, [(0, True)], []),
        (3, [(0, 2), (1, 2)], [(0, 2.0, 1)]), (3, [(0, "1")], []),
        # node counts and ids that are ints but not nodes
        (-2, [], []), (0, [], []), (2, [(0, 5)], []), (2, [(-1, 0)], []),
        (2, [(1, 1)], []), (2, [(0, 1)], [(0, 1, 0)]),
        (3, [(0, 1), (1, 2)], [(0, 1, 3)])])
    def test_rejects_non_integer_count_and_ids(self, n, skeleton, imms):
        with pytest.raises(DagError):
            Pattern(n, skeleton, imms)


class TestPatternIsomorphic:
    def test_chain_fork_swap(self):
        w = pattern_isomorphic(pattern(CHAIN), pattern(FORK))
        assert w is not None
        assert relabel_pattern(pattern(CHAIN), w) == pattern(FORK)

    def test_chain_collider_none(self):
        assert pattern_isomorphic(pattern(CHAIN), pattern(COLLIDER)) is None

    @pytest.mark.parametrize("size", [2, 4])
    def test_relabel_rejects_a_permutation_of_another_size(self, size):
        with pytest.raises(DagError, match="size"):
            relabel_pattern(pattern(CHAIN), Permutation.identity(size))

    def test_reflexive_identity(self):
        p = pattern(CHAIN)
        assert pattern_isomorphic(p, p) == Permutation.identity(3)

    def test_reflexive_all_n4(self):
        for g in all_dags(4):
            assert pattern_isomorphic(pattern(g), pattern(g)) is not None

    def test_symmetric_witness_inverse_n3(self):
        dags = list(all_dags(3))
        for g1, g2 in itertools.product(dags, repeat=2):
            w = pattern_isomorphic(pattern(g1), pattern(g2))
            back = pattern_isomorphic(pattern(g2), pattern(g1))
            assert (w is None) == (back is None)
            if w is not None:
                assert relabel_pattern(pattern(g2), w.inverse()) == pattern(g1)

    def test_first_witness_matches_bruteforce_scan(self):
        # Referee: the first relabeling from itertools.permutations whose
        # relabel_pattern equals the target pattern, for every pair of
        # DAGs with n <= 4 and equal edge counts, and for seeded unions of
        # cycles (with relabeled copies) at n = 5, 6, where every degree
        # is 2 and refined colours prune more than degrees do.
        rng = random.Random(31)
        cases = [list(all_dags(n)) for n in range(1, 5)]
        for n in (5, 6):
            unions = [cycle_union(n, rng) for _ in range(8)]
            cases.append(unions + [
                apply_permutation(g, Permutation(random_permutation(n, rng)))
                for g in unions])
        for dags in cases:
            n = dags[0].n
            pats = {g: pattern(g) for g in dags}
            perms = [Permutation(p) for p in itertools.permutations(range(n))]
            for g1 in dags:
                first = {}
                for q in perms:
                    first.setdefault(relabel_pattern(pats[g1], q), q)
                for g2 in dags:
                    if g2.num_edges == g1.num_edges:
                        assert pattern_isomorphic(pats[g1], pats[g2]) \
                            == first.get(pats[g2])

    def test_transitive_witness_composition(self):
        rng = random.Random(7)
        dags = list(all_dags(4))
        for _ in range(300):
            g1 = rng.choice(dags)
            p12 = random_permutation(4, rng)
            p23 = random_permutation(4, rng)
            g2 = apply_permutation(g1, Permutation(p12))
            g3 = apply_permutation(g2, Permutation(p23))
            w12 = pattern_isomorphic(pattern(g1), pattern(g2))
            w23 = pattern_isomorphic(pattern(g2), pattern(g3))
            assert w12 is not None and w23 is not None
            composed = w23.compose(w12)
            assert relabel_pattern(pattern(g1), composed) == pattern(g3)


class TestPatternColours:
    def test_invariant_under_relabeling(self):
        # _pattern_colours(relabel(p, q))[q(v)] == _pattern_colours(p)[v]
        rng = random.Random(17)
        every = [Permutation(q) for q in itertools.permutations(range(4))]
        cases = [(g, every) for g in all_dags(4)]
        cases += [(random_dag(n, rng), [Permutation(random_permutation(
            n, rng)) for _ in range(4)]) for n in (6, 7, 8) for _ in range(30)]
        for g, perms in cases:
            p = pattern(g)
            colours = _pattern_colours(p)
            for q in perms:
                moved = _pattern_colours(relabel_pattern(p, q))
                assert [moved[q(v)] for v in range(g.n)] == colours, (g, q)

    def test_seeds_count_degrees_centres_and_tips(self):
        # 0 -> 2 <- 1, 2 -> 3: node 2 centres one immorality, 0 and 1 are
        # its tips, and the leaf 3 hangs off the centre
        p = pattern(Dag(4, [(0, 2), (1, 2), (2, 3)]))
        assert [seed for seed, _ in _pattern_colours(p)] \
            == [(1, 0, 1), (1, 0, 1), (3, 1, 0), (1, 0, 0)]


class TestInvariants:
    def test_pattern_commutes_with_relabeling(self):
        rng = random.Random(3)
        cases = [(g, perm) for g in all_dags(3)
                 for perm in itertools.permutations(range(3))]
        cases += [(random_dag(5, rng), random_permutation(5, rng))
                  for _ in range(200)]
        for g, perm in cases:
            p = Permutation(perm)
            assert pattern(apply_permutation(g, p)) \
                == relabel_pattern(pattern(g), p)

    def test_equal_pattern_implies_equal_edge_count(self):
        for g1, g2 in itertools.product(all_dags(3), repeat=2):
            if markov_equivalent(g1, g2):
                assert g1.num_edges == g2.num_edges

    def test_isomorphic_implies_equal_edge_count(self):
        dags = list(all_dags(4))
        for g1, g2 in itertools.product(dags[::7], dags[::11]):
            if pattern_isomorphic(pattern(g1), pattern(g2)) is not None:
                assert g1.num_edges == g2.num_edges

    def test_dag_counts(self):
        assert sum(1 for _ in all_dags(3)) == 25
        assert sum(1 for _ in all_dags(4)) == 543
