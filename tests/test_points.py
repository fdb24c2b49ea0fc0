"""Variety points: SEM covariances, the finite-field sampler, membership,
and the rank-based Gaussian CI test."""

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dagiso import points, randomized
from dagiso import (
    CiError,
    Dag,
    DagError,
    FieldArithmeticError,
    IsoParams,
    MinorSpec,
    ParameterError,
    Permutation,
    PrimeField,
    SamplerError,
    SemParams,
    SingularPivotError,
    SymPoint,
    TreeRelation,
    apply_permutation,
    complete_point,
    d_separated,
    degree_surrogate,
    equivalence_test,
    gaussian_ci,
    implied_relations,
    minor_eval,
    on_variety,
    principal_minors_nonzero,
    relation_eval,
    sample_point,
    sem_covariance,
    tree_reduced_generators,
)
from dagiso.fields import _det_and_rank, is_prime
from dagiso.points import _forced_entries, _minors_vanish, _solve_mod
from oracles import (
    all_dags,
    complete_point_bordered,
    covered_edge_partner,
    det_exact,
    minors_vanish_or_singular,
    principal_minors_nonzero_naive,
    random_dag,
    random_dag_with_edges,
    solve_by_echelon,
)

F7 = PrimeField(7)
M31 = PrimeField(2**31 - 1)


def descendants_by_dfs(g, i):
    """The proper descendants of i, by a search over ``g.child_sets()``."""
    ch, seen, stack = g.child_sets(), set(), [i]
    while stack:
        for v in ch[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def check_or_singular(p, left):
    """``_minors_vanish(p, left)``, or "singular" where it raises on a
    singular block."""
    try:
        return _minors_vanish(p, left)
    except SingularPivotError:
        return "singular"


def draw_on_demand(g, field, seed, steps):
    """The first ``_OnDemandPoint`` of ``g`` with the entries of ``steps``
    whose blocks are nonsingular, over the draws from ``seed``."""
    return points._draw(g, field, seed, lambda values:
                        points._OnDemandPoint(g, values, field, steps))


CHAIN = Dag(3, [(0, 1), (1, 2)])
FORK = Dag(3, [(0, 1), (0, 2)])

# Singular limit covariance on (X, Y, Z, W) with Z = X and Y = W:
# conditioning on {Y, W} no longer separates X from Z.
SINGULAR_LIMIT = [[1, 0, 1, 0],
                  [0, 1, 0, 1],
                  [1, 0, 1, 0],
                  [0, 1, 0, 1]]

CHAIN_MINOR = MinorSpec((2, 1), (0, 1))


def unit_sem(g, alpha_value=1):
    return SemParams(g,
                     {e: Fraction(alpha_value) for e in g.edges},
                     {i: Fraction(1) for i in range(g.n)})


def random_sem(g, rng, bound=9):
    alpha = {e: Fraction(rng.randint(-bound, bound)) for e in g.edges}
    omega = {}
    for i in range(g.n):
        w = 0
        while w == 0:
            w = rng.randint(-bound, bound)
        omega[i] = Fraction(w)
    return SemParams(g, alpha, omega)


class TestSymPoint:
    def test_rejects_asymmetric(self):
        with pytest.raises(FieldArithmeticError):
            SymPoint(F7, [[1, 2], [3, 1]])

    def test_rejects_zero_diagonal(self):
        with pytest.raises(FieldArithmeticError):
            SymPoint(None, [[0, 1], [1, 1]])

    def test_relabel_moves_entries(self):
        p = SymPoint(F7, [[1, 2, 3], [2, 1, 4], [3, 4, 1]])
        q = Permutation((1, 2, 0))
        moved = p.relabel(q)
        for i, j in itertools.product(range(3), repeat=2):
            assert moved.mat[q(i)][q(j)] == p.mat[i][j]

    def test_json(self):
        p = SymPoint(F7, [[1, 3], [3, 1]])
        assert p.to_json_dict() == {"q": 7, "mat": [[1, 3], [3, 1]]}

    @pytest.mark.parametrize("field, entry", [
        (F7, True), (F7, 2.0), (F7, 2.5), (F7, "2"), (F7, Fraction(2)),
        (None, True), (None, 0.5), (None, "1/2"),
    ])
    def test_rejects_inexact_entries(self, field, entry):
        with pytest.raises(FieldArithmeticError):
            SymPoint(field, [[1, entry], [entry, 1]])

    @pytest.mark.parametrize("field", [7, 7.0, "7", SimpleNamespace(q=4)])
    def test_rejects_a_field_that_is_not_a_prime_field(self, field):
        class Unread:  # a matrix whose entries must not be read
            def __iter__(self):
                raise AssertionError("an entry was read before the check")

        with pytest.raises(FieldArithmeticError, match="PrimeField"):
            SymPoint(field, Unread())

    def test_trusted_constructor_matches_checked(self):
        rng = random.Random(79)
        for _ in range(60):
            g = random_dag(rng.randrange(1, 9), rng, p=0.4)
            field = PrimeField(rng.choice((101, 2**31 - 1)))
            p = sample_point(g, field, rng.randrange(100))
            checked = SymPoint(field, p.mat)
            assert checked == p
            assert type(p.mat) is tuple
            assert all(type(r) is tuple for r in p.mat)
            assert all(type(x) is int for r in p.mat for x in r)


class TestMinorEval:
    def test_chain_point_vanishes(self):
        a, b = Fraction(2, 3), Fraction(-5, 7)
        p = SymPoint(None, [[1, a, a * b], [a, 1, b], [a * b, b, 1]])
        assert minor_eval(p, CHAIN_MINOR) == 0

    def test_identity_point(self):
        p = SymPoint(F7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert minor_eval(p, MinorSpec((0, 1), (2, 1))) == 0

    def test_nonvanishing_chain_minor(self):
        p = SymPoint(None, [[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert minor_eval(p, CHAIN_MINOR) == Fraction(-1)

    def test_matches_det_and_rank_on_random_submatrices(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(2, 6)
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                mat[i][i] = rng.randrange(1, 7)
                for j in range(i + 1, n):
                    mat[i][j] = mat[j][i] = rng.randrange(7)
            p = SymPoint(F7, mat)
            size = rng.randrange(1, n + 1)
            rows = tuple(rng.sample(range(n), size))
            cols = tuple(rng.sample(range(n), size))
            spec = MinorSpec(rows, cols)
            sub = [[mat[r][c] for c in cols] for r in rows]
            assert minor_eval(p, spec) == _det_and_rank(sub, 7)[0]

    def test_out_of_range(self):
        p = SymPoint(F7, [[1, 0], [0, 1]])
        with pytest.raises(Exception):
            minor_eval(p, MinorSpec((0, 2), (1, 0)))
        # reduced tree generators index the point the same way
        p3 = SymPoint(F7, [[1, 2, 3], [2, 1, 4], [3, 4, 1]])
        for rel in (TreeRelation("linear", -1, 0),
                    TreeRelation("linear", 0, 3),
                    TreeRelation("quadratic", 0, 2, 5)):
            with pytest.raises(CiError):
                relation_eval(p3, rel)
        assert relation_eval(p3, TreeRelation("quadratic", 0, 2, 1)) \
            == (3 - 2 * 4) % 7


class TestSemCovariance:
    def test_chain_raw_expansion(self):
        sigma = sem_covariance(unit_sem(CHAIN))
        assert [list(r) for r in sigma.mat] \
            == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]

    def test_edgeless_diagonal(self):
        g = Dag(3)
        params = SemParams(g, {}, {0: Fraction(2), 1: Fraction(3),
                                   2: Fraction(1, 2)})
        sigma = sem_covariance(params)
        assert sigma.mat == ((Fraction(4), 0, 0), (0, Fraction(9), 0),
                             (0, 0, Fraction(1, 4)))
        assert on_variety(sigma, g)

    def test_fork_common_cause_covariance(self):
        sigma = sem_covariance(unit_sem(FORK))
        assert sigma.mat[1][2] == sigma.mat[0][1] * sigma.mat[0][2] == 1

    def test_alpha_support_validated(self):
        with pytest.raises(Exception):
            SemParams(CHAIN, {(0, 1): Fraction(1)}, {i: Fraction(1)
                                                     for i in range(3)})

    def test_omega_nonzero_validated(self):
        with pytest.raises(Exception):
            SemParams(CHAIN, {e: Fraction(1) for e in CHAIN.edges},
                      {0: Fraction(1), 1: Fraction(0), 2: Fraction(1)})

    def test_parameters_are_read_only(self):
        # a write after construction would skip the nonzero-omega check
        params = unit_sem(CHAIN)
        with pytest.raises(TypeError):
            params.omega[1] = 0
        with pytest.raises(TypeError):
            params.alpha[(0, 1)] = Fraction(2)
        assert params.omega[1] == 1 and params.alpha[(0, 1)] == 1

    @pytest.mark.parametrize("alpha, omega", [
        ({(0.0, 1.0): 1}, {0: 1, 1: 2}),
        ({(False, True): 1}, {0: 1, 1: 2}),
        ({(0, 1): 1}, {0: 1, 1.0: 2}),
        ({(0, 1): 1}, {False: 1, 1: 2}),
        ({(0, 1): 1}, {0: 1, "1": 2}),
    ])
    def test_rejects_non_integer_keys(self, alpha, omega):
        with pytest.raises(DagError):
            SemParams(Dag(2, [(0, 1)]), alpha, omega)

    @pytest.mark.parametrize("alpha, omega", [
        ({(0, 1): 0.1}, {0: 1, 1: 2}),
        ({(0, 1): True}, {0: 1, 1: 2}),
        ({(0, 1): "1/2"}, {0: 1, 1: 2}),
        ({(0, 1): 1}, {0: 1, 1: 0.5}),
        ({(0, 1): 1}, {0: True, 1: 2}),
        ({(0, 1): 1}, {0: 1, 1: "2"}),
    ])
    def test_rejects_inexact_values(self, alpha, omega):
        with pytest.raises(DagError):
            SemParams(Dag(2, [(0, 1)]), alpha, omega)

    def test_on_variety_exactly_for_random_sems(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randrange(2, 9)
            g = random_dag(n, rng)
            sigma = sem_covariance(random_sem(g, rng))
            assert on_variety(sigma, g)


class TestCompletePoint:
    def test_chain_forced_entry_mod_seven(self):
        p = complete_point(CHAIN, {(0, 1): 3, (1, 2): 2}, F7)
        assert p.mat[0][2] == 6
        # a draw the sampler itself would reject: 1 - 6^2 = 0 mod 7
        assert not principal_minors_nonzero(p)

    def test_chain_admissible_draw_mod_seven(self):
        p = complete_point(CHAIN, {(0, 1): 3, (1, 2): 3}, F7)
        assert p.mat[0][2] == 2
        assert principal_minors_nonzero(p)

    def test_edgeless_pair_forces_zero(self):
        p = complete_point(Dag(2), {}, F7)
        assert p.mat[0][1] == 0

    def test_complete_dag_keeps_draws(self):
        g = Dag(3, [(0, 1), (0, 2), (1, 2)])
        p = complete_point(g, {(0, 1): 2, (0, 2): 3, (1, 2): 5}, F7)
        assert (p.mat[0][1], p.mat[0][2], p.mat[1][2]) == (2, 3, 5)

    def test_requires_exact_edge_keys(self):
        with pytest.raises(Exception):
            complete_point(CHAIN, {(0, 1): 3}, F7)
        # a float would be stored as is and forced into later entries,
        # and True would count as 1
        # and a field that is not a PrimeField has no modulus to reduce by
        for g, values, field in ((Dag(2, [(0, 1)]), {(0, 1): 0.5}, F7),
                                 (CHAIN, {(0, 1): 0.5, (1, 2): 2}, F7),
                                 (CHAIN, {(0, 1): 3, (1, 2): True}, F7),
                                 (CHAIN, {(0, 1): 3, (1, 2): 2}, None),
                                 (CHAIN, {(0, 1): 3, (1, 2): 2}, 7)):
            with pytest.raises(FieldArithmeticError):
                complete_point(g, values, field)


def completion_or_none(g, values, field):
    """The library completion as row lists, None on a singular pivot."""
    try:
        return [list(r) for r in complete_point(g, values, field).mat]
    except SingularPivotError:
        return None


class TestKernelsAgainstOracles:
    """The one-solve-per-node completion and the Schur-complement
    principal-minor walk against one determinant per entry or minor."""

    def test_every_symmetric_3x3_over_f3(self):
        # every one with a nonzero diagonal, as SymPoint requires
        f3 = PrimeField(3)
        seen = set()
        for d in itertools.product((1, 2), repeat=3):
            for a, b, c in itertools.product(range(3), repeat=3):
                mat = [[d[0], a, b], [a, d[1], c], [b, c, d[2]]]
                got = principal_minors_nonzero(SymPoint(f3, mat))
                assert got == principal_minors_nonzero_naive(mat, 3), mat
                seen.add(got)
        assert seen == {True, False}

    def test_every_symmetric_4x4_over_f3(self):
        # all 2^4 * 3^6 = 11,664 matrices
        f3 = PrimeField(3)
        seen = set()
        for d in itertools.product((1, 2), repeat=4):
            for b, c, e, f, g, h in itertools.product(range(3), repeat=6):
                mat = [[d[0], b, c, e], [b, d[1], f, g],
                       [c, f, d[2], h], [e, g, h, d[3]]]
                got = principal_minors_nonzero(SymPoint(f3, mat))
                assert got == principal_minors_nonzero_naive(mat, 3), mat
                seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("q", [3, 5])
    def test_random_symmetric_matrices_at_every_order(self, q):
        # n = 5..9. Two thirds of the matrices have every 2 x 2 minor
        # nonzero (a_uv is drawn off the roots of a_uu a_vv - a_uv^2), so
        # the walk gets past order 2, and half of those are sparse, so
        # that some pass every order.
        rng = random.Random(1000 + q)
        seen = set()
        for n in range(5, 10):
            for trial in range(24):
                diag = [rng.randrange(1, q) for _ in range(n)]
                mat = [[0] * n for _ in range(n)]
                for u in range(n):
                    mat[u][u] = diag[u]
                    for v in range(u + 1, n):
                        x = rng.choice([x for x in range(q) if trial % 3 == 0
                                        or (x * x - diag[u] * diag[v]) % q])
                        if trial % 3 == 2 and rng.random() < 0.7:
                            x = 0
                        mat[u][v] = mat[v][u] = x
                got = principal_minors_nonzero(SymPoint(PrimeField(q), mat))
                assert got == principal_minors_nonzero_naive(mat, q), mat
                seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_each_principal_minor_alone_rejects(self, n):
        # a matrix whose one zero principal minor is |A_S|, for every S
        # with |S| >= 2: each S zeroes one pivot of the tree, so every
        # pivot of every level batch is tested, those of order 1 too
        q = 10007
        rng = random.Random(n)
        for size in range(2, n + 1):
            for idx in itertools.combinations(range(n), size):
                s, rest = idx[-1], idx[:-1]
                while True:
                    mat = [[0] * n for _ in range(n)]
                    for i in range(n):
                        for j in range(i, n):
                            mat[i][j] = mat[j][i] = rng.randrange(1, q)
                    # |A_S| is affine in a_ss with slope |A_rest|
                    mat[s][s] = 0
                    const = det_exact([[mat[r][k] for k in idx]
                                       for r in idx], q)
                    slope = det_exact([[mat[r][k] for k in rest]
                                       for r in rest], q)
                    if not slope:
                        continue
                    mat[s][s] = -const * pow(slope, -1, q) % q
                    zeros = [
                        sub for k in range(1, n + 1)
                        for sub in itertools.combinations(range(n), k)
                        if not det_exact([[mat[r][c] for c in sub]
                                          for r in sub], q)]
                    if zeros == [idx]:
                        break
                assert not principal_minors_nonzero(
                    SymPoint(PrimeField(q), mat)), idx
                mat[s][s] = (mat[s][s] + 1) % q or 1
                assert principal_minors_nonzero(
                    SymPoint(PrimeField(q), mat)) \
                    == principal_minors_nonzero_naive(mat, q), idx

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_one_zero_minor_at_the_sizes_sample_uses(self, n):
        # the levels at their widest, up to 2^13 nodes of order 1 at
        # n = 14: one planted zero |A_S|, with |S| from 2 to n, must
        # reject. Over M31 an accidental zero minor has odds near
        # 2^n / 2^31.
        q = M31.q
        rng = random.Random(1400 + n)
        for size in (2, 3, 4, n // 2 + 1, n - 1, n):
            idx = tuple(sorted(rng.sample(range(n), size)))
            s = rng.choice(idx)
            rest = tuple(x for x in idx if x != s)
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    mat[i][j] = mat[j][i] = rng.randrange(1, q)
            # |A_S| is affine in a_ss with slope |A_rest|
            mat[s][s] = 0
            const = det_exact([[mat[r][k] for k in idx] for r in idx], q)
            slope = det_exact([[mat[r][k] for k in rest] for r in rest], q)
            mat[s][s] = -const * pow(slope, -1, q) % q
            assert not principal_minors_nonzero(SymPoint(M31, mat)), idx
            if n == 10:
                assert not principal_minors_nonzero_naive(mat, q), idx
            mat[s][s] = (mat[s][s] + 1) % q or 1
            assert principal_minors_nonzero(SymPoint(M31, mat)), idx

    def test_every_three_node_completion_over_f3(self):
        # no solve block is singular at 3 nodes: a block of order 2 means
        # both other nodes are parents, so there is nothing to solve
        f3 = PrimeField(3)
        for g in all_dags(3):
            edges = g.sorted_edges()
            for vals in itertools.product(range(3), repeat=len(edges)):
                values = dict(zip(edges, vals))
                got = completion_or_none(g, values, f3)
                assert got == complete_point_bordered(g, values, 3)

    def test_random_draws_at_small_moduli(self):
        rng = random.Random(67)
        singular = rejected = accepted = 0
        for _ in range(1500):
            q = rng.choice((3, 5, 7, 11))
            g = random_dag(rng.randrange(2, 8), rng,
                           p=rng.choice((0.3, 0.5)))
            values = {e: rng.randrange(q) for e in g.edges}
            got = completion_or_none(g, values, PrimeField(q))
            assert got == complete_point_bordered(g, values, q)
            if got is None:
                singular += 1
                continue
            ok = principal_minors_nonzero(SymPoint(PrimeField(q), got))
            assert ok == principal_minors_nonzero_naive(got, q)
            rejected += not ok
            accepted += ok
        assert min(singular, rejected, accepted) > 50

    def test_singular_block_raises_only_with_something_to_solve(self):
        # sigma_01 = 1 makes the parent block of the last node singular
        full = Dag(3, [(0, 1), (0, 2), (1, 2)])  # node 2: nothing to solve
        values = {(0, 1): 1, (0, 2): 3, (1, 2): 5}
        assert complete_point(full, values, F7).mat[1][2] == 5
        assert complete_point_bordered(full, values, 7) is not None
        spare = Dag(4, [(0, 1), (0, 3), (1, 3)])  # node 3 must solve for 2
        values = {(0, 1): 1, (0, 3): 3, (1, 3): 5}
        with pytest.raises(SingularPivotError):
            complete_point(spare, values, F7)
        assert complete_point_bordered(spare, values, 7) is None

    def test_rational_principal_minors(self):
        rng = random.Random(71)
        outcomes = set()
        for _ in range(300):
            n = rng.randrange(1, 9)  # up to four dividing levels
            mat = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                mat[i][i] = Fraction(rng.choice((1, 2, -1, Fraction(1, 2))))
                for j in range(i + 1, n):
                    mat[i][j] = mat[j][i] = Fraction(rng.randint(-4, 4),
                                                     rng.randint(1, 3))
            got = principal_minors_nonzero(SymPoint(None, mat))
            assert got == principal_minors_nonzero_naive(mat)
            outcomes.add((n >= 7, got))
        # a True at n >= 7 walks every level batch down to order 1
        assert outcomes == set(itertools.product((True, False), repeat=2))


class TestMinorsVanishAgainstOnVariety:
    """The one-solve-per-node membership check against one determinant
    per imposed minor, and its raise on a singular block."""

    def test_random_matrices_and_foreign_points(self):
        rng = random.Random(73)
        outcomes = {True: 0, False: 0, "singular": 0}
        for trial in range(8000):
            q = rng.choice((3, 5, 7))
            n = rng.randrange(4, 8)
            g = random_dag(n, rng, p=rng.choice((0.3, 0.5, 0.7)))
            if trial % 2:  # a random symmetric matrix, nonzero diagonal
                mat = [[0] * n for _ in range(n)]
                for i in range(n):
                    mat[i][i] = rng.randrange(1, q)
                    for j in range(i):
                        mat[i][j] = mat[j][i] = rng.randrange(q)
            else:  # a completed draw of g, checked against g or another
                values = {e: rng.randrange(q) for e in g.edges}
                mat = completion_or_none(g, values, PrimeField(q))
                if mat is None:
                    continue
                g = rng.choice((g, covered_edge_partner(g, rng) or g,
                                random_dag(n, rng, p=0.5)))
            p = SymPoint(PrimeField(q), mat)
            left = points._unmade(g, None)
            want = minors_vanish_or_singular(p.mat, left, q)
            assert check_or_singular(p, left) == want, (g, mat)
            if want != "singular":
                assert want == on_variety(p, g), (g, mat)
            outcomes[want] += 1
        assert min(outcomes.values()) > 200, outcomes

    def test_singular_block_raises(self):
        # node 3 conditions on K = {0, 1}, whose block [[1, 1], [1, 1]] is
        # singular; its one minor, rows (3, 0, 1) and columns (2, 0, 1),
        # is then (sigma_13 - sigma_03)(sigma_02 - sigma_12), which no
        # dot product can decide, so the check raises on and off the
        # variety alike
        g = Dag(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        assert g.plan == ((3, (0, 1), 3),)
        with pytest.raises(SingularPivotError):  # [sigma_KK | sigma_K3]
            _solve_mod([[1, 1, 3], [1, 1, 5]], 7)
        for s12, on in ((2, True), (6, False)):
            p = SymPoint(F7, [[1, 1, 2, 3],
                              [1, 1, s12, 5],
                              [2, s12, 1, 4],
                              [3, 5, 4, 1]])
            assert on_variety(p, g) is on
            with pytest.raises(SingularPivotError):
                _minors_vanish(p, points._unmade(g, None))


class TestMinorsVanishSkipsWhatTheCompletionMade:
    """The check of a point against another graph's imposed minors, given
    the graph the point was completed from, against the full check and one
    determinant per imposed minor."""

    @staticmethod
    def reversed_partner(g, rng):
        """``g`` with one edge reversed, or None when each reversal makes
        a cycle: mostly the same parent sets, mostly not equivalent."""
        edges = sorted(g.edges)
        for u, v in rng.sample(edges, len(edges)):
            try:
                return Dag(g.n, [(v, u) if e == (u, v) else e for e in edges])
            except DagError:
                continue
        return None

    @staticmethod
    def unmade_by_sets(h, made):
        """``_unmade`` from its definition: the prefix of each node of
        ``h`` in its order, less the non-descendants of the node in
        ``made`` when it has the same K there."""
        pa = made.parent_sets()
        left = []
        for i, k, pos in h.plan:
            cols = h.order[:pos]
            if pa[i] == set(k):
                below = descendants_by_dfs(made, i)
                cols = tuple(j for j in cols if j in below)
            if cols:
                left.append((i, k, cols))
        return left

    @staticmethod
    def made_by_construction(h, made):
        """The rule before local Markov relations were skipped: the prefix
        of each node of ``h`` in its order, less the nodes before it in
        ``made`` when it has the same K there."""
        pa = made.parent_sets()
        left = []
        for i, k, pos in h.plan:
            done = set(made.order[:made.order.index(i)]) \
                if pa[i] == set(k) else set()
            cols = tuple(j for j in h.order[:pos] if j not in done)
            if cols:
                left.append((i, k, cols))
        return left

    def test_seeded_partners_from_3_to_40_nodes(self):
        outcomes = {True: 0, False: 0}
        skipped = total = 0
        for n in range(3, 41):
            rng = random.Random(700 + n)
            e = min(2 * n, n * (n - 1) // 4 + 1)
            g = random_dag_with_edges(n, e, rng)
            assert not points._unmade(g, g)  # nothing left to check
            partners = [covered_edge_partner(g, rng) or g,
                        random_dag_with_edges(n, e, rng),
                        self.reversed_partner(g, rng)]
            for field in (PrimeField(1009), M31):
                try:
                    z = sample_point(g, field, rng.randrange(10**6))
                except SamplerError:  # 2^n minors at a small modulus
                    continue
                for h in filter(None, partners):
                    want = on_variety(z, h)
                    left = points._unmade(h, g)
                    assert _minors_vanish(z, left) is want, (g, h)
                    assert _minors_vanish(z, points._unmade(h, None)) \
                        is want, (g, h)
                    outcomes[want] += 1
                    assert left == self.unmade_by_sets(h, g), (g, h)
                    before = {(i, j) for i, _, cols
                              in self.made_by_construction(h, g)
                              for j in cols}
                    assert all((i, j) in before
                               for i, _, cols in left for j in cols)
                    full = sum(len(cols) for _, _, cols
                               in points._unmade(h, None))
                    total += full
                    skipped += full - sum(len(cols) for _, _, cols in left)
        assert min(outcomes.values()) > 20, outcomes
        assert 0 < skipped < total, (skipped, total)

    def test_equivalent_partners_keep_only_changed_parent_sets(self):
        # for a Markov-equivalent pair, a node with the same parents has
        # no descendant in the source before it in the target's order:
        # that minor would be a relation of one model and not the other
        kept = 0
        for n in range(100, 201, 25):
            for seed in range(3):
                rng = random.Random(7100 * n + seed)
                g = random_dag_with_edges(n, 2 * n, rng)
                h = g
                for _ in range(rng.randint(1, 3)):
                    h = covered_edge_partner(h, rng) or h
                changed = [(i, k, h.order[:pos]) for i, k, pos in h.plan
                           if g.parents[i] != k]
                assert points._unmade(h, g) == changed, (n, seed)
                kept += len(changed)
        assert kept > 0

    def test_singular_block_of_the_source_plan_raises(self):
        # the point is completed from g (order 0, 2, 1, 3), where node 3
        # conditions on {2}; h conditions node 3 on K = {0, 1}, whose
        # block [[1, 1], [1, 1]] is singular, so the check raises whether
        # its one minor (sigma_31 - sigma_30)(sigma_02 - sigma_12)
        # = (2c - 0)(0 - 2) vanishes or not
        g = Dag(4, [(0, 1), (2, 1), (2, 3)])
        h = Dag(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        assert g.order == (0, 2, 1, 3) and h.plan == ((3, (0, 1), 3),)
        for c, on in ((0, True), (3, False)):
            z = complete_point(g, {(0, 1): 1, (2, 1): 2, (2, 3): c}, F7)
            assert on_variety(z, h) is on
            for made in (g, None):
                with pytest.raises(SingularPivotError):
                    _minors_vanish(z, points._unmade(h, made))


class TestDescendantMasks:
    def test_against_a_search_over_the_children(self):
        rng = random.Random(91)
        graphs = [Dag(1), Dag(7), Dag(9, [(i, i + 1) for i in range(8)])]
        graphs += [random_dag(rng.randrange(2, 41), rng, rng.random() / 4)
                   for _ in range(60)]
        for g in graphs:
            want = [sum(1 << j for j in descendants_by_dfs(g, i))
                    for i in range(g.n)]
            assert list(g.descendant_masks) == want, g
        path = graphs[2].descendant_masks
        assert path[0] == (1 << 9) - 2 and path[8] == 0
        assert graphs[1].descendant_masks == (0,) * 7


class TestForcedEntries:
    """The per-node vector combine of sampling and membership against one
    dot product per forced entry, with w from textbook elimination."""

    def test_against_per_entry_dot_products(self):
        rng = random.Random(83)
        seen = set()
        singular = 0
        for trial in range(4000):
            q = rng.choice((3, 5, 101, 2**31 - 1))
            size = rng.randrange(7)
            n_free = rng.choice((1, rng.randrange(1, 9)))
            nodes = rng.sample(range(size + n_free + 3), size + n_free + 1)
            i, k, free = nodes[0], tuple(sorted(nodes[1:size + 1])), \
                tuple(nodes[size + 1:])
            n = max(nodes) + 1
            mat = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            if trial % 2:  # a point's rows are tuples
                mat = tuple(map(tuple, mat))
            w = solve_by_echelon([[mat[r][c] for c in k] + [mat[r][i]]
                                  for r in k], q)
            if w is None:
                with pytest.raises(SingularPivotError):
                    _forced_entries(mat, i, k, free, q)
                singular += 1
                continue
            want = [sum(a * mat[r][j] for a, r in zip(w, k)) % q
                    for j in free]
            assert _forced_entries(mat, i, k, free, q) == want, (mat, i, k)
            seen.add((size, len(free) == 1))
        assert seen == {(size, one) for size in range(7)
                        for one in (True, False)}
        assert singular > 50

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_parent_columns_give_back_the_row(self, q):
        """On a symmetric matrix the combine at a parent j is
        (sigma_KK w)_j = sigma_ij, so the kernels may pass a node's whole
        prefix, parents included, and the parent columns change nothing."""
        rng = random.Random(89 + q)
        solved = 0
        for _ in range(600):
            n = rng.randrange(2, 8)
            mat = [[0] * n for _ in range(n)]
            for r in range(n):
                for c in range(r, n):
                    mat[r][c] = mat[c][r] = rng.randrange(q)
            i, *rest = rng.sample(range(n), n)
            k = tuple(sorted(rest[:rng.randrange(1, n)]))
            w = solve_by_echelon([[mat[r][c] for c in k] + [mat[r][i]]
                                  for r in k], q)
            if w is None:
                continue
            want = [sum(a * mat[r][j] for a, r in zip(w, k)) % q
                    for j in rest]
            assert _forced_entries(mat, i, k, tuple(rest), q) == want
            assert [x for x, j in zip(want, rest) if j in k] \
                == [mat[i][j] for j in rest if j in k], (mat, i, k)
            solved += 1
        assert solved > 300


class TestOnDemandPoint:
    """The equivalence test's on-demand point against full completion:
    its entries, its singular pivots, its draws and its membership."""

    def test_matches_full_completion_at_small_moduli(self):
        # the point checks only the blocks of the nodes whose entries it
        # forces, so it rejects only draws that complete_point rejects
        seen = {"both_reject": 0, "only_full_rejects": 0, "agree": 0,
                "sampler_error": 0}
        for n in range(15, 23):
            rng = random.Random(1500 + n)
            for q in (3, 5, 7, 11, 13):
                field = PrimeField(q)
                g = random_dag_with_edges(n, 2 * n, rng)
                h = rng.choice((covered_edge_partner(g, rng) or g,
                                random_dag_with_edges(n, 2 * n, rng)))
                left = points._unmade(h, g)
                steps = points._demand(g, left)
                values = {e: rng.randrange(q) for e in g.edges}
                try:
                    lazy = points._OnDemandPoint(g, values, field, steps)
                except SingularPivotError:
                    with pytest.raises(SingularPivotError):
                        complete_point(g, values, field)
                    seen["both_reject"] += 1
                else:
                    try:
                        full = complete_point(g, values, field)
                    except SingularPivotError:
                        seen["only_full_rejects"] += 1
                    else:
                        assert _minors_vanish(lazy, left) \
                            is on_variety(full, h), (g, h, q)
                        # every entry the point holds is the full one
                        assert all(x == full.mat[i][j]
                                   for i, row in enumerate(lazy.mat)
                                   for j, x in row.items())
                        seen["agree"] += 1
                seed = rng.randrange(10**6)
                try:
                    draw_on_demand(g, field, seed, steps)
                except SamplerError:
                    with pytest.raises(SamplerError):
                        sample_point(g, field, seed)
                    seen["sampler_error"] += 1
        assert min(seen.values()) > 2, seen

    def test_accepted_draws_pass_an_equivalent_partners_check(self):
        # one-sided: a draw whose read blocks are nonsingular passes the
        # check of every Markov-equivalent graph, also where
        # complete_point rejects it on a block the check never reads; a
        # singular target block of the check raises, and the test draws
        # again
        accepted = rejected_in_full = singular_target = 0
        for n in range(15, 26):
            rng = random.Random(2500 + n)
            for q in (3, 5, 7, 11, 13):
                field = PrimeField(q)
                g = random_dag_with_edges(n, 2 * n, rng)
                h = covered_edge_partner(g, rng)
                if h is None:
                    continue
                left = points._unmade(h, g)
                steps = points._demand(g, left)
                for _ in range(24):
                    values = {e: rng.randrange(q) for e in g.edges}
                    try:
                        p = points._OnDemandPoint(g, values, field, steps)
                    except SingularPivotError:
                        continue
                    answer = check_or_singular(p, left)
                    if answer == "singular":
                        singular_target += 1
                        continue
                    accepted += 1
                    assert answer is True, (g, h, q)
                    try:
                        complete_point(g, values, field)
                    except SingularPivotError:
                        rejected_in_full += 1
        assert accepted > 400 and rejected_in_full > 300, \
            (accepted, rejected_in_full)
        assert singular_target > 10, singular_target

    def test_equivalent_partners_answer_yes_at_the_smallest_modulus(
            self, monkeypatch):
        lazy = []
        rule = points._on_demand

        def spy(*args):
            steps = rule(*args)
            if steps is not None:
                lazy.append(args[0].n)
            return steps

        monkeypatch.setattr(randomized, "_on_demand", spy)
        answers = []
        for n in range(5, 31):  # one draw at every n
            rng = random.Random(3000 + n)
            for _ in range(8):
                g = random_dag_with_edges(n, 2 * n, rng)
                h = covered_edge_partner(g, rng)
                if h is None:
                    continue
                q = degree_surrogate(g, h) + 1
                while not is_prime(q):
                    q += 1
                params = IsoParams(m=3, q=q, seed=rng.randrange(10**6))
                answers.append(equivalence_test(g, h, params).accepted)
        assert answers.count(True) == len(answers) > 100
        assert len(lazy) > 100

    def test_the_check_reads_only_entries_computed_up_front(self):
        # a read outside the held entries raises KeyError: it would need a
        # block that no draw checked
        cases = []
        for n in range(15, 27):
            rng = random.Random(3500 + n)
            for q in (3, 5, 7, 11, 13):
                g = random_dag_with_edges(n, 2 * n, rng)
                h = rng.choice((covered_edge_partner(g, rng) or g,
                                random_dag_with_edges(n, 2 * n, rng)))
                left = points._unmade(h, g)
                try:
                    p = draw_on_demand(g, PrimeField(q), rng.randrange(10**6),
                                       points._demand(g, left))
                except SamplerError:
                    continue
                cases.append((p, left))
        answers = [check_or_singular(p, left) for p, left in cases]
        assert len(answers) > 40 and True in answers and False in answers

    def test_holds_only_the_entries_of_its_steps(self):
        # an entry outside the steps is never computed on a read
        n = 16
        path = Dag(n, [(i, i + 1) for i in range(n - 1)])
        p = draw_on_demand(path, M31, 3, points._demand(path))
        assert sum(map(len, p.mat)) == n + 2 * (n - 1)
        with pytest.raises(KeyError):
            p.mat[n - 1][0]
        # the block of node n - 1, parents {0, 1} with sigma_01 = 1, is
        # singular, but no step passes through it: the draw is kept
        g = Dag(n, [(0, 1), (0, n - 1), (1, n - 1)]
                + [(i, i + 1) for i in range(2, n - 2)])
        left = [(5, (4,), (3,))]
        steps = points._demand(g, left)
        assert steps == [(5, [3])]
        values = dict.fromkeys(g.edges, 1)
        with pytest.raises(SingularPivotError):
            complete_point(g, values, M31)
        p = points._OnDemandPoint(g, values, M31, steps)
        assert p.mat[5][3] == p.mat[3][5] == 1
        assert _minors_vanish(p, left)
        with pytest.raises(KeyError):
            p.mat[n - 1][3]

    def test_a_chain_longer_than_the_recursion_limit(self):
        # reading sigma_{n-2, 0} of a path forces every entry
        # sigma_{k, 0} before it, one after the other
        n = 1200
        assert sys.getrecursionlimit() < n
        path = Dag(n, [(i, i + 1) for i in range(n - 1)])
        star = Dag(n, [(0, n - 1)] + [(n - 1, k) for k in range(1, n - 1)])
        left = points._unmade(star, path)
        full = sample_point(path, M31, 3)
        lazy = draw_on_demand(path, M31, 3, points._demand(path, left))
        assert lazy.mat[n - 2][0] == full.mat[n - 2][0]
        assert _minors_vanish(lazy, left) is _minors_vanish(full, left) \
            is False

    def test_the_rule_takes_sparse_checks_on_demand(self):
        n = 200
        limit = n * (n - 1) // 2 / points.ON_DEMAND_FACTOR
        taken = []
        pairs = []
        for seed in (1, 2, 2024):
            rng = random.Random(seed)
            g = random_dag_with_edges(n, 2 * n, rng)
            pairs.append((g, covered_edge_partner(g, rng)))
        # an independent partner: its reads pull in most entries
        pairs.append((g, random_dag_with_edges(n, 2 * n, rng)))
        for g, h in pairs:
            left = points._unmade(h, g)
            steps = points._on_demand(g, left)
            computed = sum(len(cols) for _, cols in points._demand(g, left))
            taken.append(steps is not None)
            if steps is None:  # its reads pull in long chains of entries
                assert computed >= limit
                continue
            z = draw_on_demand(g, M31, 5, steps)
            assert _minors_vanish(z, left)  # the partner is equivalent
            free = n * (n - 1) // 2 - g.num_edges
            # the unit diagonal, then each edge and computed entry twice
            assert sum(map(len, z.mat)) == n + 2 * (g.num_edges + computed)
            assert 0 < computed < free / 2, (computed, free)
        assert taken == [True, True, True, False]

    def test_the_rule_completes_a_path_against_its_reverse(self):
        n = 300
        path = Dag(n, [(i, i + 1) for i in range(n - 1)])
        back = Dag(n, [(i + 1, i) for i in range(n - 1)])
        # the check reads every entry
        assert points._on_demand(path, points._unmade(back, path)) is None
        # the rule does not depend on n: at n = 14 a check that reads
        # nothing draws on demand with no step, and one that reads every
        # entry completes in full
        small = random_dag_with_edges(14, 3, random.Random(1))
        assert points._on_demand(small, points._unmade(small, small)) == []
        path = Dag(14, [(i, i + 1) for i in range(13)])
        back = Dag(14, [(i + 1, i) for i in range(13)])
        assert points._on_demand(path, points._unmade(back, path)) is None


# SHA-256 over sample_point outputs (or SamplerError) for the cases
# below, recorded with one bordered determinant pair per forced entry and
# one elimination per principal minor; any change in a sampled point or
# an accept/reject decision changes it.
SAMPLER_DIGEST = \
    "b3cf1704d9fc7e017afdf4768b8ea3149bbc0190324e0c85d0076a9b4ebd8809"


def test_sampled_points_are_pinned():
    h = hashlib.sha256()
    for n in range(2, 17):
        g = random_dag_with_edges(n, min(2 * n, n * (n - 1) // 4 + 1),
                                  random.Random(n))
        for q in (101, 2**31 - 1):
            for seed in range(3):
                try:
                    mat = sample_point(g, PrimeField(q), seed).mat
                except SamplerError:
                    mat = "SamplerError"
                h.update(f"{n}/{q}/{seed}:{mat}\n".encode())
    assert h.hexdigest() == SAMPLER_DIGEST


class TestSamplePoint:
    def test_deterministic_given_seed(self):
        a = sample_point(CHAIN, M31, seed=5)
        b = sample_point(CHAIN, M31, seed=5)
        c = sample_point(CHAIN, M31, seed=6)
        assert a.mat == b.mat
        assert a.mat != c.mat  # overwhelmingly likely at this modulus

    def test_chain_on_variety_many_seeds(self):
        for seed in range(1000):
            p = sample_point(CHAIN, M31, seed)
            assert on_variety(p, CHAIN)

    def test_unit_diagonal_and_principal_minors(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_dag(rng.randrange(2, 8), rng)
            p = sample_point(g, M31, rng.randrange(10**6))
            assert all(p.mat[i][i] == 1 for i in range(p.n))
            assert principal_minors_nonzero(p)
            assert on_variety(p, g)

    @pytest.mark.parametrize("seed", [1.0, True, "1", None])
    def test_rejects_a_seed_that_is_not_an_int(self, seed):
        # 1.0 and True would each draw a stream other than seed 1's
        with pytest.raises(ParameterError):
            sample_point(CHAIN, M31, seed)

    @pytest.mark.parametrize("field", [None, 7])
    def test_rejects_a_field_that_is_not_a_prime_field(self, field):
        with pytest.raises(FieldArithmeticError):
            sample_point(CHAIN, field, 1)

    @pytest.mark.parametrize("q", [3, 1009, 65537, 2**31 - 1, 2**31 + 11])
    def test_edge_values_are_the_randrange_stream(self, q):
        # at 65537 and 2^31 + 11 about half of the bit draws are redrawn;
        # PrimeField takes no q = 2
        g = random_dag_with_edges(12, 30, random.Random(q))
        edges = g.sorted_edges()
        for seed in range(3):
            draws = []

            def complete(values):
                draws.append(values)
                return values if len(draws) == 4 else None

            points._draw(g, PrimeField(q), seed, complete)
            rng = random.Random(points._derive_seed("edges", seed))
            want = [[rng.randrange(q) for _ in edges] for _ in range(4)]
            assert [list(v) for v in draws] == [edges] * 4
            assert [list(v.values()) for v in draws] == want

    def test_rejection_budget_exhausts_on_tiny_field(self):
        # complete DAG needs every off-diagonal draw to be 0 over F_3
        g = Dag(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        with pytest.raises(SamplerError):
            sample_point(g, PrimeField(3), seed=0)


class TestOnVariety:
    def test_identity_point_on_any_graph(self):
        for g in all_dags(3):
            p = SymPoint(M31, [[1 if i == j else 0 for j in range(3)]
                               for i in range(3)])
            assert on_variety(p, g)

    def test_off_variety_chain(self):
        p = SymPoint(None, [[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert not on_variety(p, CHAIN)

    def test_relabeled_sample_lands_on_relabeled_graph(self):
        rng = random.Random(47)
        for _ in range(20):
            g = random_dag(5, rng)
            perm = list(range(5))
            rng.shuffle(perm)
            q = Permutation(perm)
            z = sample_point(g, M31, rng.randrange(10**6))
            assert on_variety(z.relabel(q), apply_permutation(g, q))


class TestTreeGeneratorsAgree:
    def test_sampled_points_satisfy_tree_relations(self):
        star = Dag(4, [(0, 1), (0, 2), (0, 3)])
        chain4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
        mixed = Dag(4, [(1, 0), (1, 2), (3, 2)])
        for t in (star, chain4, mixed, CHAIN, FORK):
            rels = tree_reduced_generators(t)
            for seed in range(30):
                p = sample_point(t, M31, seed)
                assert all(relation_eval(p, r) == 0 for r in rels)

    def test_tree_parametrized_points_satisfy_imposed_minors(self):
        # correlations sigma_ij = product of edge values along the i-j path
        # satisfy the reduced generators by construction
        rng = random.Random(53)
        chain4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
        star = Dag(4, [(0, 1), (0, 2), (0, 3)])
        for t in (chain4, star):
            adj = {v: {} for v in range(t.n)}
            for (u, v) in t.edges:
                w = Fraction(rng.randint(1, 9), rng.randint(10, 19))
                adj[u][v] = w
                adj[v][u] = w
            mat = [[Fraction(1)] * t.n for _ in range(t.n)]

            def fill(root):
                seen = {root: Fraction(1)}
                stack = [root]
                while stack:
                    u = stack.pop()
                    for v, w in adj[u].items():
                        if v not in seen:
                            seen[v] = seen[u] * w
                            stack.append(v)
                return seen

            for i in range(t.n):
                for j, val in fill(i).items():
                    mat[i][j] = val
            p = SymPoint(None, mat)
            assert all(relation_eval(p, r) == 0
                       for r in tree_reduced_generators(t))
            assert on_variety(p, t)

    def test_generic_point_fails_both(self):
        p = SymPoint(None, [[1, Fraction(1, 2), Fraction(1, 3)],
                            [Fraction(1, 2), 1, Fraction(1, 5)],
                            [Fraction(1, 3), Fraction(1, 5), 1]])
        assert principal_minors_nonzero(p)
        rels = tree_reduced_generators(CHAIN)
        assert any(relation_eval(p, r) != 0 for r in rels)
        assert not on_variety(p, CHAIN)


class TestGaussianCi:
    def test_chain_covariance_marginal_independence(self):
        sigma = [[1, 1, 1], [1, 2, 2], [1, 2, 3]]
        assert gaussian_ci(sigma, {0}, {2}, {1})

    def test_singular_limit_fails_ci(self):
        assert not gaussian_ci(SINGULAR_LIMIT, {0}, {2}, {1, 3})

    def test_singular_limit_marginal_independence(self):
        assert gaussian_ci(SINGULAR_LIMIT, {0}, {1}, ())

    def test_identity_always_independent(self):
        eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        for a, b in itertools.combinations(range(4), 2):
            rest = [v for v in range(4) if v not in (a, b)]
            for size in range(len(rest) + 1):
                for c in itertools.combinations(rest, size):
                    assert gaussian_ci(eye, {a}, {b}, c)

    def test_overlap_rejected(self):
        with pytest.raises(Exception):
            gaussian_ci(SINGULAR_LIMIT, {0}, {0}, {1})

    @pytest.mark.parametrize("sigma", [
        [[1, Fraction(1, 2)], [Fraction(1, 5), 1]],
        [[1, 0, 0], [0, 1]],
        [[1, 0], [0, 1], [0, 0]],
    ])
    def test_non_symmetric_or_non_square_rejected(self, sigma):
        with pytest.raises(CiError):
            gaussian_ci(sigma, {0}, {1})

    @pytest.mark.parametrize("a, b, c", [
        ([0.5], [1.2], []), ([0], [True], []), ([0], ["1"], []),
        ([0], [1], [2.0]),
    ])
    def test_rejects_non_integer_nodes(self, a, b, c):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(CiError):
            gaussian_ci(eye, a, b, c)

    @pytest.mark.parametrize("entry", [True, 1.0, 0.5, "1", None])
    def test_rejects_inexact_entries(self, entry):
        with pytest.raises(CiError):
            gaussian_ci([[entry, 0], [0, 1]], [0], [1])

    def test_set_valued_arguments(self):
        sigma = [[Fraction(1), Fraction(1, 2), 0, 0],
                 [Fraction(1, 2), Fraction(1), 0, 0],
                 [0, 0, Fraction(1), Fraction(1, 3)],
                 [0, 0, Fraction(1, 3), Fraction(1)]]
        assert gaussian_ci(sigma, {0, 1}, {2, 3}, ())
        assert not gaussian_ci(sigma, {0}, {1}, {2, 3})

    def test_implied_relations_hold_exactly(self):
        rng = random.Random(59)
        for _ in range(20):
            g = random_dag(rng.randrange(2, 7), rng)
            sigma = sem_covariance(random_sem(g, rng))
            rows = [list(r) for r in sigma.mat]
            for s in implied_relations(g):
                assert gaussian_ci(rows, {s.i}, {s.j}, s.cond)

    def test_dconnected_fails_for_random_parameters(self):
        rng = random.Random(61)
        trials = 0
        false_count = 0
        while trials < 1000:
            g = random_dag(rng.randrange(3, 6), rng, p=0.5)
            nodes = range(g.n)
            i, j = rng.sample(nodes, 2)
            rest = [v for v in nodes if v not in (i, j)]
            cond = tuple(v for v in rest if rng.random() < 0.4)
            if d_separated(g, i, j, cond):
                continue
            sigma = sem_covariance(random_sem(g, rng, bound=10**6))
            rows = [list(r) for r in sigma.mat]
            trials += 1
            if not gaussian_ci(rows, {i}, {j}, cond):
                false_count += 1
        assert false_count >= 990
