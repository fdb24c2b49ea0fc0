"""Exact linear algebra over F_q and the rationals."""

import itertools
import random
from fractions import Fraction

import pytest

from dagiso import (MERSENNE31, FieldArithmeticError, PrimeField,
                    SingularPivotError)
from dagiso.fields import _det_and_rank, _det_mod, _solve_mod, is_prime
from oracles import det_exact, echelon, solve_by_echelon

F7 = PrimeField(7)


def det_and_rank_copy(rows, q=None):
    """``_det_and_rank`` on a copy of ``rows``: reduced mod q, or over Q
    as Fractions (the kernel divides, so int rows would give floats)."""
    if q is None:
        return _det_and_rank([[Fraction(x) for x in r] for r in rows])
    return _det_and_rank([[x % q for x in r] for r in rows], q)


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(FieldArithmeticError):
            PrimeField(9)

    def test_rejects_two(self):
        with pytest.raises(FieldArithmeticError):
            PrimeField(2)

    # 7.0 would otherwise sample float entries into "exact" points
    @pytest.mark.parametrize("q", [7.0, "7"])
    def test_rejects_a_modulus_that_is_not_an_int(self, q):
        with pytest.raises(FieldArithmeticError):
            PrimeField(q)

    def test_mersenne_is_prime(self):
        assert is_prime(MERSENNE31)
        assert not is_prime(2**31 + 1)


class TestDetAndRank:
    def test_identity_f7(self):
        assert det_and_rank_copy([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7) == (1, 3)

    def test_singular_symmetric_rational(self):
        assert det_and_rank_copy([[1, 1], [1, 1]]) == (Fraction(0), 1)

    def test_rank_two_by_hand(self):
        # row reduction: rows 2 and 3 coincide
        det, rank = det_and_rank_copy([[1, 0, 0], [0, 1, 1], [0, 1, 1]])
        assert det == 0 and rank == 2

    def test_non_square_has_no_det(self):
        det, rank = det_and_rank_copy([[1, 2, 3], [4, 5, 6]], 7)
        assert det is None and rank == 2

    def test_matches_integer_determinant_mod_q(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(-30, 30) for _ in range(n)]
                    for _ in range(n)]
            dq, _ = det_and_rank_copy(rows, 7)
            dz, _ = det_and_rank_copy(rows)
            assert dq == int(dz) % 7

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(13)
        for _ in range(60):
            r, c = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = [[rng.randrange(0, 5) for _ in range(c)] for _ in range(r)]
            t = [[rows[i][j] for i in range(r)] for j in range(c)]
            assert det_and_rank_copy(rows, 7)[1] == det_and_rank_copy(t, 7)[1]

    def test_det_multiplicative(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(1, 5)
            a = [[rng.randrange(101) for _ in range(n)] for _ in range(n)]
            b = [[rng.randrange(101) for _ in range(n)] for _ in range(n)]
            ab = [[sum(a[i][k] * b[k][j] for k in range(n)) % 101
                   for j in range(n)] for i in range(n)]
            da, _ = det_and_rank_copy(a, 101)
            db, _ = det_and_rank_copy(b, 101)
            dab, _ = det_and_rank_copy(ab, 101)
            assert dab == da * db % 101


def rank_by_minors(rows, q=None):
    """The order of the largest nonzero minor, each one by ``det_exact``."""
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.combinations(range(len(rows[0])), k):
                if det_exact([[rows[r][c] for c in cs] for r in rs], q):
                    return k
    return 0


class TestKernelReferee:
    """The one elimination kernel, over F_q and over Q, against the
    independent rational elimination of ``oracles.det_exact``."""

    def test_every_three_by_three_over_f3_and_as_rationals(self):
        for entries in itertools.product(range(3), repeat=9):
            rows = [list(entries[i:i + 3]) for i in (0, 3, 6)]
            dq, rq = det_and_rank_copy(rows, 3)
            assert dq == det_exact(rows, 3), rows
            assert rq == rank_by_minors(rows, 3), rows
            dz, rz = det_and_rank_copy(rows)
            assert type(dz) is Fraction and dz == det_exact(rows), rows
            assert rz == rank_by_minors(rows), rows
            assert rows == [list(entries[i:i + 3]) for i in (0, 3, 6)]

    def test_rank_of_rectangular_rationals(self):
        rng = random.Random(23)
        values = [Fraction(0)] * 4 + [Fraction(1), Fraction(-2, 3),
                                      Fraction(5, 7)]
        ranks = set()
        for _ in range(400):
            r, c = rng.randrange(1, 4), rng.randrange(1, 5)
            rows = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.3 and r > 1:  # force a dependent row
                rows[-1] = [x * Fraction(3, 2) for x in rows[0]]
            copy = [list(row) for row in rows]
            det, rank = det_and_rank_copy(rows)
            assert rank == rank_by_minors(rows), rows
            assert det == (det_exact(rows) if r == c else None), rows
            assert rows == copy
            ranks.add(rank)
        assert ranks == {0, 1, 2, 3}


class TestMinorInPlace:
    """``_det_mod`` reads a minor through an index map without copying it
    out; the referee copies the relabeled submatrix and eliminates."""

    def test_against_copied_submatrix(self):
        rng = random.Random(31)
        orders = set()
        for _ in range(2000):
            q = rng.choice((3, 5, 7, MERSENNE31))
            n = rng.randrange(1, 7)
            mat = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            copy = [list(row) for row in mat]
            inv = rng.sample(range(n), n)  # a random index map
            k = rng.randrange(0, min(n, 4) + 1)
            rows, cols = rng.sample(range(n), k), rng.sample(range(n), k)
            got = _det_mod(rows, cols, mat, inv, q)
            sub = [[mat[inv[r]][inv[c]] for c in cols] for r in rows]
            assert got == det_exact(sub, q), (rows, cols, mat, inv)
            assert mat == copy
            orders.add(k)
        assert orders == {0, 1, 2, 3, 4}


class TestEchelonLayout:
    """``_solve_mod`` back-substitutes the rows ``_det_and_rank`` leaves
    behind: it reads the diagonal and everything above it, and raises at
    a zero diagonal entry. Both are pinned here against a textbook
    elimination on augmented rows [A | b]: with A nonsingular, the
    diagonal and everything above it match; with A singular, the
    diagonal entry of the first column without a pivot is zero. Entries
    below the diagonal are left free."""

    def check(self, rows, q):
        size = len(rows)
        ref, pivots = echelon(rows, q)
        got = [list(r) for r in rows]
        _det_and_rank(got, q)
        reduce = (lambda x: x % q) if q else (lambda x: x)
        missing = [c for c in range(size) if c not in pivots]
        if not missing:
            for i in range(size):
                assert [reduce(x) for x in got[i][i:]] == ref[i][i:], rows
        else:
            c = missing[0]
            assert reduce(got[c][c]) == 0, rows
        if q:
            try:
                w = _solve_mod([list(r) for r in rows], q)
            except SingularPivotError:
                assert missing, rows
            else:
                assert not missing, rows
                for r in rows:
                    assert sum(a * x for a, x in zip(r, w)) % q == r[-1] % q
        return not missing

    def test_every_small_augmented_system_over_f3(self):
        outcomes = set()
        for size in (1, 2):
            for entries in itertools.product(range(3), repeat=size * (size + 1)):
                rows = [list(entries[i:i + size + 1])
                        for i in range(0, len(entries), size + 1)]
                outcomes.add(self.check(rows, 3))
        assert outcomes == {True, False}

    def test_random_augmented_systems(self):
        rng = random.Random(31)
        outcomes = {3: set(), 5: set(), None: set()}
        values = [Fraction(0)] * 3 + [Fraction(1), Fraction(-2, 3)]
        for _ in range(1500):
            size = rng.randrange(3, 6)
            for q in (3, 5, None):
                if q:
                    rows = [[rng.randrange(q) for _ in range(size + 1)]
                            for _ in range(size)]
                else:
                    rows = [[rng.choice(values) for _ in range(size + 1)]
                            for _ in range(size)]
                outcomes[q].add(self.check(rows, q))
        assert all(seen == {True, False} for seen in outcomes.values())



class TestSolveClosedForms:
    """The closed forms of ``_solve_mod`` for one and two unknowns against
    textbook elimination: same raise, same solution."""

    @pytest.mark.parametrize("q", [3, 5])
    def test_every_one_and_two_unknown_system(self, q):
        singular = solved = 0
        for size in (1, 2):
            for entries in itertools.product(range(q),
                                             repeat=size * (size + 1)):
                rows = [list(entries[i:i + size + 1])
                        for i in range(0, len(entries), size + 1)]
                want = solve_by_echelon(rows, q)
                if want is None:
                    with pytest.raises(SingularPivotError):
                        _solve_mod([list(r) for r in rows], q)
                    singular += 1
                else:
                    assert _solve_mod([list(r) for r in rows], q) == want, \
                        rows
                    solved += 1
        assert singular and solved
