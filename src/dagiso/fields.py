"""Exact scalar and matrix arithmetic over a prime field F_q or the rationals.

Vanishing tests elsewhere in the package must be exact, so there is no
floating point here: field elements are Python ints reduced mod q, rational
elements are ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import List, Optional, Tuple, Union

from .dag import _require_ints

MERSENNE31 = 2**31 - 1  # default modulus; prime, fits fast reduction

Element = Union[int, Fraction]


class FieldArithmeticError(ValueError):
    """Invalid field parameter or operation."""


class SingularPivotError(FieldArithmeticError):
    """A linear solve hit a zero pivot (triggers resampling upstream)."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_q for an odd prime q > 2. Elements are ints in [0, q)."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        _require_ints([q], "modulus", FieldArithmeticError)
        if q <= 2 or not is_prime(q):
            raise FieldArithmeticError(f"modulus must be a prime > 2, got {q}")
        self.q = q

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


# Throughout the package, field=None selects the exact-rational
# instantiation of the same interfaces.

# ---------------------------------------------------------------------------
# The one elimination kernel, on raw row lists. It is the hot path of minor
# evaluation, point sampling and membership, so the field test stays out of
# the innermost (entry update) loop.

def _det_and_rank(rows, q: Optional[int] = None
                  ) -> Tuple[Optional[Element], int]:
    """Determinant (None for non-square input) and rank of the raw row
    list ``rows`` over F_q, or over Q when ``q`` is None (the entries are
    then Fractions).

    Forward elimination in place: afterwards the diagonal of ``rows`` and
    everything above it is in row echelon form, which ``_solve_mod``
    back-substitutes. A row update below a pivot starts right of the
    pivot column, since nothing reads that column again, so the entries
    below the diagonal are left stale. Over F_q, entries that no update
    touched are left unreduced, so zero tests reduce mod q.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    det = 1 if q else Fraction(1)
    r = 0  # pivots found so far: the rank
    for c in range(nc):
        for piv in range(r, nr):
            if rows[piv][c] % q if q else rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[piv], rows[r] = rows[r], rows[piv]
            det = -det
        prow = rows[r]
        if q:
            pv = prow[c] % q
            det = det * pv % q
            inv = pow(pv, -1, q)
        else:
            pv = prow[c]
            det *= pv
        for i in range(r + 1, nr):
            ri = rows[i]
            if q:
                f = ri[c] % q
                if f:
                    f = f * inv % q
                    for k in range(c + 1, nc):
                        ri[k] = (ri[k] - f * prow[k]) % q
            elif ri[c]:
                f = ri[c] / pv
                for k in range(c + 1, nc):
                    ri[k] -= f * prow[k]
        r += 1
    if nr != nc:
        return None, r
    if r < nr:
        return (0 if q else Fraction(0)), r
    return (det % q if q else det), r


def _det_mod(rows, cols, mat, inv, q: int) -> int:
    """The minor |mat[inv[rows], inv[cols]]| over F_q, for row and column
    index lists ``rows`` and ``cols``, index map ``inv`` and raw row list
    ``mat``. Orders 1 to 3 use closed forms on the rows of ``mat`` in
    place, several times faster than elimination on the small minors that
    dominate the witness search; other orders gather a submatrix.
    """
    n = len(rows)
    if n == 1:
        return mat[inv[rows[0]]][inv[cols[0]]] % q
    if n == 2:
        a, b = mat[inv[rows[0]]], mat[inv[rows[1]]]
        c0, c1 = inv[cols[0]], inv[cols[1]]
        return (a[c0] * b[c1] - a[c1] * b[c0]) % q
    if n == 3:
        a, b, c = mat[inv[rows[0]]], mat[inv[rows[1]]], mat[inv[rows[2]]]
        c0, c1, c2 = inv[cols[0]], inv[cols[1]], inv[cols[2]]
        return (a[c0] * (b[c1] * c[c2] - b[c2] * c[c1])
                - a[c1] * (b[c0] * c[c2] - b[c2] * c[c0])
                + a[c2] * (b[c0] * c[c1] - b[c1] * c[c0])) % q
    return _det_and_rank([[mat[inv[r]][inv[c]] for c in cols]
                          for r in rows], q)[0]


def _solve_mod(rows, q: int) -> List[int]:
    """The solution w of A w = b over F_q for the augmented rows [A | b];
    raises SingularPivotError when A is singular. May overwrite ``rows``.

    One and two unknowns use Cramer's rule, as ``_det_mod`` uses closed
    forms: most conditioning sets of sampled graphs are that small.
    """
    size = len(rows)
    if size == 1:
        (a, b), = rows
        if a % q == 0:
            raise SingularPivotError("singular conditioning-set block")
        return [b * pow(a, -1, q) % q]
    if size == 2:
        (a, b, e), (c, d, f) = rows
        det = (a * d - b * c) % q
        if det == 0:
            raise SingularPivotError("singular conditioning-set block")
        inv = pow(det, -1, q)
        return [(e * d - b * f) * inv % q, (a * f - e * c) * inv % q]
    _det_and_rank(rows, q)  # forward elimination, in place
    w = [0] * size
    for c in range(size - 1, -1, -1):
        row = rows[c]
        if row[c] % q == 0:
            raise SingularPivotError("singular conditioning-set block")
        s = row[size] - sum(map(mul, row[c + 1:size], w[c + 1:]))
        w[c] = s * pow(row[c], -1, q) % q
    return w
