"""The paper's theorem and the parent-block lemma, checked exhaustively.

Over a small prime field F_q, every natural-order DAG on n nodes meets
every unit-diagonal symmetric matrix. The image of a DAG's
parametrization is built from the structural-equation recursion over all
edge weights, with the innovation variances ranging over all of F_q, zero
included: the unit diagonal fixes omega_j = 1 - lambda_j' Sigma_KK
lambda_j, whatever value that takes. (Requiring omega != 0 instead would
leave 1,064 points at F_3, n = 4 outside the image although every
parent-set block there is nonsingular.) Four things are checked:

- the lemma: where the imposed minors vanish and every parent-set block
  Sigma_KK is nonsingular, the point is in the image;
- the theorem: no spurious point (imposed minors vanish, outside the
  image) has all principal minors nonzero;
- spurious points exist, so the imposed minors cut out more than the
  image;
- ``_minors_vanish`` agrees with the naive vanishing test where every
  block it solves is nonsingular, and raises SingularPivotError at the
  first singular block it reaches.

Every determinant comes from ``oracles.det_exact``.
"""

import functools
import itertools

import pytest

from dagiso import (Dag, PrimeField, SingularPivotError, SymPoint,
                    imposed_minors)
from dagiso.points import _minors_vanish, _unmade
from oracles import det_exact


def natural_order_dags(n):
    """Every DAG on n nodes whose edges all run from a lower id to a
    higher one."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Dag(n, [p for b, p in enumerate(pairs) if bits >> b & 1])


def sem_image(g, q):
    """Every unit-diagonal point of ``g``'s parametrization over F_q, as a
    tuple of rows: per node j, in natural (topological) order,
    sigma_ij = sum of lambda_kj sigma_ik over the parents k, for i < j."""
    n, pa, edges = g.n, g.parent_sets(), g.sorted_edges()
    image = set()
    for weights in itertools.product(range(q), repeat=len(edges)):
        lam = dict(zip(edges, weights))
        s = [[int(i == j) for j in range(n)] for i in range(n)]
        for j in range(n):
            for i in range(j):
                s[i][j] = s[j][i] = sum(lam[k, j] * s[i][k]
                                        for k in pa[j]) % q
        image.add(tuple(map(tuple, s)))
    return image


def spurious_points(q, n):
    """The number of (DAG, point) pairs whose imposed minors vanish
    outside the image, asserting the lemma, the theorem and the agreement
    of ``_minors_vanish`` on the way."""
    field = PrimeField(q)
    dags = []
    for g in natural_order_dags(n):
        left = _unmade(g, None)
        checks = [(k, [((i, *k), (j, *k)) for j in cols if j not in k])
                  for i, k, cols in left]  # per node: block, then minors
        dags.append((imposed_minors(g), g, left, checks,
                     [tuple(sorted(k)) for k in g.parent_sets()],
                     sem_image(g, q)))
    subsets = [idx for size in range(1, n + 1)
               for idx in itertools.combinations(range(n), size)]
    pairs = list(itertools.combinations(range(n), 2))
    spurious = 0
    for values in itertools.product(range(q), repeat=len(pairs)):
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), x in zip(pairs, values):
            mat[i][j] = mat[j][i] = x
        point, z = tuple(map(tuple, mat)), SymPoint(field, mat)

        @functools.lru_cache(maxsize=None)
        def minor(rows, cols):
            return det_exact([[mat[r][c] for c in cols] for r in rows], q)

        principal_nonzero = all(minor(idx, idx) for idx in subsets)
        for minors, g, left, checks, blocks, image in dags:
            vanish = all(minor(m.rows, m.cols) == 0 for m in minors)
            want = vanish  # node by node, as the check solves them
            for k, node_minors in checks:
                if not minor(k, k):
                    want = SingularPivotError
                    break
                if any(minor(*rc) for rc in node_minors):
                    break
            try:
                got = _minors_vanish(z, left)
            except SingularPivotError:
                got = SingularPivotError
            assert got == want, (point, g)
            inside = point in image
            assert vanish or not inside  # the image lies on the variety
            if vanish and all(minor(k, k) for k in blocks):
                assert inside, (point, blocks)  # the lemma
            if vanish and not inside:
                spurious += 1
                assert not principal_nonzero, point  # the theorem
    return spurious


@pytest.mark.parametrize("q, n, count", [
    (3, 3, 12), (5, 3, 40), (3, 4, 2928),
    pytest.param(5, 4, 26240, marks=pytest.mark.slow)])
def test_spurious_points_only_on_singular_principal_minors(q, n, count):
    assert spurious_points(q, n) == count
