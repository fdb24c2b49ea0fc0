"""Independent oracles and exhaustive generators used across the tests.

Everything here is deliberately naive: brute-force path enumeration for
d-separation, direct digraph enumeration for small-n exhaustive sweeps,
textbook covered-edge reversal for Markov-equivalent partners, and the
sampler's kernels as one determinant per minor. These stay independent
of the library's algorithms so they can referee them; they touch nothing
of the package beyond the Dag value type. The one exception is the tree
classification referee, which keeps the Prüfer enumeration and the
pattern canonical form (both tested on their own) and referees what
replaced them: counting labeled trees by orbits and choosing each
representative by a relabeling search.
"""

import functools
import itertools
from fractions import Fraction

from dagiso import Dag, enumerate_tree_dags, pattern
from dagiso.classify import canonical_pattern_of


def all_dags(n):
    """Every DAG on n labeled nodes: each unordered pair is absent,
    forward, or backward; cyclic combinations are filtered out."""
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (a, b), c in zip(pairs, choice):
            if c == 1:
                edges.append((a, b))
            elif c == 2:
                edges.append((b, a))
        if not _has_cycle(n, edges):
            yield Dag(n, edges)


def _has_cycle(n, edges):
    children = {i: [] for i in range(n)}
    for u, v in edges:
        children[u].append(v)
    state = [0] * n  # 0 unseen, 1 in stack, 2 done

    def visit(u):
        state[u] = 1
        for v in children[u]:
            if state[v] == 1:
                return True
            if state[v] == 0 and visit(v):
                return True
        state[u] = 2
        return False

    return any(state[u] == 0 and visit(u) for u in range(n))


def descendants_of(g, v):
    children = {i: set() for i in range(g.n)}
    for a, b in g.edges:
        children[a].add(b)
    seen, stack = set(), [v]
    while stack:
        u = stack.pop()
        for w in children[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def dsep_bruteforce(g, i, j, cond):
    """Path-blocking semantics by exhaustive simple-path enumeration."""
    cond = set(cond)
    adj = {v: set() for v in range(g.n)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)

    def active(path):
        for pos in range(1, len(path) - 1):
            a, v, b = path[pos - 1], path[pos], path[pos + 1]
            collider = (a, v) in g.edges and (b, v) in g.edges
            if collider:
                if v not in cond and not (descendants_of(g, v) & cond):
                    return False
            elif v in cond:
                return False
        return True

    def paths(u, seen):
        if u == j:
            yield list(seen)
            return
        for w in adj[u]:
            if w not in seen:
                seen.append(w)
                yield from paths(w, seen)
                seen.pop()

    return not any(active(p) for p in paths(i, [i]))


def random_dag(n, rng, p=0.4):
    """Random DAG: random node order, each forward pair kept with prob p."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.append((order[a], order[b]))
    return Dag(n, edges)


def random_dag_with_edges(n, num_edges, rng):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = rng.sample(pairs, num_edges)
    order = list(range(n))
    rng.shuffle(order)
    return Dag(n, [(order[a], order[b]) for a, b in chosen])


def covered_edge_partner(g, rng):
    """A Markov-equivalent DAG obtained by reversing one covered edge
    (u -> v with pa(v) = pa(u) + {u}), or None if no edge is covered."""
    pa = {i: set() for i in range(g.n)}
    for a, b in g.edges:
        pa[b].add(a)
    covered = [(u, v) for u, v in sorted(g.edges)
               if pa[v] == pa[u] | {u}]
    if not covered:
        return None
    u, v = covered[rng.randrange(len(covered))]
    edges = set(g.edges)
    edges.remove((u, v))
    edges.add((v, u))
    return Dag(g.n, edges)


def random_permutation(n, rng):
    m = list(range(n))
    rng.shuffle(m)
    return m


def cycle_union(n, rng):
    """A DAG whose skeleton is a union of cycles of length >= 3 (n >= 3),
    so every node has skeleton degree 2, oriented by a random node order."""
    nodes = random_permutation(n, rng)
    rank = random_permutation(n, rng)
    edges = []
    start = 0
    while start < n:
        k = rng.randrange(3, n - start + 1)
        if n - start - k < 3:
            k = n - start
        cycle = nodes[start:start + k]
        for t in range(k):
            a, b = cycle[t], cycle[(t + 1) % k]
            edges.append((a, b) if rank[a] < rank[b] else (b, a))
        start += k
    return Dag(n, edges)


def det_exact(rows, q=None):
    """Determinant by exact rational elimination, reduced mod q when q is
    given (the entries are then integers, so the determinant is too)."""
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det if q is None else int(det) % q


def topo_order(g):
    """Topological order taking the smallest ready node id first."""
    pa = {v: {a for a, b in g.edges if b == v} for v in range(g.n)}
    order = []
    while len(order) < g.n:
        order.append(min(v for v in range(g.n)
                         if v not in order and pa[v] <= set(order)))
    return order


def complete_point_bordered(g, edge_values, q):
    """Point completion over F_q with two determinants per forced entry:
    for node i in topological order and each earlier non-parent j, solve
    |sigma_{iK,jK}| = 0 (K = pa(i)), which is linear in sigma_ij with
    coefficient |sigma_KK|. The matrix as row lists, or None when a
    coefficient vanishes."""
    mat = [[int(r == c) for c in range(g.n)] for r in range(g.n)]
    for (u, v), val in edge_values.items():
        mat[u][v] = mat[v][u] = val % q
    order = topo_order(g)
    for pos, i in enumerate(order):
        k = sorted(a for a, b in g.edges if b == i)
        for j in order[:pos]:
            if j in k:
                continue
            coeff = det_exact([[mat[r][c] for c in k] for r in k], q)
            if coeff == 0:
                return None
            sub = [[mat[r][c] for c in [j] + k] for r in [i] + k]
            sub[0][0] = 0
            x = -det_exact(sub, q) * pow(coeff, -1, q) % q
            mat[i][j] = mat[j][i] = x
    return mat


def principal_minors_nonzero_naive(mat, q=None):
    """Whether every principal minor is nonzero, one determinant each."""
    n = len(mat)
    return all(det_exact([[mat[r][c] for c in idx] for r in idx], q) != 0
               for size in range(1, n + 1)
               for idx in itertools.combinations(range(n), size))


def echelon(rows, q=None):
    """Row echelon form by textbook elimination, and its pivot columns.

    Per column, the first row at or below the current one with a nonzero
    entry is swapped up and every row below it is updated in full, so the
    entries under each pivot are zero. Entries are reduced mod q, or are
    Fractions when q is None.
    """
    m = [[Fraction(x) if q is None else x % q for x in r] for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if q is None:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            else:
                f = m[i][c] * pow(m[r][c], -1, q) % q
                m[i] = [(x - f * y) % q for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def solve_by_echelon(rows, q):
    """The solution w of A w = b over F_q for the augmented rows [A | b],
    by ``echelon`` and back substitution, or None when A is singular."""
    size = len(rows)
    m, pivots = echelon(rows, q)
    if pivots[:size] != list(range(size)):
        return None
    w = [0] * size
    for c in range(size - 1, -1, -1):
        s = m[c][size] - sum(m[c][k] * w[k] for k in range(c + 1, size))
        w[c] = s * pow(m[c][c], -1, q) % q
    return w


def labeled_tree_count(n):
    """Labeled directed trees on n nodes: n^(n-2) labeled trees (Cayley's
    formula) times the 2^(n-1) orientations of their edges."""
    return 1 if n == 1 else n ** (n - 2) * 2 ** (n - 1)


@functools.lru_cache(maxsize=None)
def _prufer_tree_classes(n):
    """(least member edges, labeled member count) per isomorphism class of
    directed trees on n nodes, sorted. Every labeled directed tree comes
    from its Prüfer sequence and orientation bitmask; members with equal
    labeled patterns share one canonical form, computed once."""
    patterns = {}  # labeled pattern -> [canonical key, least member, count]
    for g in enumerate_tree_dags(n):
        key = (g.skeleton(), frozenset(
            (min(a, b), k, max(a, b)) for k, ps in enumerate(g.parent_sets())
            for a, b in itertools.combinations(ps, 2)))
        member = tuple(g.sorted_edges())
        entry = patterns.get(key)
        if entry is None:
            patterns[key] = [canonical_pattern_of(pattern(g)), member, 1]
        else:
            entry[1] = min(entry[1], member)
            entry[2] += 1
    classes = {}
    for canon, member, count in patterns.values():
        cls = classes.setdefault(canon, [member, 0])
        cls[0] = min(cls[0], member)
        cls[1] += count
    return sorted(tuple(c) for c in classes.values())


def prufer_tree_report(n, mode):
    """``classify_trees(n, mode).to_json_dict()`` as the Prüfer enumeration
    gives it: each representative is the least sorted edge list over the
    labeled members of its class, and classes are sorted by it."""
    classes = _prufer_tree_classes(n)
    return {
        "n": n,
        "mode": mode,
        "class_count": len(classes),
        "total_labeled_trees": sum(size for _, size in classes),
        "class_sizes": [size for _, size in classes],
        "representatives": [{"n": n, "edges": [list(e) for e in member]}
                            for member, _ in classes],
    }
