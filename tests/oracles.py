"""Independent oracles and exhaustive generators used across the tests.

Everything here is deliberately naive: brute-force path enumeration for
d-separation, direct digraph enumeration for small-n exhaustive sweeps,
textbook covered-edge reversal for Markov-equivalent partners, and the
sampler's kernels as one determinant per minor. These stay independent
of the library's algorithms so they can referee them; they touch nothing
of the package beyond the Dag value type. The tree classification
referee enumerates every labeled directed tree as plain edge tuples,
from its own Prüfer decode, and groups them by an AHU code of their
patterns; it referees counting labeled trees by orbits and choosing
each representative by a relabeling search. That search in turn is
refereed by ``least_relabeling_reference``, the same search with fewer
cuts.
"""

import functools
import itertools
from fractions import Fraction

from dagiso import Dag


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


def non_covered_reversal(g, rng):
    """A DAG that is not Markov-equivalent to g, from reversing one edge
    u -> v that is not covered and is the only directed path from u to v
    (so the reversal stays acyclic), or None if there is no such edge."""
    pa = {i: set() for i in range(g.n)}
    children = {i: set() for i in range(g.n)}
    for a, b in g.edges:
        pa[b].add(a)
        children[a].add(b)

    def other_path(u, v):
        stack, seen = [w for w in children[u] if w != v], set()
        while stack:
            w = stack.pop()
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.extend(children[w])
        return False

    cands = [(u, v) for u, v in sorted(g.edges)
             if pa[v] != pa[u] | {u} and not other_path(u, v)]
    if not cands:
        return None
    u, v = cands[rng.randrange(len(cands))]
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


def minors_vanish_or_singular(mat, left, q):
    """What the membership check answers for the (i, K, cols) triples
    ``left``, from one determinant per block and minor: node by node,
    "singular" at the first block sigma_KK that is, False at the first
    node with a nonzero minor |sigma_{iK,jK}|, and True past the last."""
    for i, k, cols in left:
        if not det_exact([[mat[r][c] for c in k] for r in k], q):
            return "singular"
        if any(det_exact([[mat[r][c] for c in (j, *k)] for r in (i, *k)], q)
               for j in cols if j not in k):
            return False
    return True


def demand_full_walk(g, left=(), limit=None):
    """``points._demand`` as one pass over every position of ``g.order``,
    latest first, with the positions and sorted parent positions rebuilt
    per call: the walk before it visited only the positions with a
    pending need. Same (i, cols) steps, or None once they number
    ``limit`` or more."""
    at = [0] * g.n
    for x, i in enumerate(g.order):
        at[i] = x
    order = g.order
    pa = [sorted([at[t] for t in g.parents[i]]) for i in order]
    need = [set() for _ in range(g.n)]
    for i, k, cols in left:
        ps = [at[c] for c in (*cols, *k, i)]
        for r in (i, *k):
            x = at[r]
            need[x].update([y for y in ps if y < x])
            for y in ps:
                if y > x:
                    need[y].add(x)
    steps, count = [], 0
    for x in range(g.n - 1, 0, -1):
        k = pa[x]
        cols = sorted(need[x].difference(k))
        if not cols:
            continue
        count += len(cols)
        if limit is not None and count >= limit:
            return None
        steps.append((x, cols))
        for z, t in enumerate(k):
            need[t].update(k[:z], [y for y in cols if y < t])
            for y in cols:
                if y > t:
                    need[y].add(t)
    return [(order[x], [order[y] for y in cols])
            for x, cols in reversed(steps)]


def proper_ancestors_of(g, v):
    """Every node with a directed path to v, by a search over
    ``parent_sets()``."""
    pa = g.parent_sets()
    seen, stack = set(), list(pa[v])
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(pa[u])
    return seen


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


def _prufer_edges(seq, n):
    """The sorted edges (a, b), a < b, of the labeled tree on n nodes with
    Prüfer sequence ``seq``: each step joins the least leaf to the next
    entry, and the last two nodes left are joined."""
    if n == 1:
        return []
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] = 0
        degree[x] -= 1
    edges.append(tuple(v for v in range(n) if degree[v] == 1))
    return sorted(edges)


def _tree_arms(n, arcs):
    """The arms of the directed tree ``arcs``: its edges into a node with
    two or more parents. A tree's pattern is its skeleton with exactly
    these edges directed, since the parents of a node are never
    adjacent."""
    indegree = [0] * n
    for _, b in arcs:
        indegree[b] += 1
    return frozenset((a, b) for a, b in arcs if indegree[b] >= 2)


def _tree_pattern_code(n, skeleton, arms):
    """A string that two tree patterns on n nodes share exactly when they
    are isomorphic: the AHU code (Aho, Hopcroft & Ullman, 1974) of the
    ``skeleton`` rooted at a centre, the least over both centres, with
    each edge marked from parent to child: "d" for an arm into the child,
    "u" for an arm into the parent, and "p" for a plain edge."""
    def mark(x, y):  # the edge from parent x to child y
        return "d" if (x, y) in arms else "u" if (y, x) in arms else "p"

    adj = [[] for _ in range(n)]
    for a, b in skeleton:
        adj[a].append((b, mark(a, b)))
        adj[b].append((a, mark(b, a)))

    def code(x, parent):
        return "(" + "".join(sorted(mark + code(c, x) for c, mark in adj[x]
                                    if c != parent)) + ")"

    degree = [len(a) for a in adj]
    layer, left = [v for v in range(n) if degree[v] <= 1], n
    while left > 2:  # strip the leaves until the centres are left
        left -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u, _ in adj[v]:
                if degree[u] > 0:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return min(code(c, None) for c in layer)


@functools.lru_cache(maxsize=None)
def _prufer_tree_classes(n):
    """(least member edges, labeled member count) per isomorphism class of
    directed trees on n nodes, sorted. Every labeled tree comes from its
    Prüfer sequence and every directed tree from one of its orientations,
    as plain edge tuples; two are in one class exactly when the
    ``_tree_pattern_code`` of their patterns is equal."""
    classes = {}  # pattern code -> [least member, count]
    for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
        skeleton = _prufer_edges(seq, n)
        codes = {}  # arms -> pattern code, for this skeleton
        for mask in range(2 ** len(skeleton)):
            member = tuple(sorted((b, a) if mask >> t & 1 else (a, b)
                                  for t, (a, b) in enumerate(skeleton)))
            arms = _tree_arms(n, member)
            if arms not in codes:
                codes[arms] = _tree_pattern_code(n, skeleton, arms)
            cls = classes.setdefault(codes[arms], [member, 0])
            cls[0] = min(cls[0], member)
            cls[1] += 1
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


def least_relabeling_reference(n, orientations):
    """The lexicographically least sorted edge list over every relabeling
    of every directed tree on n nodes in ``orientations``: the search of
    ``_least_relabeling`` without its cuts that compare one edge per level
    and keep only the candidates with the most unlabeled children.

    A branch-and-bound search hands out labels 0, 1, 2, ... in order. The
    sorted edge list is then fixed up to the first labeled node that
    still has an unlabeled child, the pending tail t, and the prefix
    prunes against the best list found so far. With a pending tail the
    next edge is (t, k) exactly when label k goes to one of t's unlabeled
    children, so only those are tried; without one, the next edge is (k,
    c) for the least child c of the node labeled k, and only the nodes
    giving the least c are tried. Either way the labeled nodes span a
    subtree, so each label after the first adds just that edge to the
    prefix. Twin leaves (same neighbour, same direction) are swapped by an
    automorphism, so one of each is tried; the candidates never mix a leaf
    parent and a leaf child of one node, so equal neighbours mean twins.
    """
    best = None
    for edges in orientations:
        children = [[] for _ in range(n)]
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            children[u].append(v)
            nbrs[u].append(v)
            nbrs[v].append(u)
        twin = [nbrs[v][0] if len(nbrs[v]) == 1 else -1 - v
                for v in range(n)]
        label = [-1] * n
        order = []
        prefix = []

        def extend(t):
            # t is the position of the pending tail, len(order) if none
            nonlocal best
            if best is not None and prefix > best[:len(prefix)]:
                return
            k = len(order)
            if k == n:
                best = prefix[:]
                return
            if t < k:
                cands = [c for c in children[order[t]] if label[c] < 0]
            else:
                def next_child(v):
                    kids = [label[c] for c in children[v] if label[c] >= 0]
                    return min(kids) if kids else (
                        k + 1 if children[v] else n)
                free = [(next_child(v), v) for v in range(n) if label[v] < 0]
                least = min(free)[0]
                cands = [v for c, v in free if c == least]
            tried = set()
            for v in cands:
                if twin[v] in tried:
                    continue
                tried.add(twin[v])
                label[v] = k
                order.append(v)
                if k:  # label 0 adds no edge
                    prefix.append((t, k) if t < k else (k, least))
                s = t  # move the tail past every complete position
                while s <= k and all(label[c] >= 0
                                     for c in children[order[s]]):
                    s += 1
                extend(s)
                if k:
                    prefix.pop()
                order.pop()
                label[v] = -1

        extend(0)
    return tuple(best)
