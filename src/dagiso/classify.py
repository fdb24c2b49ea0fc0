"""Enumeration of directed tree models and their isomorphism classes.

``enumerate_tree_dags`` lists every labeled directed tree: labeled trees
come from Prüfer sequences, orientations from edge bitmasks (orientations
of a forest are automatically acyclic), so the stream has exactly
n^(n-2) * 2^(n-1) members for n >= 2. Classification does not walk that
stream. It takes one labeled tree per unlabeled tree, counts its labeled
copies as n!/|Aut|, and makes one entry per labeled pattern among its
2^(n-1) orientations. Each entry's key is the least sorted edge list
over every relabeling of its orientations, found by one branch-and-bound
search; it is a complete invariant of the class and the class's
representative. Oracle mode groups the entries by key. Randomized mode
buckets them by the multiset of refined pattern colours and merges within
a bucket by the randomized isomorphism test, using keys only to name the
classes; cross-check mode also holds each verdict to key equality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .dag import (Dag, Pattern, _adjacency, _pattern_colours, _refine,
                  _require_ints)
from .fields import MERSENNE31, _is_prime_int
from .randomized import IsoParams, _degree_bound, isomorphism_test
from .points import _derive_seed

ENUMERATION_GUARD = 8
CANONICAL_GUARD = 10
CLASSIFY_GUARD = 8


class ClassifyError(ValueError):
    """Invalid classification request."""


class CrossCheckError(RuntimeError):
    """A randomized verdict disagreed with key equality; carries its pair."""

    def __init__(self, message: str, pair: Tuple[Dag, Dag]):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class ClassReport:
    """Partition of all labeled directed trees on n nodes into model-
    isomorphism classes. representatives[k] is the lexicographically least
    member of class k; class_sizes[k] counts its labeled members."""

    n: int
    mode: str
    class_count: int
    representatives: Tuple[Dag, ...]
    class_sizes: Tuple[int, ...]
    total: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "class_count": self.class_count,
            "total_labeled_trees": self.total,
            "class_sizes": list(self.class_sizes),
            "representatives": [d.to_json_dict() for d in self.representatives],
        }


def _prufer_decode(seq: Tuple[int, ...], n: int) -> List[Tuple[int, int]]:
    """Edges (a, b) with a < b of the labeled tree encoded by ``seq``."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    import heapq
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def enumerate_tree_dags(n: int) -> Iterator[Dag]:
    """All labeled directed trees on n nodes, in deterministic order:
    Prüfer sequences lexicographically, then orientation bitmasks (bit b
    set reverses the b-th edge of the sorted undirected tree)."""
    if not 1 <= n <= ENUMERATION_GUARD:
        raise ClassifyError(
            f"tree enumeration needs 1 <= n <= {ENUMERATION_GUARD}, got {n}")
    if n == 1:
        yield Dag(1)
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        base = sorted(_prufer_decode(seq, n))
        for mask in range(2 ** (n - 1)):
            edges = [(b, a) if (mask >> idx) & 1 else (a, b)
                     for idx, (a, b) in enumerate(base)]
            yield Dag(n, edges)


# ---------------------------------------------------------------------------
# Canonical form of a pattern under relabeling: the refined colours of
# dag.py plus individualization, minimizing the relabeled encoding over the
# leaves of the search tree. Equal byte strings iff the patterns are
# isomorphic.

def _pattern_encoding(p: Pattern, position: List[int]) -> tuple:
    skel = tuple(sorted((min(position[a], position[b]),
                         max(position[a], position[b]))
                        for a, b in p.skeleton))
    imms = tuple(sorted((min(position[i], position[j]), position[k],
                         max(position[i], position[j]))
                        for i, k, j in p.immoralities))
    return (skel, imms)


def canonical_pattern_of(p: Pattern) -> bytes:
    n = p.n
    if n > CANONICAL_GUARD:
        raise ClassifyError(
            f"canonical form needs n <= {CANONICAL_GUARD}, got {n}")
    if not p.skeleton:
        # every relabeling encodes identically
        return repr((n, (), ())).encode()
    adj = _adjacency(p)
    colors = [r for _, r in _pattern_colours(p)]

    best: Optional[tuple] = None

    def search(colors: List[int]):
        nonlocal best
        groups: Dict[int, List[int]] = {}
        for v, c in enumerate(colors):
            groups.setdefault(c, []).append(v)
        target = None
        for c in sorted(groups):
            if len(groups[c]) > 1:
                target = groups[c]
                break
        if target is None:
            position = colors  # discrete: color rank is the new label
            cand = _pattern_encoding(p, position)
            if best is None or cand < best:
                best = cand
            return
        for v in target:
            # individualize v: give it a fresh color below its class
            branched = [2 * c + (0 if u == v else 1) if c == colors[v]
                        else 2 * c for u, c in zip(range(n), colors)]
            ranking = {s: r for r, s in enumerate(sorted(set(branched)))}
            search(_refine(adj, [ranking[s] for s in branched]))

    search(colors)
    return repr((n, best[0], best[1])).encode()


# ---------------------------------------------------------------------------
# The orbit pipeline. The pattern of a directed tree is fixed by its
# skeleton and by the parent sets of its colliders (a tree has no triangle,
# so every two parents of a node are an immorality), and a model's class
# does not change under relabeling. So one labeled tree T0 per unlabeled
# skeleton T stands for all of them: each orientation of T0 stands for its
# n!/|Aut(T)| relabelings onto the labeled copies of T, and the orientations
# of T0 that agree on every collider's parent set share one labeled pattern.

def _tree_code(n: int, edges: Sequence[Tuple[int, int]]) -> Tuple[str, int]:
    """Canonical code of the free tree on n nodes with ``edges`` (the AHU
    encoding rooted at a centre, the least over both centres of a
    bicentral tree), and the order of its automorphism group."""
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def rooted(v: int, parent: int) -> Tuple[str, int]:
        codes, aut = [], 1
        for u in adj[v]:
            if u != parent:
                code, sub = rooted(u, v)
                codes.append(code)
                aut *= sub
        codes.sort()
        for _, run in itertools.groupby(codes):
            aut *= math.factorial(len(list(run)))
        return "(" + "".join(codes) + ")", aut

    # peel leaves layer by layer until one or two centres are left
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    peeled.append(u)
        layer = peeled
    (code, aut), *other = [rooted(c, -1) for c in layer]
    if other:
        # the stabilizer of one centre is the rooted group; the other
        # centre is in its orbit exactly when the rooted codes agree
        code, aut = min(code, other[0][0]), aut * (
            2 if other[0][0] == code else 1)
    return code, aut


def _unlabeled_trees(n: int) -> List[Tuple[Tuple[Tuple[int, int], ...], int]]:
    """One labeled tree per unlabeled tree on n nodes, as its sorted edge
    list, with its number of labeled copies n!/|Aut|. Trees on k + 1
    nodes are grown by hanging node k from each node of every tree on k
    nodes; the codes drop the repeats. Ordered by code."""
    trees = {"": ((), 1)}  # code -> (edges, |Aut|)
    for k in range(1, n):
        grown: Dict[str, Tuple[Tuple[Tuple[int, int], ...], int]] = {}
        for edges, _ in trees.values():
            for v in range(k):
                t = tuple(sorted(edges + ((v, k),)))
                code, aut = _tree_code(k + 1, t)
                grown.setdefault(code, (t, aut))
        trees = grown
    return [(edges, math.factorial(n) // aut)
            for _, (edges, aut) in sorted(trees.items())]


@dataclass(eq=False)
class _Entry:
    """One labeled pattern on a tree T0: the orientations of T0 that
    realise it (its Markov-equivalence class), the number of labeled
    directed trees it stands for (n!/|Aut(T0)| per orientation), and the
    least relabeling of those orientations. Isomorphic entries have the
    same relabelings, so that key is a complete invariant and the least
    member of the class. ``member`` serves randomized mode."""

    orientations: List[Tuple[Tuple[int, int], ...]]
    count: int
    key: Tuple[Tuple[int, int], ...]

    @cached_property
    def member(self) -> Dag:  # a tree on n nodes has n - 1 edges
        return Dag(len(self.key) + 1, min(self.orientations))


def _collect_entries(n: int) -> List[_Entry]:
    entries = []
    for base, copies in _unlabeled_trees(n):
        groups: Dict[tuple, List[Tuple[Tuple[int, int], ...]]] = {}
        for mask in range(2 ** len(base)):
            edges = tuple(sorted((b, a) if mask >> idx & 1 else (a, b)
                                 for idx, (a, b) in enumerate(base)))
            parents: List[List[int]] = [[] for _ in range(n)]
            for u, v in edges:
                parents[v].append(u)
            colliders = tuple((v, tuple(ps)) for v, ps in enumerate(parents)
                              if len(ps) > 1)
            groups.setdefault(colliders, []).append(edges)
        for orientations in groups.values():
            entries.append(_Entry(orientations, copies * len(orientations),
                                  _least_relabeling(n, orientations)))
    return entries


def _least_relabeling(n: int, orientations: Iterable[Sequence[Tuple[int, int]]]
                      ) -> Tuple[Tuple[int, int], ...]:
    """The lexicographically least sorted edge list over every relabeling
    of every directed tree on n nodes in ``orientations``.

    A branch-and-bound search hands out labels 0, 1, 2, ... in order. The
    labeled nodes span a subtree, and the sorted edge list is fixed up to
    the first labeled node with an unlabeled child, the pending tail t. So
    label k > 0 appends one edge, the same for every candidate: (t, k) when
    the candidates are t's unlabeled children, and (k, c) when there is no
    tail and they are the unlabeled parents of the least labeled node c
    that has any. Labels only take parents away, so c never moves back
    along a search path and each scan for it starts at the last one's c.
    No rule below can change the least list:
    - each level's edge is compared once, with best[k - 1], and only while
      the prefix ties the best list: a greater edge loses under every
      candidate, a smaller one wins at every leaf below, and a leaf that
      replaces the best list makes the prefix tie it again;
    - only the candidates with the most unlabeled children are tried: the
      one labeled k becomes the tail at position k after the same edges
      whichever is chosen, then its children add (k, .) edges, so one with
      fewer children loses where the lists first differ;
    - of twin leaves (same neighbour, same direction) one is tried, as an
      automorphism swaps them; the candidates never mix a leaf parent and
      a leaf child of one node, so equal neighbours mean twins.
    """
    best: Optional[List[Tuple[int, int]]] = None
    for edges in orientations:
        children: List[List[int]] = [[] for _ in range(n)]
        parents: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:
            children[u].append(v)
            parents[v].append(u)
        twin = [(children[v] + parents[v])[0]
                if len(children[v]) + len(parents[v]) == 1 else -1 - v
                for v in range(n)]
        left = [len(c) for c in children]  # unlabeled children per node
        label = [-1] * n
        order: List[int] = []
        prefix = [(0, 0)] * (n - 1)
        tied = best is not None  # prefix[:k - 1] == best[:k - 1] at label k

        def extend(t: int, c: int):
            # t is the position of the pending tail, len(order) if none;
            # no position before c has an unlabeled parent
            nonlocal best, tied
            k = len(order)
            if k == n:
                if not tied:
                    best, tied = prefix[:], True
                return
            if t < k:
                cands = [v for v in children[order[t]] if label[v] < 0]
                edge = (t, k)
            elif k:
                c = next(x for x in range(c, k)
                         if any(label[p] < 0 for p in parents[order[x]]))
                cands = [p for p in parents[order[c]] if label[p] < 0]
                edge = (k, c)
            else:
                cands = range(n)
            if k:
                if tied and edge != best[k - 1]:
                    if edge > best[k - 1]:
                        return
                    tied = False
                prefix[k - 1] = edge
            most = max([left[v] for v in cands])
            tried = set()
            for v in cands:
                if left[v] < most or twin[v] in tried:
                    continue
                tried.add(twin[v])
                label[v] = k
                order.append(v)
                for p in parents[v]:
                    left[p] -= 1
                s = t  # move the tail past every complete position
                while s <= k and not left[order[s]]:
                    s += 1
                extend(s, c)
                for p in parents[v]:
                    left[p] += 1
                order.pop()
                label[v] = -1

        extend(0, 0)
    return tuple(best)


def _classify_oracle(entries: List[_Entry]) -> List[List[_Entry]]:
    classes: Dict[tuple, List[_Entry]] = {}
    for e in entries:
        classes.setdefault(e.key, []).append(e)
    return list(classes.values())


def _classify_randomized(entries: List[_Entry], q: int, m: int, seed: int,
                         check: bool) -> List[List[_Entry]]:
    """Bucket the entries by their multiset of refined pattern colours and
    put each in the first class of its bucket whose first member the
    randomized test accepts against it, or else in a new class. With
    ``check``, a verdict that merges unequal keys or splits equal ones
    raises CrossCheckError on that test's pair, and no later test runs.
    That is the whole cross-check: equal keys share a bucket, as every
    isomorphism keeps the colours, and a class grows only when a test
    accepts, so this partition is the keys' exactly when every verdict
    agrees with key equality."""
    buckets: Dict[tuple, List[_Entry]] = {}
    for e in entries:
        buckets.setdefault(tuple(sorted(e.member.colours)), []).append(e)
    classes: List[List[_Entry]] = []
    counter = 0
    for colours in sorted(buckets):
        reps: List[List[_Entry]] = []
        for e in buckets[colours]:
            for group in reps:
                counter += 1
                pair = (e.member, group[0].member)
                accepted = isomorphism_test(*pair, IsoParams(
                    m, q, _derive_seed("classify", seed, counter))).accepted
                if check and accepted != (e.key == group[0].key):
                    raise CrossCheckError("the randomized test " + (
                        "merges unequal" if accepted else "splits equal") +
                        f" keys: {[g.to_json_dict() for g in pair]}", pair)
                if accepted:
                    group.append(e)
                    break
            else:
                reps.append([e])
        classes.extend(reps)
    return classes


def _report(n: int, mode: str, classes: List[List[_Entry]]) -> ClassReport:
    packed = sorted((min(e.key for e in group), sum(e.count for e in group))
                    for group in classes)
    return ClassReport(
        n=n, mode=mode, class_count=len(packed),
        representatives=tuple(Dag(n, key) for key, _ in packed),
        class_sizes=tuple(size for _, size in packed),
        total=sum(size for _, size in packed))


def classify_trees(n: int, mode: str = "oracle", q: int = MERSENNE31,
                   m: int = 3, seed: int = 0) -> ClassReport:
    """Partition all labeled directed trees on n nodes into isomorphism
    classes.

    mode 'oracle' groups by least relabeling; 'randomized' merges within
    invariant buckets by the randomized isomorphism test with prime modulus
    4n - 2 < q < 2^64 and m >= 1 rounds, and 'cross-check' also raises
    CrossCheckError at the first verdict that disagrees with the keys. The
    last two modes take q, m and seed only as ints (ClassifyError).
    """
    _require_ints([n], "node count", ClassifyError)
    if not 1 <= n <= CLASSIFY_GUARD:
        raise ClassifyError(
            f"classification needs 1 <= n <= {CLASSIFY_GUARD}, got {n}")
    if mode not in ("oracle", "randomized", "cross-check"):
        raise ClassifyError(f"unknown mode {mode!r}")
    if mode != "oracle":
        _require_ints([q, m, seed], "q, m and seed", ClassifyError)
        d_bound = _degree_bound(n, n - 1, n - 1)  # of any two trees
        if q <= d_bound or not _is_prime_int(q) or m < 1:
            raise ClassifyError(
                f"need a prime q > {d_bound}, q < 2^64, m >= 1: q={q}, m={m}")
    entries = _collect_entries(n)
    if mode == "oracle":
        return _report(n, mode, _classify_oracle(entries))
    return _report(n, mode, _classify_randomized(entries, q, m, seed,
                                                 mode == "cross-check"))
