"""Directed acyclic graphs on labeled nodes 0..n-1, their relabelings, and
the deterministic pattern (skeleton + immoralities) oracle for Markov
equivalence and model isomorphism.

All types are immutable values; every operation returns fresh objects.
Node ids are 0-based throughout the library (rendered 1-based only in
human-facing strings).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import (Callable, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple)

TopoOrder = Tuple[int, ...]


class DagError(ValueError):
    """Invalid graph input."""


class CycleError(DagError):
    """The edge set contains a directed cycle."""


def _require_ints(values: Iterable, what: str, error=DagError) -> None:
    """Raise ``error`` unless every value is exactly an int: bool is an
    int subclass, and int() would truncate a float or parse a string."""
    for x in values:
        if type(x) is not int:
            raise error(f"{what} must be integers, got {x!r}")


def _require_exact(values: Iterable, what: str, error) -> None:
    """Raise ``error`` unless every value is exactly an int or a Fraction:
    Fraction() would take a bool as 0 or 1, a float as its binary value
    and a string as a decimal."""
    for x in values:
        if type(x) is not int and type(x) is not Fraction:
            raise error(f"{what} must be ints or Fractions, got {x!r}")


@dataclass(frozen=True)
class Dag:
    """A DAG on ``n`` nodes with directed edges (parent, child).

    Invariants enforced at construction: an int node count and int node
    ids in range, no self-loops, no duplicate edges, no directed cycles.
    The cycle check's topological order is kept as the attribute ``order``,
    and ``parents`` is built on first use; neither is a dataclass field,
    so equality, hash and repr ignore them.
    """

    n: int
    edges: FrozenSet[Tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        _require_ints([n], "node count")
        if n < 1:
            raise DagError(f"node count must be >= 1, got {n}")
        pairs = [(u, v) for u, v in edges]
        _require_ints(itertools.chain.from_iterable(pairs), "node ids")
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise DagError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise DagError(f"self-loop at node {u}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(pairs))
        object.__setattr__(self, "order", _kahn(n, self.edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def parents(self) -> Tuple[Tuple[int, ...], ...]:
        """The parents of each node, ascending."""
        pa: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            pa[v].append(u)
        return tuple(map(tuple, pa))

    def parent_sets(self) -> Tuple[FrozenSet[int], ...]:
        return tuple(map(frozenset, self.parents))

    def child_sets(self) -> Tuple[FrozenSet[int], ...]:
        ch: List[set] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            ch[u].add(v)
        return tuple(frozenset(s) for s in ch)

    def skeleton(self) -> FrozenSet[Tuple[int, int]]:
        """Undirected edge set as pairs (a, b) with a < b."""
        return frozenset((min(u, v), max(u, v)) for u, v in self.edges)

    def skeleton_degrees(self) -> Tuple[int, ...]:
        deg = [0] * self.n
        for a, b in self.skeleton():
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)

    def sorted_edges(self) -> List[Tuple[int, int]]:
        return sorted(self.edges)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @classmethod
    def from_json_dict(cls, d: dict, one_based: bool = False) -> "Dag":
        """Read {"n": int, "edges": [[u, v], ...]}. The node count and node
        ids must be JSON integers: the constructor rejects floats, bools and
        strings rather than coercing them."""
        try:
            n = d["n"]
            edges = [(u, v) for u, v in d["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DagError(f"DAG JSON needs keys 'n' and 'edges' (a list of "
                           f"node pairs): {exc}")
        if one_based:  # shift integers only; the constructor rejects the rest
            edges = [(u - 1, v - 1) if type(u) is int and type(v) is int
                     else (u, v) for u, v in edges]
        return cls(n, edges)


@dataclass(frozen=True)
class Permutation:
    """A bijection of 0..n-1, stored as the image tuple: i -> mapping[i]."""

    mapping: Tuple[int, ...]

    def __init__(self, mapping: Iterable[int]):
        m = tuple(mapping)
        _require_ints(m, "permutation images")
        if sorted(m) != list(range(len(m))):
            raise DagError(f"not a permutation of 0..{len(m) - 1}: {m}")
        object.__setattr__(self, "mapping", m)

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, x in enumerate(self.mapping):
            inv[x] = i
        return Permutation(inv)

    def compose(self, first: "Permutation") -> "Permutation":
        """self after first: i -> self(first(i))."""
        if first.n != self.n:
            raise DagError("cannot compose permutations of unequal sizes")
        return Permutation(tuple(self.mapping[x] for x in first.mapping))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))


@dataclass(frozen=True)
class Pattern:
    """Skeleton plus immoralities; a complete Markov-equivalence invariant.

    An immorality is stored as (i, k, j) with i < j, meaning i -> k <- j
    with i, j nonadjacent in the skeleton. Construction checks what
    ``Dag`` checks: n >= 1, int ids in 0..n-1, no loops, and three
    distinct nodes in every immorality.
    """

    n: int
    skeleton: FrozenSet[Tuple[int, int]]
    immoralities: FrozenSet[Tuple[int, int, int]]

    def __init__(self, n: int, skeleton, immoralities):
        skeleton = [(a, b) for a, b in skeleton]
        immoralities = [(i, k, j) for i, k, j in immoralities]
        _require_ints([n], "node count")
        if n < 1:
            raise DagError(f"node count must be >= 1, got {n}")
        _require_ints(itertools.chain(*skeleton, *immoralities), "node ids")
        for nodes in skeleton + immoralities:
            if not all(0 <= v < n for v in nodes):
                raise DagError(f"{nodes} out of range for n={n}")
            if len(set(nodes)) < len(nodes):
                raise DagError(f"{nodes} repeats a node")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "skeleton",
                           frozenset((min(a, b), max(a, b))
                                     for a, b in skeleton))
        object.__setattr__(self, "immoralities",
                           frozenset((min(i, j), k, max(i, j))
                                     for i, k, j in immoralities))
        skel = self.skeleton
        for i, k, j in self.immoralities:
            if (min(i, k), max(i, k)) not in skel \
                    or (min(j, k), max(j, k)) not in skel:
                raise DagError(f"immorality ({i},{k},{j}) legs not in skeleton")
            if (i, j) in skel:
                raise DagError(f"immorality ({i},{k},{j}) has adjacent tips")


def _kahn(n: int, edges: Iterable[Tuple[int, int]]) -> TopoOrder:
    """Kahn's sort with a heap of ready nodes; raises CycleError on a
    directed cycle, which makes it the acyclicity check of ``Dag``."""
    indeg = [0] * n
    children: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        indeg[v] += 1
        children[u].append(v)
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != n:
        raise CycleError("edge set contains a directed cycle")
    return tuple(order)


def descendants(g: Dag, i: int) -> FrozenSet[int]:
    """All j != i reachable from i by a directed path; DagError unless i
    is an int node id of ``g``."""
    _require_ints([i], "node id")
    if not (0 <= i < g.n):
        raise DagError(f"node {i} out of range")
    ch = g.child_sets()
    seen = set()
    stack = [i]
    while stack:
        u = stack.pop()
        for v in ch[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    seen.discard(i)
    return frozenset(seen)


def nondescendants(g: Dag, i: int) -> FrozenSet[int]:
    """All j != i with no directed path i -> ... -> j."""
    desc = descendants(g, i)
    return frozenset(j for j in range(g.n) if j != i and j not in desc)


def apply_permutation(g: Dag, p: Permutation) -> Dag:
    """Relabel nodes: edge (u, v) becomes (p(u), p(v))."""
    if p.n != g.n:
        raise DagError("permutation size does not match node count")
    return Dag(g.n, ((p(u), p(v)) for u, v in g.edges))


def pattern(g: Dag) -> Pattern:
    """Skeleton and immoralities of ``g`` (the Verma-Pearl invariant)."""
    skel = g.skeleton()
    imms = []
    for k, ps in enumerate(g.parents):
        for a, b in itertools.combinations(ps, 2):
            if (a, b) not in skel:
                imms.append((a, k, b))
    return Pattern(g.n, skel, imms)


def markov_equivalent(g1: Dag, g2: Dag) -> bool:
    """Same compatible distributions without relabeling: equal patterns."""
    return pattern(g1) == pattern(g2)


def pattern_isomorphic(p1: Pattern, p2: Pattern) -> Optional[Permutation]:
    """First permutation (in lexicographic order) carrying p1 onto p2.

    Returns a Permutation q with q(skeleton(p1)) = skeleton(p2) and
    q(immoralities(p1)) = immoralities(p2), or None. Candidate images are
    pruned by the refined colours of ``_pattern_colours``, which every
    pattern isomorphism preserves; directed-degree pruning would be
    unsound for model isomorphism (a chain and a fork differ in
    out-degrees yet are isomorphic).
    """
    adj1, adj2 = _adjacency(p1), _adjacency(p2)
    imms2 = p2.immoralities
    # each immorality of p1 is checked once its last node is mapped; equal
    # colour multisets give equal centre totals, so equal immorality
    # counts, and with an injective map landing in imms2 means equality
    closing: List[List[Tuple[int, int, int]]] = [[] for _ in range(p1.n)]
    for imm in p1.immoralities:
        closing[max(imm)].append(imm)

    def consistent(image: List[int], _pre: List[int], _done: int) -> bool:
        u = len(image) - 1
        v = image[u]
        if any((w in adj1[u]) != (image[w] in adj2[v]) for w in range(u)):
            return False
        return all((min(image[i], image[j]), image[k],
                    max(image[i], image[j])) in imms2
                   for i, k, j in closing[u])

    return _first_permutation(_pattern_colours(p1), _pattern_colours(p2),
                              consistent)


def _pattern_colours(p: Pattern) -> List[Tuple[Tuple[int, int, int], int]]:
    """Per node, (seed, rank): the seed is (skeleton degree, immoralities
    centred at the node, immoralities with the node as a tip), and the
    rank is its colour after refining the seeds over the skeleton. Both
    are invariant under relabeling, so pattern isomorphisms keep them."""
    adj = _adjacency(p)
    centre = Counter(k for _, k, _ in p.immoralities)
    tip = Counter(v for i, _, j in p.immoralities for v in (i, j))
    seeds = [(len(adj[v]), centre[v], tip[v]) for v in range(p.n)]
    ranking = {s: r for r, s in enumerate(sorted(set(seeds)))}
    return list(zip(seeds, _refine(adj, [ranking[s] for s in seeds])))


def _refine(adj: List[set], colors: List[int]) -> List[int]:
    n = len(colors)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v])))
                for v in range(n)]
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _first_permutation(colors: Sequence, target_colors: Sequence,
                       consistent: Callable[[List[int], List[int], int], bool]
                       ) -> Optional[Permutation]:
    """Lexicographically first permutation (as the image tuple) with
    ``colors[i] == target_colors[image[i]]`` at every position and
    ``consistent(image, pre, done)`` after every extension, or None
    (at once when the colour multisets differ).

    ``image`` is the mapped prefix, ``pre`` its inverse (``pre[v]`` is
    the preimage of v, or -1) and ``done`` the bitmask of its images.
    ``consistent`` may reject only a prefix that no completion can
    satisfy, so pruning never changes the answer.
    """
    if sorted(colors) != sorted(target_colors):
        return None
    n = len(colors)
    choices = [[v for v in range(n) if target_colors[v] == c] for c in colors]
    image: List[int] = []
    pre = [-1] * n
    done = 0
    untried = [iter(choices[0])]  # untried[i]: images left for position i
    while untried:
        i = len(image)
        for v in untried[-1]:
            if pre[v] >= 0:
                continue
            image.append(v)
            pre[v] = i
            done |= 1 << v
            if consistent(image, pre, done):
                if i + 1 == n:
                    return Permutation(image)
                untried.append(iter(choices[i + 1]))
                break
            pre[v] = -1
            done ^= 1 << image.pop()
        else:  # position i is exhausted: back up to position i - 1
            untried.pop()
            if image:
                pre[image[-1]] = -1
                done ^= 1 << image.pop()
    return None


def _adjacency(p: Pattern) -> List[set]:
    adj: List[set] = [set() for _ in range(p.n)]
    for a, b in p.skeleton:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def relabel_pattern(p: Pattern, q: Permutation) -> Pattern:
    """Relabel nodes: every skeleton edge and immorality maps through q."""
    if q.n != p.n:
        raise DagError("permutation size does not match node count")
    return Pattern(
        p.n,
        ((q(a), q(b)) for a, b in p.skeleton),
        ((q(i), q(k), q(j)) for i, k, j in p.immoralities),
    )
