"""Conditional-independence relations of a DAG.

d-separation, the imposed (local Markov) relation lists, the determinantal
minor generators they induce, the reduced generators available for tree
models, marginalization, and the lies-below check at the CI level.

Generators are only ever represented structurally (MinorSpec/TreeRelation)
and evaluated at points; there is no symbolic polynomial ring here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Literal, Optional, Tuple

from .dag import Dag, _require_ints

IMPLIED_GUARD = 12  # max n for implied_relations: it ranges over all K subsets


class CiError(ValueError):
    """Invalid conditional-independence query."""


@dataclass(frozen=True)
class CiStatement:
    """The statement i independent of j given the set ``cond``."""

    i: int
    j: int
    cond: FrozenSet[int]

    def __init__(self, i: int, j: int, cond: Iterable[int] = ()):
        cond = frozenset(cond)
        _require_ints([i, j, *cond], "statement nodes", CiError)
        if i == j:
            raise CiError(f"i and j must differ, got {i}")
        if i in cond or j in cond:
            raise CiError(f"endpoints {i},{j} overlap conditioning set {sorted(cond)}")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "cond", cond)

    def to_json_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "cond": sorted(self.cond)}


@dataclass(frozen=True)
class MinorSpec:
    """Row/column index lists of a determinantal generator.

    For an originating statement (i, j, K) the convention is
    rows = (i, K ascending), cols = (j, K ascending). The ordering is fixed
    so golden outputs are bit-stable; only vanishing of the determinant is
    ever consumed, so the sign convention is immaterial.
    """

    rows: Tuple[int, ...]
    cols: Tuple[int, ...]

    def __init__(self, rows: Iterable[int], cols: Iterable[int]):
        rows, cols = tuple(rows), tuple(cols)
        _require_ints(rows + cols, "minor indices", CiError)
        if len(rows) != len(cols):
            raise CiError("minor must be square")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def from_statement(cls, s: CiStatement) -> "MinorSpec":
        k = sorted(s.cond)
        return cls((s.i, *k), (s.j, *k))

    def one_based(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (tuple(r + 1 for r in self.rows), tuple(c + 1 for c in self.cols))

    def label(self) -> str:
        """Human-facing 1-based rendering, e.g. '|sigma_{32,12}|'."""
        r = "".join(str(x + 1) for x in self.rows)
        c = "".join(str(x + 1) for x in self.cols)
        return f"|sigma_{{{r},{c}}}|"

    def to_json_dict(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols)}


@dataclass(frozen=True)
class TreeRelation:
    """A reduced generator for tree models.

    kind 'linear' means sigma_ij = 0; kind 'quadratic' means
    sigma_ij - sigma_ik * sigma_kj = 0 with mediator k.
    """

    kind: Literal["linear", "quadratic"]
    i: int
    j: int
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise CiError(f"unknown relation kind {self.kind!r}")
        _require_ints([x for x in (self.i, self.j, self.k) if x is not None],
                      "relation nodes", CiError)
        if self.i == self.j:
            raise CiError("i and j must differ")
        if self.kind == "quadratic" and self.k in (None, self.i, self.j):
            raise CiError("quadratic relation needs a mediator k distinct from i, j")
        if self.kind == "linear" and self.k is not None:
            raise CiError("linear relation takes no mediator")

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "i": self.i, "j": self.j}
        if self.kind == "quadratic":
            d["k"] = self.k
        return d


def _check_query(g: Dag, i: int, j: int, cond: FrozenSet[int]):
    _require_ints([i, j, *cond], "query nodes", CiError)
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise CiError(f"node out of range for n={g.n}")
    if i == j or i in cond or j in cond:
        raise CiError("i, j, K must not overlap")
    if any(not (0 <= k < g.n) for k in cond):
        raise CiError(f"conditioning node out of range for n={g.n}")


def d_separated(g: Dag, i: int, j: int, cond: Iterable[int] = ()) -> bool:
    """Whether every path between i and j is blocked given ``cond``.

    Implemented as reachability in the moralized ancestral graph of
    {i, j} and the conditioning set; the contract is extensional agreement
    with path-blocking semantics.
    """
    cond = frozenset(cond)
    _check_query(g, i, j, cond)

    pa = g.parents
    # ancestral closure of {i, j} | cond
    anc = set(cond) | {i, j}
    stack = list(anc)
    while stack:
        u = stack.pop()
        for p in pa[u]:
            if p not in anc:
                anc.add(p)
                stack.append(p)
    # moralize the induced subgraph: drop directions, marry co-parents
    adj: Dict[int, set] = {u: set() for u in anc}
    for u, v in g.edges:
        if u in anc and v in anc:
            adj[u].add(v)
            adj[v].add(u)
    for v in anc:
        ps = [p for p in pa[v] if p in anc]
        for a, b in itertools.combinations(ps, 2):
            adj[a].add(b)
            adj[b].add(a)
    # reachability avoiding conditioned nodes
    seen = {i}
    stack = [i]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v == j:
                return False
            if v not in seen and v not in cond:
                seen.add(v)
                stack.append(v)
    return True


def toposorted_imposed(g: Dag) -> List[CiStatement]:
    """Local Markov relations restricted to topological predecessors.

    For each node i (in topological order) with K = pa(i), one pairwise
    statement (i, j, K) for every earlier node j not in K. The first
    endpoint is the later node, matching the generating traversal.
    """
    return [CiStatement(i, j, k) for i, k, pos in g.plan
            for j in g.order[:pos] if j not in k]


def implied_relations(g: Dag) -> List[CiStatement]:
    """All pairwise statements (i, j, K) that hold in every compatible
    distribution, i.e. with i and j d-separated by K. Canonical order:
    ascending (i, j, |K|, sorted K). Guarded to n <= 12 because the
    conditioning sets are enumerated exhaustively.
    """
    if g.n > IMPLIED_GUARD:
        raise CiError(
            f"implied-relation enumeration needs n <= {IMPLIED_GUARD}, got {g.n}")
    out: List[CiStatement] = []
    for i, j in itertools.combinations(range(g.n), 2):
        rest = [v for v in range(g.n) if v != i and v != j]
        for size in range(len(rest) + 1):
            for k in itertools.combinations(rest, size):
                if d_separated(g, i, j, k):
                    out.append(CiStatement(i, j, k))
    out.sort(key=lambda s: (s.i, s.j, len(s.cond), sorted(s.cond)))
    return out


def imposed_minors(g: Dag) -> List[MinorSpec]:
    """One determinantal generator per toposorted imposed statement."""
    return [MinorSpec.from_statement(s) for s in toposorted_imposed(g)]


def _skeleton_is_forest(g: Dag) -> bool:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.skeleton():
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def tree_reduced_generators(t: Dag) -> List[TreeRelation]:
    """Low-degree generators for a directed forest model.

    Traverses nodes in topological order; for each earlier non-parent j of
    node i, the smallest subset of pa(i) d-separating i and j is either
    empty (emit the linear form sigma_ij) or the single parent the i-j
    path enters through (emit sigma_ij - sigma_ik * sigma_kj). On points
    with nonzero principal minors these cut out the same set as the
    imposed minors.
    """
    if not _skeleton_is_forest(t):
        raise CiError("tree_reduced_generators requires a forest skeleton")
    out: List[TreeRelation] = []
    for s in toposorted_imposed(t):
        i, j = s.i, s.j
        a, b = min(i, j), max(i, j)
        if d_separated(t, i, j, ()):
            out.append(TreeRelation("linear", a, b))
            continue
        for k in sorted(s.cond):
            if d_separated(t, i, j, (k,)):
                out.append(TreeRelation("quadratic", a, b, k))
                break
        else:
            raise CiError(
                f"no parent of {i} d-separates it from {j}; not a forest?")
    return out


def marginal_implied(g: Dag, eliminate: Iterable[int]) -> List[CiStatement]:
    """Implied relations that avoid the eliminated node set entirely.

    This is the conditional-independence model left after marginalizing
    out ``eliminate``; it need not be the implied set of any DAG.
    """
    eliminate = list(eliminate)
    _require_ints(eliminate, "eliminated nodes", CiError)
    n_set = frozenset(eliminate)
    if any(not (0 <= v < g.n) for v in n_set):
        raise CiError(f"eliminated node out of range for n={g.n}")
    return [s for s in implied_relations(g)
            if not ({s.i, s.j} | s.cond) & n_set]


def lies_below_ci(m: Dag, g: Dag, embed: Iterable[int]) -> bool:
    """Whether model ``m`` lies below ``g`` through the node map ``embed``.

    ``embed`` maps each node of m to a node of g (injectively). True iff
    every toposorted imposed statement of m, transported through the map,
    is d-separated in g, i.e. marginals of g-compatible distributions on
    the embedded nodes satisfy all of m's constraints.
    """
    emb = list(embed)
    _require_ints(emb, "embedded nodes", CiError)
    if len(emb) != m.n:
        raise CiError(f"embedding must list an image for each of {m.n} nodes")
    if len(set(emb)) != len(emb):
        raise CiError("embedding must be injective")
    if any(not (0 <= x < g.n) for x in emb):
        raise CiError(f"embedded node out of range for n={g.n}")
    for s in toposorted_imposed(m):
        if not d_separated(g, emb[s.i], emb[s.j], (emb[k] for k in s.cond)):
            return False
    return True
