"""Seeded workloads of the dagiso benchmark.

A workload hands out batches of calls. Batch ``r`` of seed ``s`` is built
from ``random.Random`` seeded with (workload, s, r) only, so the same seed
always gives the same inputs. Each call carries its ground truth, which is
computed when the batch is built, outside the timed region, and never by
the code path the call times: the pattern oracle for the randomized tests,
and checks written here (a small determinant over F_q, closed-form class
counts) for sampling and tree classification.

The program under test receives only the generated ``Dag`` objects, or
graph files for the command line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import dagiso
import dagiso.cli

HERE = Path(__file__).resolve().parent
Q = 2**31 - 1  # the modulus dagiso uses by default; checked in outputs


@dataclass
class Call:
    """One public call, its ground truth, and how to digest its output.

    ``invoke`` is the timed part. ``render`` turns its result into the JSON
    text whose SHA-256 is the reproducibility digest, and ``check`` says
    whether the result agrees with the ground truth; both run untimed.
    """

    label: str
    invoke: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], bool]


def _verdict_json(verdict) -> str:
    return json.dumps(verdict.to_json_dict(), sort_keys=True)


def _rng(*parts) -> random.Random:
    text = "/".join(str(p) for p in parts)
    return random.Random(int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "big"))


def _call_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


# ---------------------------------------------------------------------------
# Graph generators.

def regular2_dag(rng: random.Random, n: int) -> dagiso.Dag:
    """A DAG whose skeleton is a union of cycles of length >= 3, so every
    node has skeleton degree 2, each cycle oriented acyclically at random."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    lengths = []
    left = n
    while left:
        k = rng.choice([k for k in range(3, left + 1)
                        if k == left or left - k >= 3])
        lengths.append(k)
        left -= k
    edges = []
    start = 0
    for k in lengths:
        cycle = nodes[start:start + k]
        start += k
        forward = [rng.random() < 0.5 for _ in range(k)]
        while all(forward) or not any(forward):
            forward = [rng.random() < 0.5 for _ in range(k)]
        for t in range(k):
            a, b = cycle[t], cycle[(t + 1) % k]
            edges.append((a, b) if forward[t] else (b, a))
    return dagiso.Dag(n, edges)


def random_dag(rng: random.Random, n: int, m: int) -> dagiso.Dag:
    """A DAG with exactly m edges, uniform over pairs consistent with a
    random topological order."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = set()
    while len(pairs) < m:
        a, b = sorted(rng.sample(range(n), 2))
        pairs.add((order[a], order[b]))
    return dagiso.Dag(n, sorted(pairs))


def covered_edges(g: dagiso.Dag) -> List[Tuple[int, int]]:
    """Edges u -> v with pa(v) = pa(u) + {u}; reversing one keeps the
    Markov equivalence class."""
    pa = g.parent_sets()
    return [(u, v) for u, v in sorted(g.edges) if pa[v] == pa[u] | {u}]


def reverse_edge(g: dagiso.Dag, edge: Tuple[int, int]) -> dagiso.Dag:
    u, v = edge
    return dagiso.Dag(g.n, [(v, u) if e == edge else e
                            for e in sorted(g.edges)])


def _has_other_path(g: dagiso.Dag, src: int, dst: int,
                    skip: Tuple[int, int]) -> bool:
    """Whether a directed path src -> ... -> dst avoids the edge ``skip``."""
    children: Dict[int, List[int]] = {}
    for e in g.edges:
        if e != skip:
            children.setdefault(e[0], []).append(e[1])
    stack, seen = [src], {src}
    while stack:
        u = stack.pop()
        for v in children.get(u, ()):
            if v == dst:
                return True
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


# ---------------------------------------------------------------------------
# Independent output checks for the sample command.

def det_mod(rows: List[List[int]], q: int) -> int:
    """Determinant over F_q by Gaussian elimination, on a copy."""
    a = [list(r) for r in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] % q), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % q
        inv = pow(a[c][c], -1, q)
        for r in range(c + 1, n):
            f = a[r][c] * inv % q
            if f:
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[c])]
    return det % q


def local_markov_minors(n: int, edges) -> List[Tuple[list, list]]:
    """(rows, cols) of |sigma_{iK, jK}| for every node i with K = pa(i)
    and every non-descendant j of i outside K: the local Markov relations,
    a superset of the imposed minors of any topological order."""
    pa = [set() for _ in range(n)]
    ch = [set() for _ in range(n)]
    for u, v in edges:
        pa[v].add(u)
        ch[u].add(v)
    out = []
    for i in range(n):
        desc, stack = set(), [i]
        while stack:
            for v in ch[stack.pop()]:
                if v not in desc:
                    desc.add(v)
                    stack.append(v)
        k = sorted(pa[i])
        for j in range(n):
            if j != i and j not in desc and j not in pa[i]:
                out.append(([i] + k, [j] + k))
    return out


def sample_output_ok(result, n: int, edges, seed: int) -> bool:
    """Exit code 0, a symmetric unit-diagonal matrix over F_q, and every
    local Markov minor vanishing."""
    code, text = result
    if code != 0:
        return False
    out = json.loads(text)
    mat = out.get("mat")
    if out.get("q") != Q or out.get("seed") != seed or len(mat) != n:
        return False
    for i in range(n):
        if len(mat[i]) != n or mat[i][i] != 1:
            return False
        if any(not 0 <= x < Q or x != mat[j][i]
               for j, x in enumerate(mat[i])):
            return False
    return all(det_mod([[mat[r][c] for c in cols] for r in rows], Q) == 0
               for rows, cols in local_markov_minors(n, edges))


# ---------------------------------------------------------------------------
# Workloads.

class Workload:
    name = ""
    why = ""
    batch_size = 0

    def batch(self, seed: int, r: int) -> List[Call]:
        raise NotImplementedError

    def warmup(self) -> Call:
        """One call outside the timed region, the same for every seed so
        that set-up time does not depend on the seed."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class IsoRegular(Workload):
    """isomorphism_test (m=3) on pairs whose skeletons are unions of
    cycles; half are isomorphic (a covered-edge reversal, then a random
    relabeling), half are not but share n, edge count and degrees."""

    name = "iso-regular"
    why = ("every node has skeleton degree 2, so degree pruning is useless "
           "and the permutation witness search dominates: it exercises "
           "witness-search pruning")

    def __init__(self, n: int = 8, pairs: int = 8, m: int = 3):
        self.n, self.batch_size, self.m = n, pairs, m

    def _pair(self, rng: random.Random, want_yes: bool):
        g = regular2_dag(rng, self.n)
        if want_yes:
            cov = covered_edges(g)
            g2 = reverse_edge(g, rng.choice(cov)) if cov else g
            perm = list(range(self.n))
            rng.shuffle(perm)
            g2 = dagiso.apply_permutation(g2, dagiso.Permutation(perm))
        else:
            g2 = regular2_dag(rng, self.n)
            while dagiso.pattern_isomorphic(dagiso.pattern(g),
                                            dagiso.pattern(g2)) is not None:
                g2 = regular2_dag(rng, self.n)
        truth = dagiso.pattern_isomorphic(dagiso.pattern(g),
                                          dagiso.pattern(g2)) is not None
        if truth != want_yes:
            raise RuntimeError("iso-regular generator disagrees with oracle")
        return g, g2, truth

    def _call(self, rng: random.Random, want_yes: bool) -> Call:
        g, g2, truth = self._pair(rng, want_yes)
        params = dagiso.default_params(g, g2, m=self.m, seed=_call_seed(rng))
        expect = "yes" if truth else "no"
        return Call(f"iso {expect} n={self.n}",
                    lambda: dagiso.isomorphism_test(g, g2, params),
                    _verdict_json, lambda v: v.answer == expect)

    def batch(self, seed: int, r: int) -> List[Call]:
        rng = _rng(self.name, seed, r)
        return [self._call(rng, k % 2 == 0) for k in range(self.batch_size)]

    def warmup(self) -> Call:
        return self._call(_rng(self.name, "warmup"), False)


class EquivLarge(Workload):
    """equivalence_test (m=1) on random DAGs with |E| = 2n; "yes" pairs
    from covered-edge reversals, "no" pairs reverse one non-covered edge."""

    name = "equiv-large"
    why = ("hundreds of nodes: point completion, imposed-minor generation "
           "and identity membership dominate, and it bypasses both the "
           "witness search and the principal-minor check")

    def __init__(self, sizes=(100, 150, 200), m: int = 1):
        self.sizes, self.m = tuple(sizes), m
        self.batch_size = 2 * len(self.sizes)

    def _pair(self, rng: random.Random, n: int, want_yes: bool):
        while True:
            g = random_dag(rng, n, 2 * n)
            cov = covered_edges(g)
            if want_yes and cov:
                g2 = g
                for _ in range(rng.randint(1, 3)):
                    g2 = reverse_edge(g2, rng.choice(covered_edges(g2)))
                return g, g2
            if not want_yes:
                cov = set(cov)
                cands = [e for e in sorted(g.edges) if e not in cov
                         and not _has_other_path(g, e[0], e[1], e)]
                if cands:
                    return g, reverse_edge(g, rng.choice(cands))

    def _call(self, rng: random.Random, n: int, want_yes: bool) -> Call:
        g, g2 = self._pair(rng, n, want_yes)
        truth = dagiso.markov_equivalent(g, g2)
        if truth != want_yes:
            raise RuntimeError("equiv-large generator disagrees with oracle")
        params = dagiso.default_params(g, g2, m=self.m, seed=_call_seed(rng))
        expect = "yes" if truth else "no"
        return Call(f"equiv {expect} n={n}",
                    lambda: dagiso.equivalence_test(g, g2, params),
                    _verdict_json, lambda v: v.answer == expect)

    def batch(self, seed: int, r: int) -> List[Call]:
        rng = _rng(self.name, seed, r)
        return [self._call(rng, n, yes)
                for n in self.sizes for yes in (True, False)]

    def warmup(self) -> Call:
        return self._call(_rng(self.name, "warmup"), self.sizes[0], False)


class SampleGuarded(Workload):
    """The ``dagiso sample`` command, run in-process through
    ``dagiso.cli.main`` on graph files with |E| = 2n.

    The graph files go to a temporary directory inside the benchmark's own
    directory, because a run may write only inside its checkout.
    """

    name = "sample-guarded"
    why = ("n = 12..14 keeps the exhaustive principal-minor check on, which "
           "dominates; the command line's JSON load and emit ride along")

    def __init__(self, sizes=(12, 13, 14)):
        self.sizes = tuple(sizes)
        self.batch_size = len(self.sizes)
        self._tmp = None
        self._files = 0

    def _call(self, rng: random.Random, n: int) -> Call:
        g = random_dag(rng, n, 2 * n)
        edges = sorted(g.edges)
        if self._tmp is None:
            self._tmp = tempfile.TemporaryDirectory(prefix=".graphs-",
                                                    dir=HERE)
        path = Path(self._tmp.name) / f"g{self._files}.json"
        self._files += 1
        path.write_text(json.dumps({"n": n, "edges": edges}))
        seed = _call_seed(rng)
        argv = ["sample", str(path), "--seed", str(seed)]

        def invoke():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = dagiso.cli.main(argv)
            return code, out.getvalue()

        return Call(f"sample n={n}", invoke, lambda res: res[1],
                    lambda res: sample_output_ok(res, n, edges, seed))

    def batch(self, seed: int, r: int) -> List[Call]:
        rng = _rng(self.name, seed, r)
        return [self._call(rng, n) for n in self.sizes]

    def warmup(self) -> Call:
        return self._call(_rng(self.name, "warmup"), self.sizes[0])

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()


def tree_total(n: int) -> int:
    """Labeled directed trees on n nodes: n^(n-2) * 2^(n-1)."""
    return 1 if n == 1 else n ** (n - 2) * 2 ** (n - 1)


TREE_CLASSES = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 142}


class ClassifyTrees(Workload):
    """Alternating classify_trees in oracle mode and in cross-check mode."""

    name = "classify-trees"
    why = ("tree enumeration, pattern collection and canonical forms "
           "dominate, and many tiny isomorphism tests make per-call set-up "
           "outweigh the witness search")

    def __init__(self, oracle_n: int = 6, cross_n: int = 5):
        self.oracle_n, self.cross_n = oracle_n, cross_n
        self.batch_size = 2

    def _call(self, n: int, mode: str, seed: int) -> Call:
        def check(report) -> bool:
            return (report.mode == mode
                    and report.class_count == TREE_CLASSES[n]
                    and len(report.representatives) == TREE_CLASSES[n]
                    and sum(report.class_sizes) == tree_total(n)
                    and report.total == tree_total(n))

        return Call(f"classify n={n} {mode}",
                    lambda: dagiso.classify_trees(n, mode, seed=seed),
                    _verdict_json, check)

    def batch(self, seed: int, r: int) -> List[Call]:
        rng = _rng(self.name, seed, r)
        return [self._call(self.oracle_n, "oracle", _call_seed(rng)),
                self._call(self.cross_n, "cross-check", _call_seed(rng))]

    def warmup(self) -> Call:
        # the smallest tree size that still has a nontrivial bucket
        rng = _rng(self.name, "warmup")
        return self._call(4, "cross-check", _call_seed(rng))


WORKLOADS = {w.name: w for w in (IsoRegular, EquivLarge, SampleGuarded,
                                 ClassifyTrees)}
