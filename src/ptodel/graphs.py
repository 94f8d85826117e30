"""Undirected vertex-weighted graphs and the recognizers the pipeline needs.

Vertices are dense integers ``0..n-1``; a vertex set is an int bitmask, and
adjacency is one bitmask per vertex.  All graphs are immutable after
construction; every operation in this module is a pure function of its
inputs.  The module also holds the two helpers the other layers share: the
record reader behind both text formats and a union-find.

Obstruction terminology: a *hole* is an induced cycle of length >= 4, a *gem*
is an induced path on four vertices plus a fifth vertex adjacent to all four.
A graph is ptolemaic exactly when it is chordal (hole-free) and gem-free.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, TypeVar

VertexSet = tuple[int, ...]
T = TypeVar("T")

# the largest vertex (or FVSP node) weight an input may carry, three decades
# below trouble: on seeded random graphs HiGHS solved both LPs with every
# weight in [1e8, 1e9], failed on some with weights in [1e9, 1e10], and reads
# 1e20 as an infinite cost
MAX_WEIGHT = 1e6


class GraphFormatError(ValueError):
    """Raised when a graph text file cannot be parsed."""


class BudgetExceededError(ValueError):
    """Raised when an input is too large for an exact oracle's size cap."""


class StageError(RuntimeError):
    """A stage (``hitting``, ``reduce``, ``fvsp`` or ``verify``) failed: a
    structural invariant broke, or ``run_stage`` caught another exception
    there; ``stage`` names it and the message leads with it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def run_stage(stage: str, fn: Callable[..., T], *args) -> T:
    """``fn(*args)``; any exception but a ``StageError`` is re-raised as one
    tagged ``stage`` that names the exception's type and message."""
    try:
        return fn(*args)
    except StageError:
        raise
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        raise StageError(stage, detail) from exc


def vset(vertices: Iterable[int]) -> VertexSet:
    """Canonical vertex set: sorted, duplicate-free tuple."""
    return tuple(sorted(set(vertices)))


class WeightedGraph:
    """Simple undirected graph with nonnegative per-vertex weights."""

    __slots__ = ("n", "edges", "weights", "adj_bits")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Optional[Iterable[float]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        # edge {u, v} with u < v as the key u*n + v, whose order is that of
        # (u, v): a set of ints sorts several times faster than one of pairs
        keys: set[int] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            keys.add(u * n + v if u < v else v * n + u)
        self.edges: tuple[tuple[int, int], ...] = tuple(
            divmod(k, n) for k in sorted(keys)
        )
        if weights is None:
            w = (1.0,) * n
        else:
            w = tuple(float(x) for x in weights)
            if len(w) != n:
                raise ValueError("weights length must equal vertex count")
            if not all(math.isfinite(x) and x >= 0 for x in w):
                raise ValueError("vertex weights must be finite and nonnegative")
            if max(w, default=0.0) > MAX_WEIGHT:
                raise ValueError(f"vertex weights must be at most {MAX_WEIGHT:g}")
        self.weights: tuple[float, ...] = w
        bits = [0] * n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.adj_bits: tuple[int, ...] = tuple(bits)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_bits[u] >> v & 1)

    def closed_bits(self, v: int) -> int:
        return self.adj_bits[v] | (1 << v)

    def weight_of(self, vertices: Iterable[int]) -> float:
        return float(sum(self.weights[v] for v in sorted(vertices)))

    def induced(self, keep: Iterable[int]) -> tuple["WeightedGraph", VertexSet]:
        """Induced subgraph on ``keep``; returns it plus the old ids of its
        vertices (new id i corresponds to old id ``mapping[i]``)."""
        old = vset(keep)
        pos = {v: i for i, v in enumerate(old)}
        edges = [
            (pos[u], pos[v]) for u, v in self.edges if u in pos and v in pos
        ]
        sub = WeightedGraph(len(old), edges, [self.weights[v] for v in old])
        return sub, old

    def delete(self, remove: Iterable[int]) -> tuple["WeightedGraph", VertexSet]:
        gone = set(remove)
        return self.induced(v for v in range(self.n) if v not in gone)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.weights))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# text format: `p <n> <m>`, optional `v <id> [<weight>]`, `e <u> <v>`, `#` comments;
# FVSP instances (`fvsp.parse_instance`) share the reader with `d`, `n`, `a`

# the most vertices (or nodes) a header may declare; checked before n-sized work
MAX_HEADER_N = 1_000_000


def _records(text: str):
    """(line number, raw line, tokens) of each line that is not blank once
    its ``#`` comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, raw, parts


def first_record_tag(text: str) -> str:
    """Tag of the first record (``p`` for a graph, ``d`` for an FVSP
    instance), or "" for a file without records."""
    return next((parts[0] for _, _, parts in _records(text)), "")


def read_records(
    text: str,
    tags: str,
    nouns: tuple[str, str],
    error: type[ValueError],
    build: Callable[[int, list[tuple[int, int]], list[float]], T],
) -> T:
    """Read a header-first record file and return ``build(n, pairs, weights)``.

    ``tags`` are the header, weight and pair record tags (``pve`` for graphs,
    ``dna`` for FVSP instances): ``<header> <n> <m>``, ``<weight> <id>
    [<w>]`` with weight 1.0 by default, ``<pair> <u> <v>``.  A longer record,
    an ``n`` above MAX_HEADER_N or a second weight for an id is rejected.
    ``nouns`` name an id and the pairs in messages; every fault, including a
    ValueError from ``build``, is raised as ``error``.
    """
    head, item, pair = tags
    n = m = None
    weights: dict[int, float] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, raw, parts in _records(text):
        try:
            if parts[0] not in (head, item, pair):
                raise error(f"line {lineno}: unknown record {parts[0]!r}")
            elif parts[0] == head and n is not None:
                raise error(f"line {lineno}: duplicate header")
            elif parts[0] != head and n is None:
                raise error(f"line {lineno}: {parts[0]} before header")
            elif len(parts) > 3:
                raise ValueError("more than 3 tokens")
            elif parts[0] == head:
                n, m = int(parts[1]), int(parts[2])
                if n > MAX_HEADER_N:
                    raise error(f"line {lineno}: {nouns[0]} count {n} exceeds {MAX_HEADER_N}")
            elif parts[0] == item:
                vid = int(parts[1])
                w = float(parts[2]) if len(parts) > 2 else 1.0
                if not 0 <= vid < n:
                    raise error(f"line {lineno}: {nouns[0]} {vid} out of range")
                if vid in weights:
                    raise error(f"line {lineno}: duplicate weight for {nouns[0]} {vid}")
                weights[vid] = w
            else:
                pairs.append((int(parts[1]), int(parts[2])))
        except (IndexError, ValueError) as exc:
            if isinstance(exc, error):
                raise
            raise error(f"line {lineno}: {raw!r}: {exc}") from exc
    if n is None:
        raise error(f"missing `{head} <n> <m>` header")
    if m != len(pairs):
        raise error(f"header declares {m} {nouns[1]}, file has {len(pairs)}")
    try:
        return build(n, pairs, [weights.get(v, 1.0) for v in range(n)])
    except ValueError as exc:
        raise error(str(exc)) from exc


def parse_graph(text: str) -> WeightedGraph:
    """Parse the graph text format used by the CLI.

    Vertices without a ``v`` line default to weight 1.0.
    """
    return read_records(text, "pve", ("vertex", "edges"), GraphFormatError, WeightedGraph)


def format_graph(g: WeightedGraph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines += [f"v {v} {g.weights[v]!r}" for v in range(g.n)]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# induced C4 / gem detection


def _c4_candidates(g: WeightedGraph):
    # A C4 is anchored at its minimum vertex b: the opposite corner d is a
    # non-neighbour above b at distance two, and b's two square neighbours
    # are a non-adjacent pair a < c of common neighbours above b.  Each
    # square is found once, in increasing (b, d, a, c) order.
    bits = g.adj_bits
    for b in range(g.n):
        above = _above(g.n, b)
        for d in _bits_to_list(_neighbours(bits, bits[b]) & above & ~bits[b]):
            common = bits[b] & bits[d] & above
            if common.bit_count() < 2:
                continue
            for a in _bits_to_list(common):
                for c in _bits_to_list(common & ~bits[a] & _above(g.n, a)):
                    yield tuple(sorted((a, b, c, d)))


def find_induced_c4(g: WeightedGraph) -> Optional[VertexSet]:
    """First induced 4-cycle as a sorted vertex set, or None."""
    for quad in _c4_candidates(g):
        return quad
    return None


def all_induced_c4(g: WeightedGraph) -> list[VertexSet]:
    """Every vertex set inducing a C4, sorted."""
    return sorted(_c4_candidates(g))


def _apex_p4s(bits: tuple[int, ...], apex: int):
    """Every induced P4 a-b-c-d inside N(apex), once each, from its middle
    edge b < c: the ends are a in N(b) outside N[c] and d in N(c) outside
    N[b], with a and d non-adjacent."""
    nbrs = bits[apex]
    for b in _bits_to_list(nbrs):
        inner = bits[b] & nbrs
        for c in _bits_to_list(inner >> (b + 1) << (b + 1)):
            ends_a = inner & ~(bits[c] | 1 << c)
            ends_d = bits[c] & nbrs & ~(bits[b] | 1 << b)
            if ends_a and ends_d:
                for a in _bits_to_list(ends_a):
                    for d in _bits_to_list(ends_d & ~bits[a]):
                        yield a, b, c, d


def find_induced_gem(g: WeightedGraph) -> Optional[VertexSet]:
    """First induced gem as a sorted vertex set, or None: the smallest P4
    (as a sorted quad) of the smallest apex that has one."""
    for apex in range(g.n):
        paths = _apex_p4s(g.adj_bits, apex)
        quad = min((tuple(sorted(path)) for path in paths), default=None)
        if quad is not None:
            return vset(quad + (apex,))
    return None


def all_induced_gems(g: WeightedGraph) -> list[VertexSet]:
    # The apex of a gem is its unique degree-4 vertex and the P4 has one
    # middle edge, so each gem is found exactly once.
    return sorted(
        tuple(sorted(path + (apex,)))
        for apex in range(g.n)
        for path in _apex_p4s(g.adj_bits, apex)
    )


# ---------------------------------------------------------------------------
# chordality via maximum cardinality search; hole certificates: the shortest
# hole in canonical form (see find_hole), one BFS per edge, O(m·(n+m)) in all


def is_chordal(g: WeightedGraph) -> bool:
    """Chordality by maximum cardinality search (Tarjan and Yannakakis 1984).

    Each step visits an unvisited vertex with the most visited neighbours
    (the smallest id among them).  The graph is chordal iff the reverse
    visit order is a perfect elimination ordering, that is, iff the
    neighbours visited before each vertex lie in the closed neighbourhood
    of the latest of them.
    """
    bits = g.adj_bits
    # buckets[k]: the unvisited vertices with k visited neighbours
    buckets = [(1 << g.n) - 1] + [0] * g.n
    count = [0] * g.n
    latest = [-1] * g.n  # each vertex's most recently visited neighbour
    seen = top = 0
    for _ in range(g.n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        v = low.bit_length() - 1
        u = latest[v]
        if u >= 0 and bits[v] & seen & ~g.closed_bits(u):
            return False
        seen |= low
        for w in _bits_to_list(bits[v] & ~seen):
            buckets[count[w]] ^= 1 << w
            count[w] += 1
            buckets[count[w]] |= 1 << w
            latest[w] = v
            top = max(top, count[w])
    return True


def _shortest_hole(g: WeightedGraph) -> Optional[VertexSet]:
    # A hole with minimum vertex s, whose neighbours on it are a < c, is s
    # plus an induced a-c path with c in N(s) above a and outside N[a], and
    # with every other vertex in ``inner`` = {v > s} minus N[s].  A shortest
    # such path has no chord (a chord would shorten it), so one BFS per edge
    # (s, a) finds the shortest hole through that edge.
    bits = g.adj_bits
    best = None  # (length, s, a, inner, targets), first of the least length
    for s in range(g.n):
        if best is not None and best[0] == 4:
            break
        above = _above(g.n, s)
        inner = above & ~bits[s]
        for a in _bits_to_list(bits[s] & above):
            targets = bits[s] & ~bits[a] & _above(g.n, a)
            if not targets:
                continue
            limit = g.n + 1 if best is None else best[0]
            length = _hole_length(bits, a, inner, targets, limit)
            if length is not None:
                best = (length, s, a, inner, targets)
    if best is None:
        return None
    length, s, a, inner, targets = best
    return (s,) + _first_path(bits, a, inner, targets, length - 3)


def _hole_length(
    bits: tuple[int, ...], a: int, inner: int, targets: int, limit: int
) -> Optional[int]:
    """Vertex count of the shortest hole s, a, ..., c with c in ``targets``
    and the rest in ``inner``, or None if it has ``limit`` or more."""
    frontier = seen = 1 << a
    length = 3  # s, a and c
    while length < limit:
        reach = _neighbours(bits, frontier)
        if reach & targets:
            return length
        frontier = reach & inner & ~seen
        if not frontier:
            return None
        seen |= frontier
        length += 1
    return None


def _first_path(
    bits: tuple[int, ...], a: int, inner: int, targets: int, k: int
) -> VertexSet:
    """Lexicographically first path a, x_1..x_k, c with the x_i in ``inner``
    and c in ``targets``, where k is the fewest inner vertices such a path
    can have."""
    # layers[j]: the inner vertices j steps from the targets, for j = 1..k
    layers = [0, inner & _neighbours(bits, targets)]
    seen = layers[1]
    for _ in range(k - 1):
        layers.append(inner & _neighbours(bits, layers[-1]) & ~seen)
        seen |= layers[-1]
    path = [a]
    for j in range(k, 0, -1):
        path.append(_lowest(bits[path[-1]] & layers[j]))
    path.append(_lowest(bits[path[-1]] & targets))
    return tuple(path)


def find_hole(g: WeightedGraph) -> Optional[VertexSet]:
    """The shortest hole in canonical form, or None iff the graph is chordal.

    Canonical form: among the shortest holes, the lexicographically smallest
    vertex sequence that starts at the hole's minimum vertex and continues
    with the smaller of that vertex's two hole neighbours.
    """
    if is_chordal(g):
        return None
    hole = _shortest_hole(g)
    if hole is None:
        raise StageError("verify", "elimination check and hole search disagree")
    return hole


def is_ptolemaic(g: WeightedGraph) -> tuple[bool, Optional[VertexSet]]:
    """Ptolemaic = chordal and gem-free.  Returns (flag, obstruction)."""
    hole = find_hole(g)
    if hole is not None:
        return False, hole
    gem = find_induced_gem(g)
    if gem is not None:
        return False, gem
    return True, None


# ---------------------------------------------------------------------------
# maximal cliques


def maximal_cliques(g: WeightedGraph, limit: Optional[int] = None) -> list[VertexSet]:
    """All inclusion-maximal cliques, canonically sorted.

    With a ``limit`` the search stops once it holds ``limit + 1`` cliques and
    returns those, so a caller reads "more than ``limit``" from the length.
    """
    cap = None if limit is None else limit + 1
    out: list[int] = []
    bits = g.adj_bits
    # Bron-Kerbosch frames (r, p, x, candidates not yet branched on); an
    # explicit stack, because the depth is the size of the largest clique
    stack: list[tuple[int, int, int, int]] = []

    def enter(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            if len(out) == cap:
                stack.clear()  # ends the search
            return
        pivot = max(_bits_to_list(p | x), key=lambda u: (p & bits[u]).bit_count())
        stack.append((r, p, x, p & ~bits[pivot]))

    if g.n:
        enter(0, (1 << g.n) - 1, 0)
    while stack:
        r, p, x, cand = stack.pop()
        if cand:
            low = cand & -cand
            stack.append((r, p & ~low, x | low, cand ^ low))
            v = low.bit_length() - 1
            enter(r | low, p & bits[v], x & bits[v])
    return sorted(tuple(_bits_to_list(mask)) for mask in out)


def _above(n: int, v: int) -> int:
    """Bitmask of the vertices v+1..n-1."""
    return ((1 << n) - 1) >> (v + 1) << (v + 1)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _neighbours(bits: tuple[int, ...], mask: int) -> int:
    """Union of the neighbourhoods of the vertices in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= bits[low.bit_length() - 1]
        mask ^= low
    return out


def _bits_to_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def union_find(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[list[int], list[tuple[int, int]]]:
    """Union-find over ``0..n-1``: each node's root, and the edges that
    closed a cycle, in input order (none iff the edges form a forest)."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    closing = []
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            closing.append((a, b))
        else:
            parent[ra] = rb
    return [find(v) for v in range(n)], closing
