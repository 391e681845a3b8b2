"""Immutable simple graphs on small dense vertex sets.

Vertices are 0-based integers and adjacency is stored as one bitmask row
per vertex, so neighbourhood unions, intersections, and containment tests
are single integer operations.  Vertex subsets are plain ints with bit v
standing for vertex v.  Everything else in the package builds on these
rows; order is capped only where an operation's cost demands it.

Swapping two twins is an automorphism, so the searches that prune by
symmetry, here and in ``catalog``, try a vertex only after its
lower-indexed twins, which :func:`lower_twins` lists.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .record import Record

CANONICAL_ORDER_CAP = 10
MAX_ORDER = 64  # the largest order any solver accepts, and the edge-list cap


class EdgeListError(ValueError):
    """Malformed edge-list text; the message names the offending line."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(Record):
    """A finite simple undirected graph.

    ``adjacency[v]`` has bit u set iff uv is an edge.  Rows must be
    symmetric and irreflexive.
    """

    __slots__ = ("order", "adjacency")
    order: int
    adjacency: tuple[int, ...]

    def __init__(self, order: int, adjacency: tuple[int, ...]) -> None:
        adjacency = tuple(adjacency)
        n = order
        if n < 0:
            raise ValueError("graph order must be non-negative")
        if len(adjacency) != n:
            raise ValueError("adjacency must have one row per vertex")
        full = (1 << n) - 1
        for v, row in enumerate(adjacency):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references a vertex >= order")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        # the lowest asymmetric u of the lowest such row v is reported;
        # inlined rather than through bits(), since every graph comes here
        for v, row in enumerate(adjacency):
            bit = 1 << v
            while row:
                low = row & -row
                if not adjacency[low.bit_length() - 1] & bit:
                    raise ValueError(
                        f"asymmetric adjacency between {low.bit_length() - 1} and {v}")
                row ^= low
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adjacency", adjacency)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        out = []
        for u in range(self.order):
            row = self.adjacency[u] >> (u + 1)
            for d in bits(row):
                out.append((u, u + 1 + d))
        return out


def graph_from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge iterable (endpoints in either order)."""
    rows = [0] * order
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows))


def iter_lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split a piece at a time; a piece
    ends at the first "\\n" 4096 characters on, and every "\\n" ends a line."""
    end = 0
    while end < len(text):
        start, end = end, text.find("\n", end + 4096) + 1 or len(text)
        yield from text[start:end].splitlines()


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    Lines starting with '#' are comments.  The first significant line is
    ``n m``; exactly m edge lines ``u v`` follow with 0 <= u,v < n and
    u != v.  Endpoints may appear in either order; duplicates (in any
    order) are rejected, and so is any n above :data:`MAX_ORDER`, at the
    header line.  Errors name the offending 1-based line.
    """
    header: tuple[int, int] | None = None
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(iter_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise EdgeListError(f"line {lineno}: header must be 'n m'")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise EdgeListError(f"line {lineno}: header must be 'n m'") from None
            if n < 0 or m < 0:
                raise EdgeListError(f"line {lineno}: header counts must be non-negative")
            if n > MAX_ORDER:
                raise EdgeListError(
                    f"line {lineno}: edge lists are capped at order {MAX_ORDER}")
            header = (n, m)
            continue
        if len(fields) != 2:
            raise EdgeListError(f"line {lineno}: edge must be 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: edge must be 'u v'") from None
        n = header[0]
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"line {lineno}: vertex index out of range for order {n}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise EdgeListError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    if header is None:
        raise EdgeListError("line 1: missing 'n m' header")
    if len(edges) != header[1]:
        raise EdgeListError(
            f"header announces {header[1]} edges but {len(edges)} were given")
    return graph_from_edges(header[0], edges)


def serialize_edge_list(g: Graph) -> str:
    """Emit the canonical edge-list text: header then lexicographically sorted edges."""
    lines = [f"{g.order} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs order >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs order >= 3")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("complete graph needs order >= 0")
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("empty graph needs order >= 0")
    return Graph(n, (0,) * n)


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with vertex 0 as the centre."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def diamond_graph() -> Graph:
    """K4 minus one edge: vertices 0,1 are the adjacent degree-3 pair."""
    return graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def induced_subgraph(g: Graph, subset: int) -> Graph:
    """Induced subgraph on the bitmask ``subset``, relabelled to 0..k-1 ascending."""
    keep = [v for v in bits(subset)]
    if keep and keep[-1] >= g.order:
        raise ValueError("subset references a vertex >= order")
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for u in bits(g.adjacency[v] & subset):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(keep), tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union with h's vertices shifted up by g.order."""
    n = g.order
    rows = list(g.adjacency) + [row << n for row in h.adjacency]
    return Graph(n + h.order, tuple(rows))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Image of g under the vertex permutation v -> perm[v]."""
    p = list(perm)
    rows = [0] * g.order
    for v in range(g.order):
        row = 0
        for u in bits(g.adjacency[v]):
            row |= 1 << p[u]
        rows[p[v]] = row
    return Graph(g.order, tuple(rows))


def components(g: Graph) -> list[int]:
    """Connected components as vertex bitmasks, ascending by minimum vertex.

    Each component grows from its least vertex one vertex at a time,
    without a generator: every solve asks for the components first.
    """
    adj = g.adjacency
    out = []
    unvisited = (1 << g.order) - 1
    while unvisited:
        comp = frontier = unvisited & -unvisited
        while frontier:
            low = frontier & -frontier
            grow = adj[low.bit_length() - 1] & ~comp
            comp |= grow
            frontier = (frontier ^ low) | grow
        out.append(comp)
        unvisited &= ~comp
    return out


def connected(g: Graph) -> bool:
    """True iff the graph has exactly one component (so never for order 0)."""
    return g.order >= 1 and len(components(g)) == 1


def is_k4_free(g: Graph) -> bool:
    """True iff no four vertices are pairwise adjacent."""
    for u in range(g.order):
        above_u = (g.adjacency[u] >> (u + 1)) << (u + 1)
        for v in bits(above_u):
            common = g.adjacency[u] & g.adjacency[v]
            common = (common >> (v + 1)) << (v + 1)
            for w in bits(common):
                if g.adjacency[w] & ((common >> (w + 1)) << (w + 1)):
                    return False
    return True


def edge_mask(g: Graph, vertices: Sequence[int]) -> int:
    """Pack the edges among ``vertices`` into an int.

    Bit i stands for the i-th pair (vertices[a], vertices[b]), a < b, in
    lexicographic order of (a, b), and is set iff that pair is an edge.
    ``edge_mask(g, range(g.order))`` packs the whole graph; any other
    sequence packs the induced subgraph it lists, relabelled in its order.
    """
    adj = g.adjacency
    k = len(vertices)
    mask = 0
    i = 0
    for a in range(k):
        row = adj[vertices[a]]
        for b in range(a + 1, k):
            if (row >> vertices[b]) & 1:
                mask |= 1 << i
            i += 1
    return mask


def from_edge_mask(n: int, mask: int) -> Graph:
    """Inverse of :func:`edge_mask` over ``range(n)``."""
    pairs = list(itertools.combinations(range(n), 2))
    if mask >> len(pairs):
        raise ValueError("edge mask references a pair >= C(n,2)")
    return graph_from_edges(n, (pairs[i] for i in bits(mask)))


def lower_twins(g: Graph) -> list[int]:
    """For each vertex v, the mask of its twins u < v.

    u and v are twins when N(u) \\ {v} = N(v) \\ {u}, so swapping them is
    an automorphism of g.  Non-adjacent twins share their open row,
    N(u) = N(v), and adjacent twins their closed row, N[u] = N[v].
    """
    lower = []
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, row in enumerate(g.adjacency):
        bit = 1 << v
        same_open = by_open.get(row, 0)
        same_closed = by_closed.get(row | bit, 0)
        lower.append(same_open | same_closed)
        by_open[row] = same_open | bit
        by_closed[row | bit] = same_closed | bit
    return lower


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant byte string for graphs of order <= 10.

    The form is the order byte followed by the lexicographically minimal
    packing of the lower-triangle adjacency bits over all vertex orderings
    that list vertices by non-decreasing degree.  Restricting to
    degree-sorted orderings is sound (that restricted set of encodings is
    itself an isomorphism invariant) and prunes most of the n! search; a
    prefix comparison against the incumbent prunes the rest.

    A vertex is placed only after each of its lower-indexed twins (see
    :func:`lower_twins`).  Swapping two unplaced twins is an automorphism
    that fixes every placed vertex, so it maps the orderings that place
    the higher one next onto orderings that place the lower one next,
    with the same column sequences; so the form stays the same, and
    symmetric graphs such as the edgeless one do not walk every ordering
    of their tied vertices.
    """
    n = g.order
    if n > CANONICAL_ORDER_CAP:
        raise ValueError(f"canonical form is capped at order {CANONICAL_ORDER_CAP}")
    if n == 0:
        return bytes([0])
    adj = g.adjacency
    lower = lower_twins(g)
    deg = [row.bit_count() for row in adj]
    required = sorted(deg)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(deg[v], []).append(v)

    big = 1 << 62  # larger than any k-bit column
    best = [big] * n
    cols = [0] * n
    stack: list[int] = []

    def extend(k: int, used: int) -> None:
        if k == n:
            best[:] = cols  # only reachable while matching best at every level
            return
        cands = []
        for v in by_degree[required[k]]:
            if (used >> v) & 1 or lower[v] & ~used:
                continue
            col = 0
            row = adj[v]
            for j in range(k):
                col |= ((row >> stack[j]) & 1) << j
            cands.append((col, v))
        cands.sort()
        for col, v in cands:
            if col > best[k]:
                break  # candidates are sorted: the rest are no better
            if col < best[k]:
                best[k] = col
                for j in range(k + 1, n):
                    best[j] = big
            cols[k] = col
            stack.append(v)
            extend(k + 1, used | (1 << v))
            stack.pop()

    extend(0, 0)
    enc = 0
    for k in range(n):
        enc = (enc << k) | best[k]
    nbits = n * (n - 1) // 2
    return bytes([n]) + enc.to_bytes((nbits + 7) // 8, "big")
