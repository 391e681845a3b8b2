"""The benchmark's own small-graph code, independent of rainbowroman.

Graphs are lists of adjacency rows: bit u of rows[v] is set when uv is
an edge.  Nothing here imports the package under test, so the checks
built on it stay valid when the package changes.
"""

from __future__ import annotations

import itertools
import random


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rows_from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def edges_of(rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(rows)) for v in bits(rows[u] >> (u + 1) << (u + 1))]


def edge_list_text(rows: list[int]) -> str:
    edges = edges_of(rows)
    return f"{len(rows)} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def parse_edge_list(text: str) -> list[int]:
    """Rows of an 'n m' edge list; raises ValueError on any malformation."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = (int(x) for x in lines[0])
    if len(lines) != m + 1:
        raise ValueError("edge count differs from header")
    edges = [(int(a), int(b)) for a, b in lines[1:]]
    if any(not (0 <= u < n and 0 <= v < n) or u == v for u, v in edges):
        raise ValueError("bad edge")
    rows = rows_from_edges(n, edges)
    if sum(r.bit_count() for r in rows) != 2 * m:
        raise ValueError("duplicate edge")
    return rows


def relabel(rows: list[int], rng: random.Random) -> list[int]:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return rows_from_edges(len(rows), ((perm[u], perm[v]) for u, v in edges_of(rows)))


def gnp_half(n: int, rng: random.Random) -> list[int]:
    """G(n, 1/2): every pair, in lexicographic order, an independent fair coin."""
    return rows_from_edges(n, ((u, v) for u, v in itertools.combinations(range(n), 2)
                               if rng.random() < 0.5))


def cycle(n: int) -> list[int]:
    return rows_from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def disjoint_c4s(t: int) -> list[int]:
    return rows_from_edges(4 * t, ((4 * i + j, 4 * i + (j + 1) % 4)
                                   for i in range(t) for j in range(4)))


def gap_graph(k: int) -> list[int]:
    """K1 plus k disjoint C4 units, joined by a star with k + 3 leaves.

    Leaf i touches the first vertex of component i and two leaves stay
    pendant.  Each C4 adds (2, 3) to (gamma_r2, gamma_R) and the star
    link adds (2, 2), so the values are (2k + 3, 3k + 3): gap k.
    """
    n = 1 + 4 * k
    edges = [(1 + 4 * i + j, 1 + 4 * i + (j + 1) % 4) for i in range(k) for j in range(4)]
    centre = n
    leaves = [centre + 1 + i for i in range(k + 3)]
    edges += [(centre, leaf) for leaf in leaves]
    anchors = [0] + [1 + 4 * i for i in range(k)]
    edges += list(zip(anchors, leaves))
    return rows_from_edges(n + k + 4, edges)


def threshold_graph(n: int, rng: random.Random) -> list[int]:
    """Each new vertex joins as isolated or dominating: {P4, C4, 2K2}-free."""
    edges = []
    for v in range(1, n):
        if rng.random() < 0.5:
            edges += [(u, v) for u in range(v)]
    return rows_from_edges(n, edges)


def multipartite_pairs(n: int, rng: random.Random) -> list[int]:
    """Complete multipartite with parts of size 1 or 2: {3K1, K2+K1}-free."""
    parts, v = [], 0
    while v < n:
        size = 2 if v + 1 < n and rng.random() < 0.5 else 1
        parts.append(range(v, v + size))
        v += size
    return rows_from_edges(n, ((a, b) for i, p in enumerate(parts)
                               for q in parts[i + 1:] for a in p for b in q))


def connected(rows: list[int]) -> bool:
    if not rows:
        return True
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << len(rows)) - 1


def k4_free(rows: list[int]) -> bool:
    for a, b in edges_of(rows):
        common = rows[a] & rows[b]
        if any(rows[c] & common for c in bits(common)):
            return False
    return True


def _joint_colours(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Colour refinement run on both graphs with one shared palette."""
    ca = [r.bit_count() for r in a]
    cb = [r.bit_count() for r in b]
    while True:
        sa = [(ca[v], tuple(sorted(ca[u] for u in bits(a[v])))) for v in range(len(a))]
        sb = [(cb[v], tuple(sorted(cb[u] for u in bits(b[v])))) for v in range(len(b))]
        palette = {s: i for i, s in enumerate(sorted(set(sa) | set(sb)))}
        na, nb = [palette[s] for s in sa], [palette[s] for s in sb]
        if len(palette) == len(set(ca) | set(cb)):
            return na, nb
        ca, cb = na, nb


def isomorphic(a: list[int], b: list[int]) -> bool:
    """Exact isomorphism test: refined colours, then backtracking in BFS order."""
    n = len(a)
    if n != len(b):
        return False
    ca, cb = _joint_colours(a, b)
    if sorted(ca) != sorted(cb):
        return False
    order, placed = [], 0
    for root in sorted(range(n), key=lambda v: (ca.count(ca[v]), v)):
        if placed >> root & 1:
            continue
        queue, placed = [root], placed | 1 << root
        for v in queue:
            order.append(v)
            for u in bits(a[v] & ~placed):
                placed |= 1 << u
                queue.append(u)
    image = [-1] * n

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or cb[w] != ca[v]:
                continue
            if all((a[v] >> u & 1) == (b[w] >> image[u] & 1) for u in order[:i]):
                image[v] = w
                if extend(i + 1, used | 1 << w):
                    return True
        return False

    return extend(0, 0)


RAINBOW_TOKENS = {".": 0, "1": 1, "2": 2, "12": 3}


def rainbow_weight_if_valid(rows: list[int], text: str) -> int | None:
    """Weight of a rainbow assignment string, or None if it is not 2-rainbow dominating."""
    codes = [RAINBOW_TOKENS[tok] for tok in text.split(",")]
    if len(codes) != len(rows):
        return None
    for v, code in enumerate(codes):
        if code == 0:
            seen = 0
            for u in bits(rows[v]):
                seen |= codes[u]
            if seen != 3:
                return None
    return sum(c.bit_count() for c in codes)


def roman_weight_if_valid(rows: list[int], text: str) -> int | None:
    """Weight of a Roman assignment string, or None if it is not Roman dominating."""
    values = [int(tok) for tok in text.split(",")]
    if len(values) != len(rows) or any(x not in (0, 1, 2) for x in values):
        return None
    twos = sum(1 << v for v, x in enumerate(values) if x == 2)
    if any(x == 0 and not rows[v] & twos for v, x in enumerate(values)):
        return None
    return sum(values)


def satisfiable(num_vars: int, clauses) -> bool:
    return any(all(any((m >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause)
                   for clause in clauses)
               for m in range(1 << num_vars))


def random_3cnf(num_vars: int, num_clauses: int, rng: random.Random) -> list[tuple[int, ...]]:
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, num_vars + 1), 3))
            for _ in range(num_clauses)]


def dimacs_text(num_vars: int, clauses) -> str:
    return f"p cnf {num_vars} {len(clauses)}\n" + "".join(
        " ".join(map(str, clause)) + " 0\n" for clause in clauses)


def _induced_shape(rows: list[int], subset: tuple[int, ...]) -> tuple[list[int], int]:
    mask = sum(1 << v for v in subset)
    degrees = sorted((rows[v] & mask).bit_count() for v in subset)
    return degrees, mask


def _induced_connected(rows: list[int], mask: int) -> bool:
    start = mask & -mask
    seen, frontier = start, start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v] & mask
        frontier = nxt & ~seen
        seen |= nxt
    return seen == mask


def _has(rows: list[int], size: int, accept) -> bool:
    return any(accept(*_induced_shape(rows, s))
               for s in itertools.combinations(range(len(rows)), size))


def first_forbidden(rows: list[int], family: str) -> str | None:
    """First pattern of the family, in the package's family order, found induced."""
    if family == "theorem2":
        tests = (
            ("P5", 5, lambda d, m: d == [1, 1, 2, 2, 2] and _induced_connected(rows, m)),
            ("C5", 5, lambda d, m: d == [2, 2, 2, 2, 2]),
            ("C4", 4, lambda d, m: d == [2, 2, 2, 2]),
        )
    else:
        tests = (
            ("K3bar", 3, lambda d, m: d == [0, 0, 0]),
            ("K2+K1", 3, lambda d, m: d == [0, 1, 1]),
        )
    for name, size, accept in tests:
        if _has(rows, size, accept):
            return name
    return None
