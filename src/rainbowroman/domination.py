"""Exact solvers for 2-rainbow and Roman domination.

A 2-rainbow dominating function assigns each vertex a subset of {1, 2}
such that every vertex with the empty set sees both colors across its
neighbourhood; its weight is the total number of assigned colors.  A
Roman dominating function assigns 0, 1, or 2 such that every 0-vertex
has a 2-neighbour; its weight is the sum.  Both solvers return the
optimum with a deterministic witness: the first optimal assignment in
the solver's fixed branch order.  The 2-rainbow minimizer and the
enumeration of every minimum 2-rainbow function run on one depth-first
search, :func:`_search`, and differ only in what they do with each
complete assignment.

Rainbow codes are packed as ints: 0 = {}, 1 = {1}, 2 = {2}, 3 = {1, 2}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .graph import MAX_ORDER, Graph, bits

SOLVER_ORDER_CAP = MAX_ORDER
ALL_MIN_ORDER_CAP = 16


class VerificationError(RuntimeError):
    """An identity that always holds failed on a computed instance."""

_CODE_WEIGHT = (0, 1, 1, 2)
_RAINBOW_TOKENS = {".": 0, "1": 1, "2": 2, "12": 3}
_RAINBOW_NAMES = (".", "1", "2", "12")


@dataclass(frozen=True)
class RainbowAssignment:
    """Per-vertex color-set codes in vertex order (0, 1, 2, or 3)."""

    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c not in (0, 1, 2, 3) for c in self.codes):
            raise ValueError("rainbow codes must be 0, 1, 2, or 3")

    @property
    def order(self) -> int:
        return len(self.codes)

    def weight(self) -> int:
        return sum(_CODE_WEIGHT[c] for c in self.codes)


@dataclass(frozen=True)
class RomanAssignment:
    """Per-vertex values 0, 1, or 2 in vertex order."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(x not in (0, 1, 2) for x in self.values):
            raise ValueError("Roman values must be 0, 1, or 2")

    @property
    def order(self) -> int:
        return len(self.values)

    def weight(self) -> int:
        return sum(self.values)


@dataclass(frozen=True)
class SolveResult:
    """Optimum value, the deterministic witness, and nodes explored."""

    value: int
    witness: RainbowAssignment | RomanAssignment
    nodes: int


def parse_rainbow(text: str) -> RainbowAssignment:
    """Parse comma-separated rainbow tokens: '.', '1', '2', '12'."""
    codes = []
    for tok in text.strip().split(","):
        tok = tok.strip()
        if tok not in _RAINBOW_TOKENS:
            raise ValueError(f"bad rainbow token {tok!r}")
        codes.append(_RAINBOW_TOKENS[tok])
    return RainbowAssignment(tuple(codes))


def format_rainbow(f: RainbowAssignment) -> str:
    return ",".join(_RAINBOW_NAMES[c] for c in f.codes)


def parse_roman(text: str) -> RomanAssignment:
    """Parse comma-separated Roman tokens: '0', '1', '2'."""
    values = []
    for tok in text.strip().split(","):
        tok = tok.strip()
        if tok not in ("0", "1", "2"):
            raise ValueError(f"bad Roman token {tok!r}")
        values.append(int(tok))
    return RomanAssignment(tuple(values))


def format_roman(g: RomanAssignment) -> str:
    return ",".join(str(x) for x in g.values)


def _check_order(g: Graph, f: RainbowAssignment | RomanAssignment) -> None:
    if f.order != g.order:
        raise ValueError("assignment length differs from graph order")


def is_2rainbow_dominating(g: Graph, f: RainbowAssignment) -> bool:
    """True iff every empty vertex sees both colors across its neighbours."""
    _check_order(g, f)
    codes = f.codes
    for v in range(g.order):
        if codes[v] == 0:
            union = 0
            for u in bits(g.adjacency[v]):
                union |= codes[u]
            if union != 3:
                return False
    return True


def is_roman_dominating(g: Graph, f: RomanAssignment) -> bool:
    """True iff every 0-vertex has a neighbour with value 2."""
    _check_order(g, f)
    values = f.values
    for v in range(g.order):
        if values[v] == 0:
            if not any(values[u] == 2 for u in bits(g.adjacency[v])):
                return False
    return True


def _prism_bound(n: int, adj: tuple[int, ...], scan: list[int], seen: list[int],
                 empties: int, undecided: int) -> int | None:
    """Admissible lower bound on the weight still to be added.

    Work in the prism G x K2, where placing color c on vertex x is one
    weight unit dominating prism vertex (x, c).  Prism vertices not yet
    dominated are greedily packed subject to pairwise-disjoint supplier
    sets, scanning vertices by ascending degree; each packed demand then
    needs its own future unit.  An already-empty vertex missing a color
    with no undecided neighbour left is hopeless: returns None.
    Undecided vertices participate through their rung: whatever nonempty
    code they take dominates both of their prism copies.
    """
    used = 0
    count = 0
    for v in scan:
        vbit = 1 << v
        if undecided & vbit:
            sup_base = (vbit | (1 << (n + v)))
            nbrs = adj[v] & undecided
            for c in (1, 2):
                if seen[v] & c:
                    continue
                sup = sup_base | (nbrs if c == 1 else nbrs << n)
                if sup & used == 0:
                    used |= sup
                    count += 1
        elif empties & vbit:
            nbrs = adj[v] & undecided
            for c in (1, 2):
                if seen[v] & c:
                    continue
                sup = nbrs if c == 1 else nbrs << n
                if sup == 0:
                    return None
                if sup & used == 0:
                    used |= sup
                    count += 1
    return count


def _greedy_cover_bound(g: Graph) -> int:
    """Weight of a quick valid function: min(all-ones, 2 * greedy dominating set)."""
    n = g.order
    closed = [g.adjacency[v] | (1 << v) for v in range(n)]
    uncovered = (1 << n) - 1
    picks = 0
    while uncovered:
        best_v = min(range(n), key=lambda v: (-(closed[v] & uncovered).bit_count(), v))
        uncovered &= ~closed[best_v]
        picks += 1
    return min(n, 2 * picks)


def _search(g: Graph, limit: int, leaf: Callable[[list[int], int], int]) -> int:
    """The rainbow depth-first branch and bound; returns the nodes explored.

    Vertices are decided in descending-degree order (ties by index) and
    codes tried as {1,2}, {1}, {2}, {} so covering assignments surface
    early.  A branch is cut when its weight, or its weight plus the
    admissible demand bound of :func:`_prism_bound`, exceeds ``limit``,
    or when an already-empty vertex can no longer see a missing color.
    Every complete assignment reached is a 2-rainbow dominating function
    of weight at most ``limit``; it goes to ``leaf(codes, weight)``,
    which returns the limit for the rest of the search.  ``codes`` is the
    live list, so a leaf that keeps it must copy it.
    """
    n = g.order
    adj = g.adjacency
    deg = [row.bit_count() for row in adj]
    branch = sorted(range(n), key=lambda v: (-deg[v], v))
    scan = sorted(range(n), key=lambda v: (deg[v], v))
    codes = [-1] * n
    seen = [0] * n  # color bits shown to v by decided neighbours
    empties = 0  # bitmask of decided-empty vertices
    nodes = 0

    def descend(depth: int, weight: int, undecided: int) -> None:
        nonlocal limit, nodes, empties
        if depth == n:
            limit = leaf(codes, weight)
            return
        v = branch[depth]
        remaining = undecided & ~(1 << v)
        for code in (3, 1, 2, 0):
            w = weight + _CODE_WEIGHT[code]
            if w > limit:
                continue
            if code == 0 and 3 & ~seen[v] and adj[v] & remaining == 0:
                continue  # v could never see its missing colors
            # a neighbour losing its last undecided supplier while still
            # missing a color kills the branch before any state changes
            blocked = False
            for u in bits(adj[v] & empties):
                if (seen[u] | code) != 3 and adj[u] & remaining == 0:
                    blocked = True
                    break
            if blocked:
                continue
            nodes += 1
            codes[v] = code
            saved: list[tuple[int, int]] = []
            if code == 0:
                empties |= 1 << v
            else:
                for u in bits(adj[v]):
                    old = seen[u]
                    if old | code != old:
                        seen[u] = old | code
                        saved.append((u, old))
            bound = _prism_bound(n, adj, scan, seen, empties, remaining)
            if bound is not None and w + bound <= limit:
                descend(depth + 1, w, remaining)
            codes[v] = -1
            if code == 0:
                empties &= ~(1 << v)
            else:
                for u, old in saved:
                    seen[u] = old

    descend(0, 0, (1 << n) - 1)
    return nodes


def gamma_r2(g: Graph) -> SolveResult:
    """Minimum 2-rainbow domination weight by branch and bound.

    Runs :func:`_search` from the weight of a greedy valid function; each
    assignment found becomes the incumbent and lowers the limit to one
    below its weight, so the last one found is the first optimum in the
    search's branch order.
    """
    if g.order > SOLVER_ORDER_CAP:
        raise ValueError(f"solver is capped at order {SOLVER_ORDER_CAP}")
    best: list[int] = []

    def record(codes: list[int], weight: int) -> int:
        best[:] = codes
        return weight - 1

    nodes = _search(g, _greedy_cover_bound(g), record)
    witness = RainbowAssignment(tuple(best))
    return SolveResult(witness.weight(), witness, nodes)


def gamma_roman(g: Graph) -> SolveResult:
    """Minimum Roman domination weight by enumerating the 2-valued set.

    Fixing the set V2 of 2-vertices forces the optimal completion: 0 on
    dominated outsiders, 1 on the rest, for cost 2|V2| + |V \\ N[V2]|.
    Subsets are tried by increasing cardinality (lexicographically within
    one cardinality); enumeration stops once 2|V2| can no longer beat the
    incumbent.  The witness is the first optimal subset encountered.
    """
    n = g.order
    if n > SOLVER_ORDER_CAP:
        raise ValueError(f"solver is capped at order {SOLVER_ORDER_CAP}")
    if n == 0:
        return SolveResult(0, RomanAssignment(()), 0)
    closed = [g.adjacency[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    ub = _greedy_cover_bound(g)
    best: tuple[int, tuple[int, ...]] | None = None
    nodes = 0
    for k in range(n + 1):
        if best is not None and 2 * k >= best[0]:
            break
        if best is None and 2 * k > ub:
            break
        for combo in itertools.combinations(range(n), k):
            nodes += 1
            covered = 0
            for v in combo:
                covered |= closed[v]
            cost = 2 * k + (full & ~covered).bit_count()
            if best is None or cost < best[0]:
                values = [1] * n
                for v in bits(covered):
                    values[v] = 0
                for v in combo:
                    values[v] = 2
                best = (cost, tuple(values))
    assert best is not None
    return SolveResult(best[0], RomanAssignment(best[1]), nodes)


def all_min_2rdf(g: Graph, cap: int = ALL_MIN_ORDER_CAP) -> list[RainbowAssignment]:
    """Every minimum-weight 2-rainbow dominating function.

    Complete and duplicate-free, in lexicographic order of the code
    vector under 0 < 1 < 2 < 3.  :func:`_search` runs with the optimum
    from :func:`gamma_r2` as a fixed weight limit, so every assignment it
    reaches is optimal; they are sorted afterwards.
    """
    if g.order > cap:
        raise ValueError(f"minimum-function enumeration is capped at order {cap}")
    target = gamma_r2(g).value
    found: list[tuple[int, ...]] = []

    def collect(codes: list[int], weight: int) -> int:
        found.append(tuple(codes))
        return target

    _search(g, target, collect)
    return [RainbowAssignment(codes) for codes in sorted(found)]
