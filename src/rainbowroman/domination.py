"""Exact solvers for 2-rainbow and Roman domination.

A 2-rainbow dominating function assigns each vertex a subset of {1, 2}
such that every vertex with the empty set sees both colors across its
neighbourhood; its weight is the total number of assigned colors.  A
Roman dominating function assigns 0, 1, or 2 such that every 0-vertex
has a 2-neighbour; its weight is the sum.

Every Roman function is a 2-rainbow function over a smaller alphabet:
the Roman 2 is {1, 2}, the Roman 1 is a weight-1 label that satisfies
only its own vertex, and the Roman 0 is the empty set.  So one
depth-first branch and bound, :func:`_search`, runs over a label table
of ``(code, weight, shows)`` triples: the rainbow table for
:func:`gamma_r2` and :func:`all_min_2rdf`, the Roman table for
:func:`gamma_roman`.  The two minimizers share one loop, which
deepens the search's weight limit from its root lower bound until the
first complete assignment appears; that assignment is the optimum's
deterministic witness, the first optimal assignment in the kernel's
fixed branch order.  Every graph is solved one connected component at
a time, with the same witness: each component that holds an edge is
searched on its own, and each isolated vertex takes the lightest label
without a search.  The enumeration of every minimum 2-rainbow
function runs the same search at the optimum and differs only in what
it does with each complete assignment.

Rainbow codes are packed as ints: 0 = {}, 1 = {1}, 2 = {2}, 3 = {1, 2}.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .graph import MAX_ORDER, Graph, bits, components, induced_subgraph
from .record import Record

SOLVER_ORDER_CAP = MAX_ORDER
ALL_MIN_ORDER_CAP = 16


class VerificationError(RuntimeError):
    """An identity that always holds failed on a computed instance."""

_CODE_WEIGHT = (0, 1, 1, 2)
_SWAPPED = (0, 2, 1, 3)  # each code with colors 1 and 2 exchanged
# (code, weight, shows) in branch order; code 0, last, must be dominated
_RAINBOW_LABELS = ((3, 2, 3), (1, 1, 1), (2, 1, 2), (0, 0, 0))
_ROMAN_LABELS = ((2, 2, 3), (1, 1, 0), (0, 0, 0))
_RAINBOW_TOKENS = {".": 0, "1": 1, "2": 2, "12": 3}
_RAINBOW_NAMES = (".", "1", "2", "12")


class RainbowAssignment(Record):
    """Per-vertex color-set codes in vertex order (0, 1, 2, or 3)."""

    __slots__ = ("codes",)
    codes: tuple[int, ...]

    def __init__(self, codes: tuple[int, ...]) -> None:
        codes = tuple(codes)
        if any(c not in (0, 1, 2, 3) for c in codes):
            raise ValueError("rainbow codes must be 0, 1, 2, or 3")
        object.__setattr__(self, "codes", codes)

    @property
    def order(self) -> int:
        return len(self.codes)

    def weight(self) -> int:
        return sum(_CODE_WEIGHT[c] for c in self.codes)


class RomanAssignment(Record):
    """Per-vertex values 0, 1, or 2 in vertex order."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: tuple[int, ...]) -> None:
        values = tuple(values)
        if any(x not in (0, 1, 2) for x in values):
            raise ValueError("Roman values must be 0, 1, or 2")
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return len(self.values)

    def weight(self) -> int:
        return sum(self.values)


class SolveResult(NamedTuple):
    """Optimum value, the deterministic witness, and nodes explored."""

    value: int
    witness: RainbowAssignment | RomanAssignment
    nodes: int


def parse_rainbow(text: str) -> RainbowAssignment:
    """Parse comma-separated rainbow tokens: '.', '1', '2', '12' (blank at order 0)."""
    codes = []
    for tok in text.split(",") if text.strip() else ():
        tok = tok.strip()
        if tok not in _RAINBOW_TOKENS:
            raise ValueError(f"bad rainbow token {tok!r}")
        codes.append(_RAINBOW_TOKENS[tok])
    return RainbowAssignment(tuple(codes))


def format_rainbow(f: RainbowAssignment) -> str:
    return ",".join(_RAINBOW_NAMES[c] for c in f.codes)


def parse_roman(text: str) -> RomanAssignment:
    """Parse comma-separated Roman tokens: '0', '1', '2' (blank at order 0)."""
    values = []
    for tok in text.split(",") if text.strip() else ():
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


def _prism_bound(n: int, scan: list[tuple[int, int, int, int]], demand: int,
                 undecided: int, budget: int) -> int:
    """Admissible lower bound on the weight still to be added.

    Work in the prism G x K2, where placing color c on vertex x is one
    weight unit dominating prism vertex (x, c).  The unmet demands (bit
    v for (v, 1), bit n + v for (v, 2)) are greedily packed subject to
    pairwise-disjoint supplier sets, scanning vertices by ascending
    degree; each packed demand then needs its own future unit.  An
    already-empty vertex missing a color with no undecided neighbour left
    is hopeless: returns ``budget + 1``.  Undecided vertices participate
    through their rung: whatever nonempty label they take meets both of
    their own demands.  The count holds for the Roman table too: a Roman
    2 is the two units {1, 2} and a Roman 1 is one rung unit.  ``scan``
    holds ``(bit v, bit n + v, rung, adjacency row)`` per vertex.

    ``budget`` is the weight the branch may still add; of the search's
    bounds only this one stops at it.  The count only grows, so once it
    exceeds the budget the branch is cut whatever the rest of the scan
    finds, a hopeless vertex included; the count so far is returned then.
    Whenever the full count is at most the budget, it is returned
    unchanged; every other result exceeds the budget.
    """
    used = 0
    count = 0
    for one, two, rung, row in scan:
        if demand & rung == 0:
            continue
        nbrs = row & undecided
        if undecided & one == 0:
            rung = 0  # an empty vertex is met only by its neighbours
        if demand & one:
            sup = rung | nbrs
            if sup == 0:
                return budget + 1
            if sup & used == 0:
                used |= sup
                count += 1
        if demand & two:
            sup = rung | nbrs << n
            if sup == 0:
                return budget + 1
            if sup & used == 0:
                used |= sup
                count += 1
        if count > budget:
            return count
    return count


_Ranking = list[tuple[float, int, int]]
_Offers = list[tuple[int, int, int]]


def _rank(offers: _Offers, demand: int, start: int = 0) -> _Ranking:
    """The offers ``offers[start:]`` that meet some of ``demand``, as
    ``(ratio, met, j)`` in ascending order: ``met`` the demand bits the
    offer meets, ``ratio`` its weight / |met| and ``j`` the offer's own
    index.  :func:`_sweep` reads the result."""
    ranked = [(weight / met.bit_count(), met, j)
              for weight, reach, j in offers[start:] if (met := demand & reach)]
    ranked.sort()
    return ranked


def _sweep(ranked: _Ranking, demand: int, start: int = 0) -> float:
    """Admissible set-cover lower bound on the weight still to be added.

    ``ranked`` is a ranking of :func:`_rank` made for this same
    ``demand``; only its entries of index at least ``start`` count.  The
    offers are ``(weight, reach, j)`` triples, one per nonempty label and
    undecided vertex x: the label's weight and the demand bits it would
    meet if placed on x, x's own two plus the colors it shows to x's
    neighbours.  Each unmet demand is charged the least ``weight /
    |unmet demands the label would meet|`` over the offers that meet it,
    found by sweeping the offers in ascending ratio.  Any completion
    covers every demand, and a label it places pays exactly the charges
    of the demands it meets at its own ratio, which is at least their
    least ratio; so the sum of charges is at most the weight still to
    come, and since weights are integers so is its ceiling.  The sum is
    taken in floats: it has at most 2n <= 128 terms and is at most 4n <=
    256, since no charge exceeds 2, so its rounding error stays below
    1e-11; subtracting 1e-9 before the ceiling can then only lower the
    bound.

    The sweep takes no budget: it runs until every demand is met and
    returns the full bound, or ``math.inf`` when some demand has no
    supplier.
    """
    total = 0.0
    for ratio, met, j in ranked:
        if j < start:
            continue
        met &= demand
        if met:
            total += ratio * met.bit_count()
            demand &= ~met
            if demand == 0:
                break
    return math.inf if demand else math.ceil(total - 1e-9)


def _finisher(n: int, offers: _Offers, pivots: list[int]
              ) -> Callable[[int, int, int], bool]:
    """The exact test that ends a branch with at most 2 units of weight left.

    Returns ``completes(demand, start, budget)``: whether labels of total
    weight at most ``budget`` <= 2, placed on distinct vertices whose
    offers lie in ``offers[start:]``, meet all of ``demand``, which is
    not 0.  ``offers`` is the search's flat offer table, k ``(weight,
    reach, j)`` triples per vertex in branch order (see :func:`_search`
    and :func:`_sweep`), and ``pivots`` holds each vertex's two demand
    bits, least degree first.  Every child with at most 2 units left
    takes this test in place of both bounds.

    Some placed label meets the unmet demand of least degree, so the
    test walks that demand's suppliers: an offer that meets all of the
    demand, or a weight-1 offer whose rest one more weight-1 offer meets.
    Two weight-1 labels on one vertex meet no more than the weight-2
    label there, so the second offer may share the first's vertex.  A
    label never shows more colors than its weight, so a weight-1 offer
    meets at most one demand of a color it does not show, its own
    vertex's; a rest with two demands of each color is skipped.  Each
    demand's suppliers, the table's own entries that meet it in ascending
    index ``j``, are listed on first use and walked from the end down to
    ``start``.
    """
    everyone = (1 << n) - 1
    suppliers: dict[int, _Offers] = {}

    def completes(demand: int, start: int, budget: int) -> bool:
        if budget <= 0:
            return False
        for mask in pivots:
            if demand & mask:
                break
        pivot = demand & mask
        pivot &= -pivot
        supply = suppliers.get(pivot)
        if supply is None:
            supply = suppliers[pivot] = [offer for offer in offers if offer[1] & pivot]
        for weight, reach, j in reversed(supply):
            if j < start:
                break
            if weight > budget:
                continue
            rest = demand & ~reach
            if not rest:
                return True
            if weight < budget:
                ones, twos = rest & everyone, rest >> n
                if (ones & (ones - 1) == 0 or twos & (twos - 1) == 0) \
                        and completes(rest, start, budget - weight):
                    return True
        return False

    return completes


_Leaf = Callable[[list[int], int], int]


def _search(g: Graph, labels: tuple[tuple[int, int, int], ...]
            ) -> tuple[int, Callable[[int, _Leaf], int]]:
    """Set up the depth-first branch and bound for one graph and table.

    Returns ``(root, run)``.  ``root`` is the larger of the two bounds
    below with nothing decided, an admissible lower bound on the optimum.
    ``run(limit, leaf)`` runs the search and returns the nodes explored;
    it may be called any number of times, at any limits, on the one
    set-up.

    ``labels`` holds ``(code, weight, shows)`` triples in branch order,
    ``shows`` being the color bits a label shows to its neighbours; code
    0 is the one label that must be dominated, by both colors.  Vertices
    are decided in descending-degree order (ties by index).  A branch is
    cut when its weight exceeds ``limit``, or when a bound exceeds its
    budget, ``limit`` less the branch's weight, as each does where an
    empty vertex can no longer be dominated; with at most 2 units of
    weight left, exactly when no completion exists.  Every complete
    assignment reached is a dominating function of weight at most
    ``limit``; it goes to ``leaf(codes, weight)``, which returns the
    limit for the rest of the search, -1 to stop it.  ``codes`` is the
    live list, so a leaf that keeps it must copy it.

    The offer table is built once, flat and in branch order, and it is
    the search's one description of what a label does: k ``(weight,
    reach, j)`` triples per vertex, one per nonempty label (k = 3 for the
    rainbow table, 2 for the Roman one), ``j`` the entry's own index.
    The empty label is the last of both tables, so label i placed on
    ``branch[d]`` is offer ``d * k + i``.  The vertices still undecided
    below depth d are exactly ``branch[d + 1:]``.

    Every child with budget at least 3 takes one cut sequence: first
    :func:`_prism_bound`, then, for a child that places a label, a
    ranking of the suffix ``offers[(d + 1) * k:]`` by :func:`_rank`,
    then the ratio bound :func:`_sweep`; the root ranks the whole table.
    A child is cut when either bound exceeds its budget, so their order
    changes no node.  Only the packing count stops once its running total
    exceeds the budget, where its full value would cut the branch too;
    the root passes it 4n, which it never exceeds.  The sweep always runs
    to its end.  A ranking is sorted on ``(ratio, met, j)``; of the
    entries that tie on ``(ratio, met)`` only the first meets any demand
    in the sweep, so every ratio bound, float total included, is what a
    walk over the undecided vertices in index order gives.  So every pass
    visits the same nodes in the same order and reaches the same first
    leaf.

    Each node carries its unmet demand, every demand at the root.  A
    child that places label i on v = ``branch[d]`` drops the reach of
    ``offers[d * k + i]``, v's rung and the colors the label shows to v's
    neighbours.  A child that leaves v empty keeps its parent's demand
    exactly: v moves from undecided to empty, and the empty label shows
    nothing.  So it ranks nothing: it sweeps the ranking its parent was
    given, skipping the entries of index below (d + 1) * k, v's own k
    offers and those of the vertices decided above it, and a chain of
    empty children shares one list; at most one ranking per depth is
    kept.  The bound is bit-identical to a fresh one.  With the same
    demand each entry kept is the ``(ratio, met, j)`` that a fresh
    ranking of the suffix would build, and a sorted list with entries
    left out is still sorted, so the sweep reads the fresh ranking entry
    for entry.

    A child whose budget ``limit - w`` is at most 2 takes neither bound.
    It asks the exact test of :func:`_finisher` whether labels of total
    weight at most the budget, on distinct undecided vertices, meet its
    unmet demand, and is cut exactly when they cannot.  The test rests on
    one rule: a label shows no more colors than it weighs, so a weight-1
    label meets at most one demand of a color it does not show, its own
    vertex's.  A child it cuts holds no leaf, so every leaf, and the
    order the leaves are reached in, stays as it was: the same first
    leaf and the same minimum-function walk.  A child it keeps has a
    completion within its budget, so the admissible bounds would keep it
    too: the finish never adds a node.  The limit never rises within a
    run, so no descendant of such a child has more budget: once the
    budget is below 3 no ranking is made or swept, and the parent's is
    handed down unread.

    Swapping colors 1 and 2 maps a 2-rainbow dominating function to one
    of the same weight, so the search reaches one function of each such
    pair: a label showing color 2 alone waits until a label showing
    color 1 alone sits on an earlier vertex; until then the label loop
    skips it before it counts as a node.  The reached functions are those
    with no singleton or with {1} as the first singleton in branch order.
    This keeps the first optimum in branch order: if its first
    singleton were {2}, its swap would agree with it before that vertex,
    carry {1} there, which is tried before {2}, and so come earlier.  The
    Roman table has no label showing one color alone, so the rule never
    applies to it.
    """
    n = g.order
    adj = g.adjacency
    deg = [row.bit_count() for row in adj]
    branch = sorted(range(n), key=lambda v: (-deg[v], v))
    rungs = [(1 << v) | (1 << (n + v)) for v in range(n)]
    scan = [(1 << v, 1 << (n + v), rungs[v], adj[v])
            for v in sorted(range(n), key=lambda v: (deg[v], v))]
    # shown_to[v][s]: the demand bits met at v's neighbours by colors s
    shown_to = [(0, row, row << n, row | row << n) for row in adj]
    k = len(labels) - 1
    offers = [(weight, rungs[v] | shown_to[v][shows], d * k + i)
              for d, v in enumerate(branch)
              for i, (_, weight, shows) in enumerate(labels[:k])]
    everyone = (1 << n) - 1
    every_demand = everyone | everyone << n
    # with every vertex undecided each demand has its own rung as supplier,
    # so neither bound finds a demand without one, and none exceeds 4n
    ranked = _rank(offers, every_demand)
    root = max(_prism_bound(n, scan, every_demand, everyone, 4 * n),
               _sweep(ranked, every_demand))
    completes = _finisher(n, offers, [rung for _, _, rung, _ in scan])
    codes = [0] * n

    def run(limit: int, leaf: _Leaf) -> int:
        nodes = 0

        def descend(depth: int, weight: int, undecided: int, demand: int,
                    opened: bool, ranked: _Ranking) -> None:
            nonlocal limit, nodes
            if depth == n:
                limit = leaf(codes, weight)
                return
            v = branch[depth]
            remaining = undecided & ~(1 << v)
            start = (depth + 1) * k
            for j, (code, cost, shows) in enumerate(labels, depth * k):
                w = weight + cost
                if w > limit or shows == 2 and not opened:
                    continue
                nodes += 1
                codes[v] = code
                # the empty child keeps its parent's demand and ranking
                unmet = demand & ~offers[j][1] if code else demand
                ranking = ranked
                budget = limit - w
                if unmet and budget < 3:
                    if not completes(unmet, start, budget):
                        continue
                elif unmet:
                    if _prism_bound(n, scan, unmet, remaining, budget) > budget:
                        continue
                    if code:
                        ranking = _rank(offers, unmet, start)
                    if _sweep(ranking, unmet, start) > budget:
                        continue
                descend(depth + 1, w, remaining, unmet, opened or shows == 1,
                        ranking)

        descend(0, 0, everyone, every_demand, False, ranked)
        return nodes

    return root, run


def _minimise(g: Graph, labels: tuple[tuple[int, int, int], ...],
              witness: type[RainbowAssignment] | type[RomanAssignment]) -> SolveResult:
    """The optimum and its witness, the first optimum in branch order.

    Both parameters add up over connected components: a function is
    dominating exactly when its restriction to each component is, so the
    optima are the combinations of each component's optima.  So every
    graph is solved one component at a time.  Each isolated vertex takes
    code 1, the rainbow {1} or the Roman 1, the lightest label it can
    take and the first of them in branch order, without a search.  Each
    component that holds an edge is searched on its own, on its
    :func:`induced_subgraph`, or on ``g`` itself when it spans every
    vertex, and its codes are put back at its vertices.  The value is the
    sum, and ``nodes`` sums the component searches.

    A component's search is iterative deepening (Korf, "Depth-first
    iterative-deepening: an optimal admissible tree search", Artificial
    Intelligence 27, 1985): :func:`_search` runs at limits root, root +
    1, ... from its root bound.  Below the optimum no leaf exists.  At the
    optimum the admissible bounds never cut an optimal leaf, so the first
    leaf reached is the first optimum in branch order, and the leaf stops
    the search there.

    The split keeps the witness.  A vertex has the same degree in its
    component as in the graph, and :func:`induced_subgraph` keeps index
    order, so each component's branch order is the graph's branch order
    restricted to it.  Of two optima of the graph, the first in branch
    order is decided at the first vertex where they differ, and that
    vertex lies in one component; so the combination of each component's
    first optimum comes before every other optimum.  The color rule of
    :func:`_search` changes no first optimum, in the graph or in a
    component.
    """
    if g.order > SOLVER_ORDER_CAP:
        raise ValueError(f"solver is capped at order {SOLVER_ORDER_CAP}")
    everyone = (1 << g.order) - 1
    codes = [1] * g.order
    nodes = 0
    best: list[int] = []

    def record(found: list[int], weight: int) -> int:
        best[:] = found
        return -1

    for part in components(g):
        if part & (part - 1) == 0:
            continue  # an isolated vertex keeps code 1
        limit, run = _search(g if part == everyone else induced_subgraph(g, part), labels)
        best.clear()
        nodes += run(limit, record)
        while not best:
            limit += 1
            nodes += run(limit, record)
        for v, code in zip(bits(part), best):
            codes[v] = code
    found = witness(tuple(codes))
    return SolveResult(found.weight(), found, nodes)


def gamma_r2(g: Graph) -> SolveResult:
    """Minimum 2-rainbow domination weight by branch and bound.

    The witness is the first optimum in the branch order: descending
    degree, then codes {1,2}, {1}, {2}, {}.
    """
    return _minimise(g, _RAINBOW_LABELS, RainbowAssignment)


def gamma_roman(g: Graph) -> SolveResult:
    """Minimum Roman domination weight by branch and bound.

    The same search as :func:`gamma_r2` over the Roman label table: a
    Roman 2 shows both colors at weight 2, a Roman 1 satisfies only its
    own vertex at weight 1, and a Roman 0 needs both colors, that is a
    2-neighbour.  The witness is the first optimum in the kernel's branch
    order: descending degree, then labels 2, 1, 0.
    """
    return _minimise(g, _ROMAN_LABELS, RomanAssignment)


def _check_all_min_order(g: Graph) -> None:
    """Refuse to enumerate minimum functions above ``ALL_MIN_ORDER_CAP``,
    read when called.

    :func:`_each_min_2rdf` checks; a caller that solves gamma_r2 first
    checks before it, too, so that it fails before any search."""
    if g.order > ALL_MIN_ORDER_CAP:
        raise ValueError(f"minimum-function enumeration is capped at order {ALL_MIN_ORDER_CAP}")


def _each_min_2rdf(g: Graph, value: int, visit: Callable[[list[int]], object]) -> None:
    """Pass each minimum 2-rainbow function the search reaches to ``visit``.

    ``value`` must be gamma_r2(g): :func:`_search` runs with it as a
    fixed weight limit, so every assignment it reaches is optimal.  It
    reaches one function of each color-swapped pair, the one whose first
    singleton in branch order is {1}; so a reached function stands for
    itself and its swap exactly when it holds a {1}.  ``visit`` gets the
    live code list, in vertex order, and must copy it to keep it.
    Raises ValueError above order ``ALL_MIN_ORDER_CAP``.
    """
    _check_all_min_order(g)

    def leaf(codes: list[int], weight: int) -> int:
        visit(codes)
        return value

    _, run = _search(g, _RAINBOW_LABELS)
    run(value, leaf)


def _all_min_at(g: Graph, value: int) -> list[RainbowAssignment]:
    """Every minimum 2-rainbow function, given ``value`` = gamma_r2(g), in
    lexicographic order of the code vector under 0 < 1 < 2 < 3: the
    reached functions plus the swap of each one that holds a {1}."""
    found: list[tuple[int, ...]] = []
    _each_min_2rdf(g, value, lambda codes: found.append(tuple(codes)))
    found += [tuple(_SWAPPED[c] for c in codes) for codes in found if 1 in codes]
    return [RainbowAssignment(codes) for codes in sorted(found)]


def all_min_2rdf(g: Graph) -> list[RainbowAssignment]:
    """Every minimum-weight 2-rainbow dominating function.

    Complete and duplicate-free, in lexicographic order of the code
    vector under 0 < 1 < 2 < 3, enumerated at the optimum from
    :func:`gamma_r2`.
    """
    _check_all_min_order(g)  # before gamma_r2 is solved
    return _all_min_at(g, gamma_r2(g).value)
