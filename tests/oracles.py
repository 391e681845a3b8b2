"""Naive reference implementations the fast code is measured against.

Everything here is written straight off the definitions: enumerate all
4^n color-set assignments or 3^n Roman assignments, test validity with
explicit loops, try all n! bijections for isomorphism, and try all 2^n
truth assignments for satisfiability.  Slow on purpose; trusted because
there is nothing in them to get wrong.  Solvers the package replaced,
and the argparse command-line front end, stay here too, as differential
oracles for their replacements.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache

from rainbowroman import domination
from rainbowroman.cli import (_cmd_construct, _cmd_convert, _cmd_recognize,
                             _cmd_reduce, _cmd_scan, _cmd_solve, _cmd_structure)
from rainbowroman.domination import (SOLVER_ORDER_CAP, RainbowAssignment,
                                     RomanAssignment, SolveResult, all_min_2rdf)
from rainbowroman.graph import (CANONICAL_ORDER_CAP, Graph, bits,
                                canonical_form, edge_mask, from_edge_mask,
                                induced_subgraph)
from rainbowroman.structure import audit_function

PRODUCT_CHECK_ORDER_CAP = 20


def mask_of(vertices) -> int:
    """Pack an iterable of vertex indices into a subset bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def rainbow_valid(g, codes) -> bool:
    """codes[v] is the color bitset at v: 0, 1, 2, or 3 (= {1,2})."""
    for v in range(g.order):
        if codes[v] == 0:
            seen = 0
            for u in range(g.order):
                if g.has_edge(u, v):
                    seen |= codes[u]
            if seen != 3:
                return False
    return True


def rainbow_weight(codes) -> int:
    return sum((c & 1) + ((c >> 1) & 1) for c in codes)


def naive_gamma_r2(g) -> int:
    best = None
    for codes in itertools.product((0, 1, 2, 3), repeat=g.order):
        if rainbow_valid(g, codes):
            w = rainbow_weight(codes)
            if best is None or w < best:
                best = w
    return best


def naive_min_2rdfs(g) -> list[tuple[int, ...]]:
    """Every minimum assignment, in lexicographic code order."""
    target = naive_gamma_r2(g)
    return [codes for codes in itertools.product((0, 1, 2, 3), repeat=g.order)
            if rainbow_weight(codes) == target and rainbow_valid(g, codes)]


RAINBOW_BRANCH_ORDER = (3, 1, 2, 0)  # {1,2}, {1}, {2}, {}
ROMAN_BRANCH_ORDER = (2, 1, 0)


def first_optimum(g, labels, weight, valid) -> tuple[int, ...]:
    """The first minimum-weight valid assignment in the solvers' branch order.

    Vertices are decided by descending degree, ties by index, and each
    tries the values of ``labels`` in turn; ``itertools.product`` lists
    the choices in exactly that order.  An assignment replaces the
    incumbent only when strictly lighter, so the first optimum is kept.
    Returns the values in vertex order.
    """
    n = g.order
    branch = sorted(range(n), key=lambda v: (-g.degree(v), v))
    slot = [branch.index(v) for v in range(n)]
    best = None
    for choice in itertools.product(labels, repeat=n):
        codes = tuple(choice[slot[v]] for v in range(n))
        w = weight(codes)
        if (best is None or w < best[0]) and valid(g, codes):
            best = (w, codes)
    return best[1]


def gamma_r2_product_check(g) -> int:
    """Domination number of the prism G x K2, an independent route to
    the 2-rainbow value.

    The prism doubles every vertex into a (v, color) pair joined across
    and along G.  Dominating sets are sought by subset enumeration in
    increasing cardinality, so the first hit is the domination number.
    """
    n = g.order
    if n > PRODUCT_CHECK_ORDER_CAP:
        raise ValueError(
            f"product check is capped at order {PRODUCT_CHECK_ORDER_CAP}")
    if n == 0:
        return 0
    m = 2 * n
    closed = []
    for side in (0, 1):
        for v in range(n):
            row = (1 << (side * n + v)) | (1 << ((1 - side) * n + v))
            row |= g.adjacency[v] << (side * n)
            closed.append(row)
    full = (1 << m) - 1
    for k in range(m + 1):
        for combo in itertools.combinations(range(m), k):
            covered = 0
            for x in combo:
                covered |= closed[x]
            if covered == full:
                return k
    raise AssertionError("unreachable: the full vertex set always dominates")


def _greedy_cover_bound(g) -> int:
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


def minimise_descending(g, labels) -> SolveResult:
    """Minimise over ``labels`` by descending incumbents, as the solvers did
    before they deepened from the root bound.

    One pass of ``domination._search`` starts at the weight of a greedy
    valid function; each assignment found becomes the incumbent and lowers
    the limit to one below its weight, so the last one found is the first
    optimum in branch order.  The differential oracle for ``gamma_r2``
    (``labels`` = ``domination._RAINBOW_LABELS``) and ``gamma_roman``
    (``domination._ROMAN_LABELS``).
    """
    best: list[int] = []

    def record(codes, weight):
        best[:] = codes
        return weight - 1

    _, run = domination._search(g, labels)
    nodes = run(_greedy_cover_bound(g), record)
    witness = RainbowAssignment if labels == domination._RAINBOW_LABELS else RomanAssignment
    found = witness(tuple(best))
    return SolveResult(found.weight(), found, nodes)


def minimise_unsplit(g, labels) -> SolveResult:
    """Minimise over ``labels`` by deepening from the root bound on the whole
    graph, as the solvers did before they split a graph into components.

    ``domination._search`` runs at limits root, root + 1, ... and its first
    leaf stops it; ``nodes`` sums every pass.  The differential oracle for
    the component split of ``gamma_r2`` and ``gamma_roman``.
    """
    limit, run = domination._search(g, labels)
    best: list[int] = []
    reached = False

    def record(codes, weight):
        nonlocal reached
        best[:] = codes
        reached = True
        return -1

    nodes = run(limit, record)
    while not reached:
        limit += 1
        nodes += run(limit, record)
    witness = RainbowAssignment if labels == domination._RAINBOW_LABELS else RomanAssignment
    found = witness(tuple(best))
    return SolveResult(found.weight(), found, nodes)


def prism_bound_unbudgeted(n, scan, demand, undecided) -> int | None:
    """``domination._prism_bound`` as it was before it took a budget: the
    packing count always runs to the end of the scan."""
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
                return None
            if sup & used == 0:
                used |= sup
                count += 1
        if demand & two:
            sup = rung | nbrs << n
            if sup == 0:
                return None
            if sup & used == 0:
                used |= sup
                count += 1
    return count


def ratio_bound_by_mask(offers, undecided, demand) -> int | None:
    """``domination._ratio_bound`` as it was before the flat offer table:
    ``offers`` holds, per nonempty label, its weight and a per-vertex list
    of the demand bits it would meet, and the undecided mask is walked one
    vertex at a time, in index order, to collect the ranking.  No budget."""
    ranked = []
    while undecided:
        low = undecided & -undecided
        undecided ^= low
        x = low.bit_length() - 1
        for weight, reach in offers:
            met = demand & reach[x]
            if met:
                ranked.append((weight / met.bit_count(), met))
    ranked.sort()
    total = 0.0
    for ratio, met in ranked:
        met &= demand
        if met:
            total += ratio * met.bit_count()
            demand &= ~met
            if demand == 0:
                break
    if demand:
        return None
    return math.ceil(total - 1e-9)


def ratio_bound_exact(offers, demand) -> int | None:
    """The ratio bound in exact arithmetic, straight off its definition.

    ``offers`` is the flat ``(weight, reach, j)`` table of
    ``domination._ratio_bound``.  Each demand bit is charged the least
    ``weight / |demand & reach|`` over the offers whose reach holds it; the
    bound is the ceiling of the sum, or None when some demand has no offer.
    """
    total = Fraction(0)
    for d in bits(demand):
        charges = [Fraction(weight, (demand & reach).bit_count())
                   for weight, reach, _ in offers if reach >> d & 1]
        if not charges:
            return None
        total += min(charges)
    return math.ceil(total)


def completes_brute(g, labels, undecided, demand, budget) -> bool:
    """Whether labels of total weight at most ``budget`` <= 2, placed on
    distinct vertices of ``undecided``, meet every bit of ``demand`` (bit v
    for (v, 1), bit n + v for (v, 2)): every set of at most two placements
    is tried.  A placement meets its vertex's two demands and the colors
    its label shows at the vertex's neighbours; every nonempty label
    weighs at least 1, so no completion within the budget places more."""
    n = g.order
    placements = []
    for x in bits(undecided):
        row = g.adjacency[x]
        for code, weight, shows in labels:
            if code:
                met = 1 << x | 1 << (n + x)
                met |= (row if shows & 1 else 0) | (row << n if shows & 2 else 0)
                placements.append((x, weight, met))
    for size in range(3):
        for chosen in itertools.combinations(placements, size):
            met = 0
            for _, _, reach in chosen:
                met |= reach
            if (len({x for x, _, _ in chosen}) == size
                    and sum(weight for _, weight, _ in chosen) <= budget
                    and demand & ~met == 0):
                return True
    return False


def search_by_mask(g, labels):
    """``domination._search`` as it was before the flat offer table and the
    budgets: the ratio bound walks the undecided mask to collect per-vertex
    offers, and both bounds run to the end.  A branch with at most 2 units
    of weight left takes :func:`completes_brute` instead of the bounds.
    Same ``(root, run)`` contract.  The differential oracle for the
    search's root bound, node counts, values and witnesses.
    """
    n = g.order
    adj = g.adjacency
    deg = [row.bit_count() for row in adj]
    branch = sorted(range(n), key=lambda v: (-deg[v], v))
    rungs = [(1 << v) | (1 << (n + v)) for v in range(n)]
    scan = [(1 << v, 1 << (n + v), rungs[v], adj[v])
            for v in sorted(range(n), key=lambda v: (deg[v], v))]
    shown_to = [(0, row, row << n, row | row << n) for row in adj]
    offers = [(weight, [rung | masks[shows] for rung, masks in zip(rungs, shown_to)])
              for code, weight, shows in labels if code]
    opening = tuple(label for label in labels if label[2] != 2)
    everyone = (1 << n) - 1
    every_demand = everyone | everyone << n
    root = max(prism_bound_unbudgeted(n, scan, every_demand, everyone),
               ratio_bound_by_mask(offers, everyone, every_demand))
    codes = [0] * n

    def run(limit, leaf):
        nodes = 0

        def descend(depth, weight, undecided, empties, shown, opened):
            nonlocal limit, nodes
            if depth == n:
                limit = leaf(codes, weight)
                return
            v = branch[depth]
            remaining = undecided & ~(1 << v)
            for code, cost, shows in labels if opened else opening:
                w = weight + cost
                if w > limit:
                    continue
                nodes += 1
                codes[v] = code
                now_empty = empties if code else empties | (1 << v)
                now_shown = shown | shown_to[v][shows]
                pending = remaining | now_empty
                demand = (pending | pending << n) & ~now_shown
                if demand and limit - w < 3:
                    if not completes_brute(g, labels, remaining, demand, limit - w):
                        continue
                elif demand:
                    bound = prism_bound_unbudgeted(n, scan, demand, remaining)
                    if bound is None or w + bound > limit:
                        continue
                    bound = ratio_bound_by_mask(offers, remaining, demand)
                    if bound is None or w + bound > limit:
                        continue
                descend(depth + 1, w, remaining, now_empty, now_shown,
                        opened or shows == 1)

        descend(0, 0, everyone, 0, 0, False)
        return nodes

    return root, run


def graph_validation_error(order, adjacency) -> str | None:
    """The message ``Graph`` raises for these rows, or None, from the
    validation loops it ran before its symmetry check was inlined: range
    and self-loop row by row, then symmetry row by row through
    ``graph.bits``.  The differential oracle for ``Graph.__init__``.
    """
    if order < 0:
        return "graph order must be non-negative"
    if len(adjacency) != order:
        return "adjacency must have one row per vertex"
    full = (1 << order) - 1
    for v, row in enumerate(adjacency):
        if row & ~full:
            return f"adjacency row {v} references a vertex >= order"
        if (row >> v) & 1:
            return f"self-loop at vertex {v}"
    for v in range(order):
        for u in bits(adjacency[v]):
            if not (adjacency[u] >> v) & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


def gamma_roman_subsets(g) -> SolveResult:
    """Minimum Roman domination weight by enumerating the 2-valued set.

    Fixing the set V2 of 2-vertices forces the optimal completion: 0 on
    dominated outsiders, 1 on the rest, for cost 2|V2| + |V \\ N[V2]|.
    Subsets are tried by increasing cardinality (lexicographically within
    one cardinality); enumeration stops once 2|V2| can no longer beat the
    incumbent.  The witness is the first optimal subset encountered.
    The differential oracle for ``domination.gamma_roman``.
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


def roman_valid(g, values) -> bool:
    for v in range(g.order):
        if values[v] == 0:
            if not any(values[u] == 2 and g.has_edge(u, v)
                       for u in range(g.order)):
                return False
    return True


def naive_gamma_roman(g) -> int:
    best = None
    for values in itertools.product((0, 1, 2), repeat=g.order):
        if roman_valid(g, values):
            w = sum(values)
            if best is None or w < best:
                best = w
    return best


def isomorphic(g, h) -> bool:
    if g.order != h.order:
        return False
    target = set(g.edges())
    for p in itertools.permutations(range(h.order)):
        mapped = {tuple(sorted((p[u], p[v]))) for u, v in h.edges()}
        if mapped == target:
            return True
    return False


def canonical_form_unpruned(g) -> bytes:
    """``graph.canonical_form`` without its twin rule: the same degree-sorted
    search with incumbent-prefix pruning, exploring every tied candidate.
    The differential oracle for ``graph.canonical_form``.
    """
    n = g.order
    if n > CANONICAL_ORDER_CAP:
        raise ValueError(f"canonical form is capped at order {CANONICAL_ORDER_CAP}")
    if n == 0:
        return bytes([0])
    adj = g.adjacency
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
            if (used >> v) & 1:
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


@lru_cache(maxsize=None)
def _unpruned_form_by_mask(order: int, mask: int) -> bytes:
    return canonical_form_unpruned(from_edge_mask(order, mask))


@lru_cache(maxsize=None)
def classes_unpruned(n: int) -> tuple[tuple[Graph, bytes], ...]:
    """``catalog._classes`` without its twin rule: every neighbourhood of
    the new vertex on every order-(n - 1) class, the least mask kept per
    canonical form.  The differential oracle for ``catalog._classes``.
    """
    if n == 0:
        g = Graph(0, ())
        return ((g, canonical_form(g)),)
    least: dict[bytes, Graph] = {}
    for parent, _ in classes_unpruned(n - 1):
        shifted = [row << 1 for row in parent.adjacency]
        for low in range(1 << (n - 1)):
            rows = [low << 1]
            rows += [row | ((low >> i) & 1) for i, row in enumerate(shifted)]
            g = Graph(n, tuple(rows))
            least.setdefault(canonical_form(g), g)
    return tuple((g, form) for form, g in least.items())


def has_induced_by_canonical(g, h) -> bool:
    """Some order(h)-subset of g induces a graph with h's canonical form.

    Canonical forms come from :func:`canonical_form_unpruned`, memoized by
    (order, edge mask).  The differential oracle for
    ``hereditary.has_induced``.
    """
    k = h.order
    target = canonical_form_unpruned(h)
    for subset in itertools.combinations(range(g.order), k):
        sub = induced_subgraph(g, mask_of(subset))
        if _unpruned_form_by_mask(k, edge_mask(sub, range(k))) == target:
            return True
    return False


def has_induced_brute(g, h) -> bool:
    """Some |V(H)|-subset of G induces a copy of H (all maps tried)."""
    k = h.order
    hedges = set(h.edges())
    for subset in itertools.combinations(range(g.order), k):
        sedges = {(a, b) for a, b in itertools.combinations(range(k), 2)
                  if g.has_edge(subset[a], subset[b])}
        for p in itertools.permutations(range(k)):
            mapped = {tuple(sorted((p[a], p[b]))) for a, b in sedges}
            if mapped == hedges:
                return True
    return False


def connected_brute(g) -> bool:
    if g.order == 0:
        return False
    reached = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in range(g.order):
            if u not in reached and g.has_edge(u, v):
                reached.add(u)
                frontier.append(u)
    return len(reached) == g.order


def has_k4_brute(g) -> bool:
    return any(all(g.has_edge(a, b) for a, b in itertools.combinations(q, 2))
               for q in itertools.combinations(range(g.order), 4))


def naive_sat(num_vars, clauses):
    """Lexicographically least satisfying assignment or None.

    clauses are tuples of nonzero ints, DIMACS sign convention.
    """
    for assignment in itertools.product((False, True), repeat=num_vars):
        if all(any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in clauses):
            return assignment
    return None


_SOLVER_CODE_RANK = {3: 0, 1: 1, 2: 2, 0: 3}


def canonical_min_2rdf(g) -> RainbowAssignment:
    """The distinguished minimum 2-rainbow function: maximize the number
    of {1,2} codes, break ties by the solver's code preference order
    {1,2} < {1} < {2} < {}.

    On a graph with no induced P5, C5, or C4, reading this function as
    {} -> 0, singleton -> 1, {1,2} -> 2 always yields a Roman dominating
    function of the same weight.
    """
    funcs = all_min_2rdf(g)
    best_count = max(sum(1 for c in f.codes if c == 3) for f in funcs)
    pool = [f for f in funcs if sum(1 for c in f.codes if c == 3) == best_count]
    return min(pool, key=lambda f: tuple(_SOLVER_CODE_RANK[c] for c in f.codes))


def rainbow_as_roman_codes(f: RainbowAssignment) -> tuple[int, ...]:
    """The {}->0, singleton->1, {1,2}->2 reading of a rainbow assignment."""
    return tuple(0 if c == 0 else 1 if c in (1, 2) else 2 for c in f.codes)


def audit_summary_by_listing(g) -> tuple[int, bool]:
    """``structure.audit_summary`` as it was before it walked the search:
    list, sort and audit every minimum function, swaps included.  The
    differential oracle for the one-search count and audit."""
    functions = all_min_2rdf(g)
    return len(functions), all(audit_function(g, f).all_pass() for f in functions)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this artifact reserves 2
    for violated identities, so usage errors exit 1 instead."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def argparse_parser() -> _Parser:
    """The argparse front end the command table replaced, as it stood: the
    oracle its parser is checked against."""
    parser = _Parser(prog="rainbowroman",
                     description="Exact 2-rainbow and Roman domination toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one or both parameters exactly")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--param", choices=("r2", "roman", "both"), default="both")
    p.add_argument("--witness", action="store_true",
                   help="include an optimal assignment per parameter")
    p.add_argument("--all-min", action="store_true",
                   help="list every minimum 2-rainbow function")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("convert", help="convert between the two assignments")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("assignment", help="comma-separated token string")
    p.add_argument("--direction", required=True,
                   choices=("roman-to-r2", "r2-to-roman"))
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("reduce", help="build the satisfiability gadget")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--out", help="write the gadget as an edge-list file")
    p.add_argument("--check", action="store_true",
                   help="solve the gadget and verify every identity")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("recognize", help="forbidden-family membership")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--family", nargs="+", required=True,
                   help="theorem2, theorem3, or edge-list files")
    p.add_argument("--hereditary-direct", action="store_true",
                   help="cross-check by solving every induced subgraph")
    p.add_argument("--gk", type=int, default=None,
                   help="threshold for the three-halves check (default 3)")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("structure", help="extremal check plus minimum-function audit")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("construct", help="gap-shifting constructions")
    p.add_argument("--op", required=True, choices=("add-c4", "star-link", "gap-k"))
    p.add_argument("--k", type=int, default=None, help="target gap for gap-k")
    p.add_argument("graph", nargs="?", default=None, help="edge-list file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("scan", help="exhaustive catalogue report")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--sample", default=None, metavar="ORDER,COUNT,SEED")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(func=_cmd_scan)

    return parser
