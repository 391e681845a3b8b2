"""A satisfiability gadget separating the two domination parameters.

Every 3-CNF formula F with n variables and m >= 2 clauses maps to a
graph G(F) on 4n + m + 3 vertices: one diamond (K4 minus an edge) per
variable whose two degree-3 vertices stand for the positive and negative
literals, one vertex per clause adjacent to its literals' vertices, and
an induced path u - v - w with u and w adjacent to every clause vertex.

The 2-rainbow weight of G(F) is 2n + 2 regardless of F, while the Roman
weight is 2n + 2 exactly when F is satisfiable and 2n + 3 otherwise, so
deciding whether the two parameters agree is as hard as satisfiability.
A minimum Roman function of weight 2n + 2 encodes a satisfying
assignment: variable i is true exactly when its positive literal vertex
carries the value 2.
"""

from __future__ import annotations

from typing import NamedTuple

from .domination import (RomanAssignment, gamma_r2, gamma_roman,
                         is_roman_dominating)
from .graph import MAX_ORDER, Graph, graph_from_edges
from .record import Record
from .rng import SplitMix64

SAT_BRUTE_FORCE_CAP = 24


class DimacsError(ValueError):
    """Malformed DIMACS CNF text."""


class CnfFormula(Record):
    """A CNF formula with at most three literals per clause.

    Literals are nonzero ints: +i and -i for variable i in 1..num_vars.
    Duplicate literals inside a clause are collapsed; tautological
    clauses (a variable together with its negation) are rejected.
    """

    __slots__ = ("num_vars", "clauses")
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, num_vars: int, clauses: tuple[tuple[int, ...], ...]) -> None:
        if num_vars < 1:
            raise ValueError("formula needs at least one variable")
        cleaned = []
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause")
            if len(clause) > 3:
                raise ValueError("clause has more than three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} out of range")
            dedup = tuple(dict.fromkeys(clause))
            if any(-lit in dedup for lit in dedup):
                raise ValueError("tautological clause")
            cleaned.append(dedup)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", tuple(cleaned))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def _gadget_order(num_vars: int, num_clauses: int) -> int:
    """Order 4n + m + 3 of the gadget; above :data:`graph.MAX_ORDER` raises."""
    order = 4 * num_vars + num_clauses + 3
    if order > MAX_ORDER:
        raise ValueError(f"the gadget would have order {order}; "
                         f"gadgets are capped at order {MAX_ORDER}")
    return order


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: 'c' comments, 'p cnf n m' header, 0-terminated clauses.

    A header with n < 1, m < 0 or a gadget above :data:`graph.MAX_ORDER`
    is rejected at that line, before any clause is read.
    """
    header: tuple[int, int] | None = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(f"line {lineno}: header must be 'p cnf n m'")
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise DimacsError(f"line {lineno}: header must be 'p cnf n m'") from None
            if header[0] < 1 or header[1] < 0:
                raise DimacsError(f"line {lineno}: header needs n >= 1 and m >= 0")
            try:
                _gadget_order(*header)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: {exc}") from None
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause before 'p cnf' header")
        for field in line.split():
            try:
                tokens.append(int(field))
            except ValueError:
                raise DimacsError(f"line {lineno}: bad literal {field!r}") from None
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if not current:
                raise DimacsError("empty clause")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise DimacsError("last clause is not 0-terminated")
    if len(clauses) != header[1]:
        raise DimacsError(
            f"header announces {header[1]} clauses but {len(clauses)} were given")
    try:
        return CnfFormula(header[0], tuple(clauses))
    except ValueError as exc:
        raise DimacsError(str(exc)) from None


def format_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {f.num_clauses}"]
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in f.clauses)
    return "\n".join(lines) + "\n"


class ReductionGraph(NamedTuple):
    """The gadget graph, with accessors that place each vertex.

    Diamonds come first (pos, neg, two fillers per variable i, counted
    from 1), then one vertex per clause j (counted from 0), then the path
    u, v, w.  The accessors read only the formula.
    """

    graph: Graph
    formula: CnfFormula

    @property
    def num_vars(self) -> int:
        return self.formula.num_vars

    @property
    def num_clauses(self) -> int:
        return self.formula.num_clauses

    def pos_vertex(self, i: int) -> int:
        return 4 * (i - 1)

    def neg_vertex(self, i: int) -> int:
        return 4 * (i - 1) + 1

    def filler_vertices(self, i: int) -> tuple[int, int]:
        return 4 * (i - 1) + 2, 4 * (i - 1) + 3

    def clause_vertex(self, j: int) -> int:
        return 4 * self.num_vars + j

    @property
    def u(self) -> int:
        return 4 * self.num_vars + self.num_clauses

    @property
    def v(self) -> int:
        return self.u + 1

    @property
    def w(self) -> int:
        return self.u + 2

    def literal_vertex(self, lit: int) -> int:
        return self.pos_vertex(lit) if lit > 0 else self.neg_vertex(-lit)


def build_reduction(f: CnfFormula) -> ReductionGraph:
    """Build the gadget in the layout of :class:`ReductionGraph`.

    The parameter identities hold for any formula; the gadget is
    connected exactly when every variable occurs in some clause,
    since an unused variable leaves its diamond isolated.  Gadgets above
    order :data:`graph.MAX_ORDER` raise ValueError."""
    if f.num_clauses < 2:
        raise ValueError("reduction needs at least two clauses")
    order = _gadget_order(f.num_vars, f.num_clauses)
    r = ReductionGraph(None, f)  # the layout, before the graph exists
    edges: list[tuple[int, int]] = []
    for i in range(1, f.num_vars + 1):
        p, q = r.pos_vertex(i), r.neg_vertex(i)
        edges.append((p, q))
        for filler in r.filler_vertices(i):
            edges += [(p, filler), (q, filler)]
    for j, clause in enumerate(f.clauses):
        c = r.clause_vertex(j)
        edges += [(r.literal_vertex(lit), c) for lit in clause]
        edges += [(r.u, c), (r.w, c)]
    edges += [(r.u, r.v), (r.v, r.w)]
    return r._replace(graph=graph_from_edges(order, edges))


def _satisfies(assignment: tuple[bool, ...], f: CnfFormula) -> bool:
    """True iff every clause has a literal the assignment makes true."""
    return all(any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in f.clauses)


def sat_brute_force(f: CnfFormula) -> tuple[bool, ...] | None:
    """Lexicographically least satisfying assignment, or None.

    Assignments are compared as (x1, ..., xn) tuples with False < True,
    so the all-false assignment is tried first.
    """
    n = f.num_vars
    if n > SAT_BRUTE_FORCE_CAP:
        raise ValueError(f"brute-force satisfiability is capped at {SAT_BRUTE_FORCE_CAP} variables")
    for m in range(1 << n):
        assignment = tuple(bool((m >> (n - i)) & 1) for i in range(1, n + 1))
        if _satisfies(assignment, f):
            return assignment
    return None


def extract_assignment(r: ReductionGraph, g: RomanAssignment) -> tuple[bool, ...]:
    """Read a truth assignment off a weight-(2n+2) Roman dominating function.

    Variable i is true exactly when its positive literal vertex carries
    the value 2; when neither literal vertex does, false is as good as
    anything, since such a function never exists at this weight.
    """
    if not is_roman_dominating(r.graph, g):
        raise ValueError("input is not a Roman dominating function")
    expected = 2 * r.num_vars + 2
    if g.weight() != expected:
        raise ValueError(f"assignment extraction needs weight {expected}")
    return tuple(g.values[r.pos_vertex(i)] == 2 for i in range(1, r.num_vars + 1))


class ReductionReport(NamedTuple):
    """Solved parameters of a gadget next to the satisfiability ground truth."""

    formula: CnfFormula
    order: int
    gamma_r2: int
    gamma_roman: int
    satisfiable: bool
    assignment: tuple[bool, ...] | None
    consistent: bool

    @property
    def gap(self) -> int:
        return self.gamma_roman - self.gamma_r2


def verify_reduction(f: CnfFormula) -> ReductionReport:
    """Solve the gadget and check every identity it is supposed to satisfy.

    Consistent means: the 2-rainbow weight is exactly 2n + 2, the Roman
    weight exceeds it by 0 or 1, the Roman weight hits 2n + 2 exactly for
    satisfiable formulas, and at that weight the extracted assignment
    really satisfies the formula.
    """
    r = build_reduction(f)
    n = f.num_vars
    rainbow = gamma_r2(r.graph)
    roman = gamma_roman(r.graph)
    sat_witness = sat_brute_force(f)
    satisfiable = sat_witness is not None
    assignment: tuple[bool, ...] | None = None
    consistent = (rainbow.value == 2 * n + 2
                  and roman.value - rainbow.value in (0, 1)
                  and (roman.value == 2 * n + 2) == satisfiable)
    if roman.value == 2 * n + 2:
        assert isinstance(roman.witness, RomanAssignment)
        assignment = extract_assignment(r, roman.witness)
        consistent = consistent and _satisfies(assignment, f)
    return ReductionReport(f, r.graph.order, rainbow.value, roman.value,
                           satisfiable, assignment, consistent)


def random_formula(num_vars: int, num_clauses: int, seed: int,
                   clause_size: int = 3) -> CnfFormula:
    """Uniform random k-CNF: distinct variables per clause, fair signs.

    Draws come from the documented split-mix stream, so a (seed, shape)
    pair names one formula forever.
    """
    if clause_size > num_vars:
        raise ValueError("clause size cannot exceed the variable count")
    rng = SplitMix64(seed)
    clauses = []
    for _ in range(num_clauses):
        chosen: list[int] = []
        while len(chosen) < clause_size:
            var = 1 + rng.next_below(num_vars)
            if var not in chosen:
                chosen.append(var)
        clauses.append(tuple(var if rng.next_below(2) else -var for var in chosen))
    return CnfFormula(num_vars, tuple(clauses))
