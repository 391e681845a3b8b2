"""Graph core: construction, edge-list round trips, canonical forms."""

from __future__ import annotations

import itertools
import time

import pytest

from rainbowroman.catalog import enumerate_graphs
from rainbowroman.graph import (EdgeListError, Graph, bits, canonical_form,
                                complete_graph, components, connected,
                                cycle_graph, diamond_graph, disjoint_union,
                                edge_mask, empty_graph, from_edge_mask,
                                graph_from_edges, induced_subgraph, is_k4_free,
                                parse_edge_list, path_graph, relabel,
                                serialize_edge_list, star_graph)
from rainbowroman.rng import SplitMix64

from oracles import (canonical_form_unpruned, connected_brute,
                     graph_validation_error, has_k4_brute, isomorphic, mask_of)


def all_labeled(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_edges(
            n, (pairs[i] for i in range(len(pairs)) if (mask >> i) & 1))


def random_graph(rng, n):
    return from_edge_mask(n, rng.next_bits(n * (n - 1) // 2))


def largest_twin_class(g):
    """Most vertices sharing one neighbourhood outside themselves."""
    adj = g.adjacency
    return max((sum(1 for u in range(g.order)
                    if (adj[u] ^ adj[v]) & ~(1 << u | 1 << v) == 0)
                for v in range(g.order)), default=0)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


class TestGraphType:
    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, (0b1,))

    def test_rejects_out_of_range_row(self):
        with pytest.raises(ValueError, match=">= order"):
            Graph(1, (0b10,))

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="one row per vertex"):
            Graph(2, (0,))

    def test_validation_errors_match_the_old_loops(self):
        # one bad entry per graph: the message, and so the pair it names,
        # must be the one the generator-based loops reported first
        rng = SplitMix64(2000)
        kinds = {"asymmetric": 0, "self-loop": 0, ">= order": 0}
        for _ in range(500):
            n = 1 + rng.next_below(64)
            rows = list(from_edge_mask(n, rng.next_bits(n * (n - 1) // 2)
                                       & rng.next_bits(n * (n - 1) // 2)).adjacency)
            assert graph_validation_error(n, tuple(rows)) is None
            v = rng.next_below(n)
            fault = rng.next_below(3)
            if fault == 0 and n > 1:
                u = (v + 1 + rng.next_below(n - 1)) % n
                rows[v] ^= 1 << u
            elif fault == 1:
                rows[v] |= 1 << v
            else:
                rows[v] |= 1 << (n + rng.next_below(8))
            want = graph_validation_error(n, tuple(rows))
            with pytest.raises(ValueError) as err:
                Graph(n, tuple(rows))
            assert str(err.value) == want
            kinds[next(k for k in kinds if k in want)] += 1
        assert min(kinds.values()) > 100

    def test_edges_and_degrees(self):
        g = graph_from_edges(4, [(2, 0), (1, 2), (2, 3)])
        assert g.edges() == [(0, 2), (1, 2), (2, 3)]
        assert g.edge_count() == 3
        assert [g.degree(v) for v in range(4)] == [1, 1, 3, 1]
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_mask_of_and_bits(self):
        assert mask_of([0, 3, 5]) == 0b101001


class TestNamedGraphs:
    def test_path(self):
        g = path_graph(5)
        assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert all(g.degree(v) == 2 for v in range(4))

    def test_complete_and_empty(self):
        assert complete_graph(4).edge_count() == 6
        assert empty_graph(3).edge_count() == 0
        assert complete_graph(0).order == 0

    def test_star(self):
        g = star_graph(3)
        assert g.order == 4 and g.degree(0) == 3
        assert all(g.degree(v) == 1 for v in range(1, 4))

    def test_diamond(self):
        g = diamond_graph()
        assert sorted(g.degree(v) for v in range(4)) == [2, 2, 3, 3]
        assert g.has_edge(0, 1)
        assert not g.has_edge(2, 3)

    def test_bounds(self):
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            star_graph(0)
        with pytest.raises(ValueError, match="complete graph needs order >= 0"):
            complete_graph(-1)
        with pytest.raises(ValueError, match="empty graph needs order >= 0"):
            empty_graph(-1)


class TestEdgeList:
    def test_round_trip(self):
        rng = SplitMix64(7)
        for n in range(0, 9):
            for _ in range(10):
                g = random_graph(rng, n)
                back = parse_edge_list(serialize_edge_list(g))
                assert back.order == g.order
                assert back.adjacency == g.adjacency

    def test_comments_blanks_and_reversed_endpoints(self):
        text = "# a square\n\n4 4\n1 0\n\n2 1\n# middle\n3 2\n3 0\n"
        g = parse_edge_list(text)
        assert g.adjacency == cycle_graph(4).adjacency

    def test_missing_header(self):
        with pytest.raises(EdgeListError, match="missing 'n m' header"):
            parse_edge_list("# nothing\n")

    def test_malformed_header(self):
        with pytest.raises(EdgeListError, match="line 1: header"):
            parse_edge_list("4\n")
        with pytest.raises(EdgeListError, match="line 2: header"):
            parse_edge_list("# c\nfour four\n")
        with pytest.raises(EdgeListError, match="non-negative"):
            parse_edge_list("-1 0\n")

    def test_order_cap_at_header(self):
        assert parse_edge_list("64 0\n").order == 64
        with pytest.raises(EdgeListError, match="line 2: edge lists are capped at order 64"):
            parse_edge_list("# huge\n1000000 0\n")

    def test_self_loop(self):
        with pytest.raises(EdgeListError, match="line 2: self-loop"):
            parse_edge_list("3 1\n1 1\n")

    def test_out_of_range(self):
        with pytest.raises(EdgeListError, match="line 2: vertex index out of range"):
            parse_edge_list("3 1\n0 3\n")

    def test_duplicate_edge_either_order(self):
        with pytest.raises(EdgeListError, match="line 3: duplicate edge 0 1"):
            parse_edge_list("3 2\n0 1\n1 0\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeListError, match="announces 3 edges but 1"):
            parse_edge_list("3 3\n0 1\n")

    def test_malformed_edge(self):
        with pytest.raises(EdgeListError, match="line 2: edge must be"):
            parse_edge_list("3 1\n0 1 2\n")
        with pytest.raises(EdgeListError, match="line 2: edge must be 'u v'"):
            parse_edge_list("3 1\n0 x\n")


class TestOperations:
    def test_induced_subgraph(self):
        g = cycle_graph(5)
        h = induced_subgraph(g, mask_of([0, 1, 2]))
        assert h.adjacency == path_graph(3).adjacency
        assert induced_subgraph(g, 0).order == 0
        with pytest.raises(ValueError, match=">= order"):
            induced_subgraph(g, 1 << 5)

    def test_disjoint_union(self):
        g = disjoint_union(complete_graph(2), path_graph(3))
        assert g.order == 5
        assert g.edges() == [(0, 1), (2, 3), (3, 4)]

    def test_relabel_preserves_structure(self):
        rng = SplitMix64(11)
        for n in range(1, 8):
            g = random_graph(rng, n)
            perm = list(range(n))
            for i in range(n - 1, 0, -1):
                j = rng.next_below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            h = relabel(g, perm)
            assert sorted(h.degree(v) for v in range(n)) == \
                sorted(g.degree(v) for v in range(n))
            for u, v in g.edges():
                assert h.has_edge(perm[u], perm[v])

    def test_components_and_connected(self):
        g = disjoint_union(cycle_graph(3), path_graph(2))
        comps = components(g)
        assert comps == [mask_of([0, 1, 2]), mask_of([3, 4])]
        assert not connected(g)
        assert connected(cycle_graph(4))
        assert not connected(empty_graph(0))
        rng = SplitMix64(3)
        for n in range(0, 8):
            for _ in range(8):
                h = random_graph(rng, n)
                assert connected(h) == connected_brute(h), serialize_edge_list(h)
                # a partition into closed, connected parts, by least vertex
                parts = components(h)
                assert sum(p.bit_count() for p in parts) == n
                assert mask_of(v for p in parts for v in bits(p)) == (1 << n) - 1
                assert parts == sorted(parts, key=lambda p: p & -p)
                for part in parts:
                    assert connected_brute(induced_subgraph(h, part))
                    assert all(h.adjacency[v] & ~part == 0 for v in bits(part))

    def test_is_k4_free_exhaustive_order_5(self):
        for g in all_labeled(5):
            assert is_k4_free(g) == (not has_k4_brute(g))

    def test_edge_mask_round_trip(self):
        for n in range(6):
            for g in all_labeled(n):
                mask = edge_mask(g, range(n))
                assert from_edge_mask(n, mask) == g
        rng = SplitMix64(23)
        for _ in range(50):
            mask = rng.next_bits(45)
            g = from_edge_mask(10, mask)
            assert edge_mask(g, range(10)) == mask
        with pytest.raises(ValueError, match="pair"):
            from_edge_mask(2, 0b10)
        with pytest.raises(ValueError, match="pair"):
            from_edge_mask(10, 1 << 45)

    def test_edge_mask_of_a_vertex_sequence(self):
        # a subset in ascending order packs its induced subgraph; a
        # permutation packs the graph relabelled by its inverse
        rng = SplitMix64(61)
        for n in range(7):
            g = random_graph(rng, n)
            for k in range(n + 1):
                for subset in itertools.combinations(range(n), k):
                    sub = induced_subgraph(g, mask_of(subset))
                    assert edge_mask(g, subset) == edge_mask(sub, range(k))
            for perm in itertools.islice(itertools.permutations(range(n)), 50):
                inverse = [0] * n
                for i, v in enumerate(perm):
                    inverse[v] = i
                assert edge_mask(g, perm) == edge_mask(relabel(g, inverse), range(n))


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = SplitMix64(23)
        for n in range(1, 8):
            for _ in range(12):
                g = random_graph(rng, n)
                perm = list(range(n))
                for i in range(n - 1, 0, -1):
                    j = rng.next_below(i + 1)
                    perm[i], perm[j] = perm[j], perm[i]
                assert canonical_form(g) == canonical_form(relabel(g, perm))

    def test_separates_classes_exhaustively_to_order_5(self):
        # equal form <=> isomorphic, checked against the n! oracle
        for n in range(0, 6):
            reps: dict[bytes, Graph] = {}
            for g in all_labeled(n):
                key = canonical_form(g)
                if key in reps:
                    assert isomorphic(g, reps[key])
                else:
                    for other in reps.values():
                        assert not isomorphic(g, other)
                    reps[key] = g

    def test_order_cap(self):
        with pytest.raises(ValueError, match="capped"):
            canonical_form(empty_graph(11))

    def test_prefix_is_order(self):
        assert canonical_form(empty_graph(0)) == bytes([0])
        for n in range(1, 6):
            assert canonical_form(complete_graph(n))[0] == n

    def test_matches_unpruned_oracle_on_labeled_graphs_to_order_6(self):
        for n in range(7):
            for g in all_labeled(n):
                assert canonical_form(g) == canonical_form_unpruned(g), \
                    serialize_edge_list(g)

    def test_matches_unpruned_oracle_on_order_7_classes(self):
        for g in enumerate_graphs(7, dedup=True):
            assert canonical_form(g) == canonical_form_unpruned(g), \
                serialize_edge_list(g)

    def test_matches_unpruned_oracle_on_seeded_orders_8_to_10(self):
        # The oracle walks every ordering of a twin class, so one G(10, 0.9)
        # with six universal vertices costs it 22 s.  Graphs with a twin
        # class above five vertices are left to the exhaustive tests above
        # and the symmetric order-10 graphs below.
        rng = SplitMix64(2014)
        pairs = {n: list(itertools.combinations(range(n), 2)) for n in (8, 9, 10)}
        checked = 0
        for percent in range(10, 100, 10):
            for n in (8, 9, 10):
                for _ in range(45):
                    g = graph_from_edges(n, (p for p in pairs[n]
                                             if rng.next_below(100) < percent))
                    if largest_twin_class(g) > 5:
                        continue
                    assert canonical_form(g) == canonical_form_unpruned(g), \
                        serialize_edge_list(g)
                    checked += 1
        assert checked >= 1000

    def test_symmetric_order_10_graphs_finish_fast(self):
        k55 = graph_from_edges(10, [(i, j) for i in range(5) for j in range(5, 10)])
        five_k2 = graph_from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)])
        graphs = [empty_graph(10), complete_graph(10), k55, five_k2,
                  cycle_graph(10), petersen_graph()]
        start = time.perf_counter()
        forms = [canonical_form(g) for g in graphs]
        elapsed = time.perf_counter() - start
        assert forms[0] == bytes([10]) + bytes(6)
        assert forms[1] == bytes([10]) + ((1 << 45) - 1).to_bytes(6, "big")
        for g, form in zip(graphs[2:], forms[2:]):
            assert form == canonical_form_unpruned(g)
        assert elapsed < 2.0, f"six symmetric order-10 forms took {elapsed:.2f} s"
