"""Enumeration counts, seeded sampling, and scan report determinism."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from rainbowroman import catalog
from rainbowroman.catalog import (CSV_COLUMNS, DEDUP_ORDER_CAP,
                                  LABELED_ORDER_CAP, SAMPLE_COUNT_CAP,
                                  SCAN_ORDER_CAP, enumerate_graphs,
                                  random_graphs, scan)
from rainbowroman.domination import VerificationError
from rainbowroman.graph import (bits, canonical_form, components, connected,
                                edge_mask, graph_from_edges, lower_twins)
from rainbowroman.rng import SplitMix64

from oracles import classes_unpruned, isomorphic

# number of isomorphism classes of simple graphs on n vertices
CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
# candidates canonicalised at order n: every neighbourhood would be
# 1, 1, 2, 8, 32, 176, 1088, 9984
CANDIDATE_COUNTS = {0: 1, 1: 1, 2: 2, 3: 6, 4: 20, 5: 102, 6: 652, 7: 6412}


def twins(g, u, v) -> bool:
    """N(u) \\ {v} = N(v) \\ {u}, straight off the definition."""
    def nbrs(x):
        return {w for w in range(g.order) if g.has_edge(x, w)}
    return nbrs(u) - {v} == nbrs(v) - {u}


def candidates(n: int) -> int:
    """Neighbourhoods of the new vertex that order n tries: on each class
    of order n - 1, every one that takes no vertex without also taking
    each lower-indexed twin of it.  The order-0 graph is the one order-0
    candidate."""
    if n == 0:
        return 1
    count = 0
    for parent, _ in classes_unpruned(n - 1):
        pairs = [(u, v) for v in range(n - 1) for u in range(v) if twins(parent, u, v)]
        count += sum(1 for low in range(1 << (n - 1))
                     if all(low >> u & 1 or not low >> v & 1 for u, v in pairs))
    return count


def twin_test_graphs(n: int) -> list:
    """Every class of order n <= 6; above that, 220 seeded graphs whose
    edge densities run from 0 to 1 in steps of a tenth."""
    if n <= 6:
        return [g for g, _ in catalog._classes(n)]
    rng = SplitMix64(n)
    pairs = list(itertools.combinations(range(n), 2))
    return [graph_from_edges(n, (p for p in pairs if rng.next_below(10) < tenths))
            for tenths in range(11) for _ in range(20)]


def counting_forms(monkeypatch) -> list:
    """The graphs ``catalog`` canonicalises from now on, in call order."""
    calls = []

    def counting(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(catalog, "canonical_form", counting)
    return calls


class TestEnumerate:
    @pytest.mark.parametrize("n", range(6))
    def test_labeled_count(self, n):
        assert sum(1 for _ in enumerate_graphs(n)) == 1 << (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
    def test_class_count(self, n):
        assert sum(1 for _ in enumerate_graphs(n, dedup=True)) == \
            CLASS_COUNTS[n]

    @pytest.mark.parametrize("n", sorted(CONNECTED_CLASS_COUNTS))
    def test_connected_class_count(self, n):
        got = sum(1 for g in enumerate_graphs(n, dedup=True) if connected(g))
        assert got == CONNECTED_CLASS_COUNTS[n]

    def test_dedup_reps_are_pairwise_non_isomorphic(self):
        reps = list(enumerate_graphs(4, dedup=True))
        for i, g in enumerate(reps):
            for h in reps[i + 1:]:
                assert not isomorphic(g, h)
        forms = {canonical_form(g) for g in reps}
        assert len(forms) == len(reps)

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_dedup_rep_has_least_mask_in_class(self, n):
        reps = {canonical_form(g): g for g in enumerate_graphs(n, dedup=True)}
        for g in enumerate_graphs(n):
            rep = reps[canonical_form(g)]
            assert edge_mask(rep, range(n)) <= edge_mask(g, range(n))

    @pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
    def test_kept_form_is_the_canonical_form_of_the_rep(self, n):
        for g, form in catalog._classes(n):
            assert form == canonical_form(g)

    @pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
    def test_classes_match_unpruned(self, n):
        assert [(g.adjacency, form) for g, form in catalog._classes(n)] == \
            [(g.adjacency, form) for g, form in classes_unpruned(n)]

    @pytest.mark.parametrize("n", sorted(CANDIDATE_COUNTS))
    def test_candidate_count(self, n, monkeypatch):
        catalog._classes.cache_clear()
        if n:
            catalog._classes(n - 1)
        calls = counting_forms(monkeypatch)
        catalog._classes(n)
        assert len(calls) == candidates(n) == CANDIDATE_COUNTS[n]

    @pytest.mark.parametrize("n", range(11))
    def test_twin_classes_are_maximal_sets_of_twins(self, n):
        for g in twin_test_graphs(n):
            lower = lower_twins(g)
            for v in range(n):
                assert lower[v] == sum(1 << u for u in range(v) if twins(g, u, v))

    @pytest.mark.parametrize("n", range(11))
    def test_swapping_twins_keeps_the_edge_mask(self, n):
        for g in twin_test_graphs(n):
            for v, lower in enumerate(lower_twins(g)):
                for u in bits(lower):
                    perm = list(range(n))
                    perm[u], perm[v] = v, u
                    assert edge_mask(g, perm) == edge_mask(g, range(n))

    def test_order_7_masks_pinned(self):
        masks = ",".join(str(edge_mask(g, range(7)))
                         for g in enumerate_graphs(7, dedup=True))
        assert hashlib.sha256(masks.encode()).hexdigest() == \
            "409cc39ac8b2a97b4cb375d79e3658bf2f447a0ea1f3fd5bc580ddb505f502ac"

    def test_caps_and_bad_order(self):
        with pytest.raises(ValueError, match="labeled.*capped"):
            next(enumerate_graphs(LABELED_ORDER_CAP + 1))
        with pytest.raises(ValueError, match="dedup.*capped"):
            next(enumerate_graphs(DEDUP_ORDER_CAP + 1, dedup=True))
        with pytest.raises(ValueError, match="non-negative"):
            next(enumerate_graphs(-1))


class TestRandomGraphs:
    def test_deterministic(self):
        a = [edge_mask(g, range(7)) for g in random_graphs(7, 50, seed=5)]
        b = [edge_mask(g, range(7)) for g in random_graphs(7, 50, seed=5)]
        assert a == b
        assert len(set(a)) > 1

    def test_seed_matters(self):
        a = [edge_mask(g, range(7)) for g in random_graphs(7, 20, seed=5)]
        b = [edge_mask(g, range(7)) for g in random_graphs(7, 20, seed=6)]
        assert a != b

    def test_shapes(self):
        for g in random_graphs(5, 10, seed=0):
            assert g.order == 5
        assert list(random_graphs(3, 0, seed=0)) == []
        with pytest.raises(ValueError, match="non-negative"):
            list(random_graphs(-1, 1, seed=0))
        with pytest.raises(ValueError, match="non-negative"):
            list(random_graphs(3, -1, seed=0))

    def test_generator_stream(self):
        # the scan digests rest on this stream; pin it directly too
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
        assert SplitMix64(0).next_bits(0) == 0
        # 70 bits: the first word, then the low 6 bits of the second
        assert SplitMix64(0).next_bits(70) == 0x34 << 64 | 0xe220a8397b1dcdaf
        with pytest.raises(ValueError, match="bound must be positive"):
            SplitMix64(1).next_below(0)


class TestScan:
    def test_one_canonical_form_per_candidate_and_sample(self, monkeypatch):
        catalog._classes.cache_clear()
        calls = counting_forms(monkeypatch)
        scan(6, sample=(10, 20, 4))
        assert len(calls) == sum(candidates(n) for n in range(7)) + 20 == 804

    def test_exhaustive_row_set(self):
        report = scan(4)
        assert len(report.rows) == 1 + 2 + 4 + 11
        assert all(r["kind"] == "exhaustive" for r in report.rows)
        assert [r["canonical"] for r in report.rows] == \
            sorted(r["canonical"] for r in report.rows)
        orders = [r["order"] for r in report.rows]
        assert orders == sorted(orders)
        for r in report.rows:
            assert r["index"] is None
            assert r["gap"] == r["gamma_R"] - r["gamma_r2"]
            assert isinstance(r["min_functions"], int)
            assert isinstance(r["audit_all_pass"], bool)
            assert r["extremal"] == (2 * r["gamma_R"] == 3 * r["gamma_r2"])

    def test_sample_rows(self):
        report = scan(2, sample=(6, 25, 11))
        sample_rows = [r for r in report.rows if r["kind"] == "sample"]
        assert len(sample_rows) == 25
        assert sorted(r["index"] for r in sample_rows) == list(range(25))
        keys = [(r["canonical"], r["index"]) for r in sample_rows]
        assert keys == sorted(keys)
        for r in sample_rows:
            audited = r["extremal"]
            assert (r["min_functions"] is not None) == audited
            assert (r["audit_all_pass"] is not None) == audited

    def test_aggregate(self):
        report = scan(3, sample=(5, 10, 4))
        agg = report.aggregate
        assert agg["kind"] == "aggregate"
        assert agg["max_order"] == 3
        assert agg["sample"] == {"order": 5, "count": 10, "seed": 4}
        assert agg["rows"] == len(report.rows) == 1 + 2 + 4 + 10
        assert agg["extremal"] == sum(1 for r in report.rows if r["extremal"])
        assert agg["max_gap"] == max(r["gap"] for r in report.rows)
        total = sum(c for gaps in agg["gap_by_order"].values()
                    for c in gaps.values())
        assert total == agg["rows"]
        assert set(agg["gap_by_order"]) == \
            {str(r["order"]) for r in report.rows}

    def test_jsonl_bytes_deterministic(self):
        a = scan(4, sample=(7, 40, 99)).to_jsonl()
        b = scan(4, sample=(7, 40, 99)).to_jsonl()
        assert a == b
        lines = a.splitlines()
        assert a.endswith("\n")
        assert json.loads(lines[-1])["kind"] == "aggregate"
        assert len(lines) == 1 + 2 + 4 + 11 + 40 + 1
        first = json.loads(lines[0])
        assert list(first) == list(CSV_COLUMNS)

    def test_csv_bytes_deterministic(self):
        report = scan(3, sample=(5, 8, 7))
        text = report.to_csv()
        assert text == scan(3, sample=(5, 8, 7)).to_csv()
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(report.rows)
        # null cells are empty, booleans lowercase
        non_extremal_sample = next(
            (r for r in report.rows
             if r["kind"] == "sample" and not r["extremal"]), None)
        assert "true" in text and "false" in text
        if non_extremal_sample is not None:
            row_line = lines[1 + report.rows.index(non_extremal_sample)]
            assert row_line.endswith(",,")

    def test_composed_rows_equal_direct_rows(self):
        # the scan stops at order 6, so order 7 is checked through the helper
        rows = {}
        composed = 0
        for n in range(1, 8):
            for g, form in catalog._classes(n):
                parts = components(g)
                row = catalog._row(g, form, "exhaustive")
                if len(parts) > 1:
                    assert catalog._composed_row(g, form, parts, rows) == row
                    composed += 1
                rows[n, edge_mask(g, range(n))] = row
        # 853 of the 1,044 order-7 classes are connected
        assert composed == sum(CLASS_COUNTS[n] - CONNECTED_CLASS_COUNTS[n]
                               for n in range(1, 7)) + 1044 - 853 == 256

    def test_composed_rows_keep_the_sandwich_check(self):
        (k2, k2_form), = [(g, form) for g, form in catalog._classes(2) if g.edge_count()]
        (two_k2, form), = [(g, form) for g, form in catalog._classes(4)
                           if [part.bit_count() for part in components(g)] == [2, 2]]
        bad = dict(catalog._row(k2, k2_form, "exhaustive"), gamma_R=4)
        with pytest.raises(VerificationError, match="sandwich"):
            catalog._composed_row(two_k2, form, components(two_k2),
                                  {(2, edge_mask(k2, range(2))): bad})

    def test_golden_digests(self):
        # any change to a row, its order or the aggregate changes a digest
        report = scan(6, sample=(8, 300, 5))
        assert hashlib.sha256(report.to_jsonl().encode()).hexdigest() == \
            "69e15d458535e404749ad0eb19dd3ab2a8a37cbaacc12608e5577671f0356984"
        assert hashlib.sha256(report.to_csv().encode()).hexdigest() == \
            "7b4c41e4530d44b9f2689b09f6b318812303bffe4948900926c0881a8704c183"

    def test_caps(self):
        with pytest.raises(ValueError, match="capped"):
            scan(SCAN_ORDER_CAP + 1)
        with pytest.raises(ValueError, match="capped"):
            scan(2, sample=(11, 5, 0))
        with pytest.raises(ValueError, match="capped"):
            scan(2, sample=(5, SAMPLE_COUNT_CAP + 1, 0))
