"""Seeded inputs and job batches for the three workloads.

Inputs come from the standard library's ``random.Random`` seeded with the
workload name and ``--seed``, never from the package's own generators, so
a change to rainbowroman cannot change what the benchmark feeds it.  Each
job carries what its check needs: the graph it was given and the answer
expected from a closed form, a theorem or a value pinned in
``pinned.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from graphs import (cycle, dimacs_text, disjoint_c4s, edge_list_text, gap_graph,
                    gnp_half, multipartite_pairs, random_3cnf, relabel, satisfiable,
                    threshold_graph)


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple[str, ...]  # CLI arguments; input files are named relative to the work dir
    kind: str  # selects the check in check.py
    expect: dict


# the trivial job that times interpreter start, import and JSON emit
SETUP_JOB = Job("setup-K1", ("solve", "k1.el"), "solve",
                {"rows": [0], "gamma_r2": 1, "gamma_R": 1, "witness": False})


@dataclass
class Batch:
    jobs: list[Job]
    files: dict[str, str]

    def add(self, name: str, args: tuple[str, ...], kind: str, expect: dict,
            files: dict[str, str] | None = None) -> None:
        self.jobs.append(Job(name, args, kind, expect))
        self.files.update(files or {})

    def digest(self) -> str:
        """SHA-256 of every input file and every job's arguments."""
        blob = json.dumps({"files": self.files,
                           "jobs": [[j.name, list(j.args)] for j in self.jobs]},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _solve(batch: Batch, name: str, rows: list[int], r2: int, roman: int) -> None:
    path = f"{name}.el"
    batch.add(name, ("solve", "--witness", path), "solve",
              {"rows": rows, "gamma_r2": r2, "gamma_R": roman, "witness": True},
              {path: edge_list_text(rows)})


def _gadget(batch: Batch, rng: random.Random, num_vars: int, num_clauses: int,
            want_sat: bool) -> None:
    while True:
        clauses = random_3cnf(num_vars, num_clauses, rng)
        if satisfiable(num_vars, clauses) == want_sat:
            break
    name = f"reduce-n{num_vars}m{num_clauses}-{'sat' if want_sat else 'unsat'}"
    path = f"{name}.cnf"
    batch.add(name, ("reduce", path, "--check"), "gadget",
              {"num_vars": num_vars, "satisfiable": want_sat},
              {path: dimacs_text(num_vars, clauses)})


def sparse_roman(rng: random.Random, pins: dict) -> Batch:
    batch = Batch([], {})
    labelings = pins["cycles"]["labelings_by_order"]
    for n in range(20, 25):
        # gamma_r2(C_n) (Bresar & Kraner Sumenjak 2007), gamma_R(C_n) (Cockayne et al. 2004)
        r2 = n // 2 + -(-n // 4) - n // 4
        # a labeling of middling search cost, so every seed costs about the same
        index = rng.choice(labelings[str(n)])["index"]
        rows = relabel(cycle(n), random.Random(f"cycle:{n}:{index}"))
        _solve(batch, f"solve-C{n}i{index}", rows, r2, -(-2 * n // 3))
    for k in (3, 4):
        _solve(batch, f"solve-gap{k}", relabel(gap_graph(k), rng), 2 * k + 3, 3 * k + 3)
    _gadget(batch, rng, 4, 10, want_sat=False)
    _gadget(batch, rng, 5, 12, want_sat=True)
    batch.add("construct-gap4", ("construct", "--op", "gap-k", "--k", "4"),
              "construct-gap", {"k": 4, "rows": gap_graph(4)})
    return batch


def dense_rainbow(rng: random.Random, pins: dict) -> Batch:
    """One pinned G(n, 1/2) per cost stratum, so every seed costs about the same."""
    batch = Batch([], {})
    for s, stratum in enumerate(pins["dense"]["strata"]):
        entry = rng.choice(stratum)
        n, index = entry["n"], entry["index"]
        rows = gnp_half(n, random.Random(f"dense:{n}:{index}"))
        _solve(batch, f"solve-dense{s}-n{n}i{index}", rows, entry["gamma_r2"], entry["gamma_R"])
    return batch


def catalogue(rng: random.Random, pins: dict) -> Batch:
    batch = Batch([], {})
    scan = pins["scan"]
    for seed in sorted(rng.sample(sorted(scan["sha256"], key=int), scan["jobs"])):
        sample = f"{scan['order']},{scan['count']},{seed}"
        batch.add(f"scan-{seed}", ("scan", "--max-order", str(scan["max_order"]),
                                   "--sample", sample),
                  "scan", {"sha256": scan["sha256"][seed]})
    for family, free_rows in (("theorem2", threshold_graph(8, rng)),
                              ("theorem3", multipartite_pairs(8, rng))):
        for label, rows in (("random", gnp_half(8, rng)), ("free", relabel(free_rows, rng))):
            name = f"recognize-{family}-{label}"
            path = f"{name}.el"
            batch.add(name, ("recognize", path, "--family", family, "--hereditary-direct"),
                      "recognize", {"rows": rows, "family": family},
                      {path: edge_list_text(rows)})
    for t in range(1, 5):
        name = f"structure-{t}C4"
        path = f"{name}.el"
        rows = relabel(disjoint_c4s(t), rng)
        batch.add(name, ("structure", path), "structure", {"rows": rows, "copies": t},
                  {path: edge_list_text(rows)})
    return batch


WORKLOADS = {"sparse-roman": sparse_roman, "dense-rainbow": dense_rainbow,
             "catalogue": catalogue}


def build(workload: str, seed: int, pins: dict) -> Batch:
    """The workload's batch; its files include the set-up job's K1."""
    batch = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), pins)
    batch.files["k1.el"] = "1 0\n"
    return batch
