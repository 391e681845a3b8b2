"""Regenerate pinned.json: dense-graph values, scan digests and cycle labelings.

    python3 perfbench/pin.py [scan] [dense] [cycles]

With no section named it regenerates all three; otherwise only those
named, keeping the others from the current file.

The answers come from the package under test, so run this only on a
commit whose outputs are trusted; the benchmark then holds every later
commit to them.  Dense graphs are G(n, 1/2) for n = 28-32, kept when their
solve time falls in a window and split into cost strata; a workload run
takes one graph from each stratum, so every seed costs about the same.
The rainbow search's node count on a relabelled cycle ranges over more
than an order of magnitude with the labels, so for each cycle order the
labelings kept are the middle ones of a sorted sample; the cycles'
values still come from closed forms, not from here.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

import tracing
from graphs import cycle, gnp_half, relabel

HERE = Path(__file__).resolve().parent
ORDERS = range(28, 33)
INDICES = range(16)
WINDOW_S = (0.15, 0.45)  # solve time, measured on the machine that pins
STRATA = 8
CYCLES = {"orders": range(20, 25), "labelings": 64, "keep": 16}
SCAN = {"max_order": 6, "order": 10, "count": 20, "jobs": 3, "seeds": range(1, 17)}


def _dense(pkg) -> dict:
    kept = []
    for n in ORDERS:
        for index in INDICES:
            g = pkg.Graph(n, tuple(gnp_half(n, random.Random(f"dense:{n}:{index}"))))
            times = []
            for _ in range(3):
                start = time.perf_counter()
                r2 = pkg.gamma_r2(g)
                times.append(time.perf_counter() - start)
                if times[0] > 2 * WINDOW_S[1]:
                    break
            seconds = statistics.median(times)
            print(f"n={n} index={index} gamma_r2={r2.value} nodes={r2.nodes} "
                  f"{seconds:.3f}s", file=sys.stderr)
            if WINDOW_S[0] <= seconds <= WINDOW_S[1]:
                kept.append({"n": n, "index": index, "gamma_r2": r2.value,
                             "gamma_R": pkg.gamma_roman(g).value, "nodes": r2.nodes,
                             "seconds": round(seconds, 4)})
    kept.sort(key=lambda e: e["seconds"])
    size = len(kept) // STRATA
    return {"orders": [ORDERS.start, ORDERS.stop - 1], "indices": len(INDICES),
            "window_s": list(WINDOW_S),
            "strata": [kept[i * size:(i + 1) * size] for i in range(STRATA)]}


def _cycles(pkg) -> dict:
    kept = {}
    for n in CYCLES["orders"]:
        by_nodes = []
        for index in range(CYCLES["labelings"]):
            rows = relabel(cycle(n), random.Random(f"cycle:{n}:{index}"))
            nodes = pkg.gamma_r2(pkg.Graph(n, tuple(rows))).nodes
            by_nodes.append({"index": index, "nodes": nodes})
        by_nodes.sort(key=lambda e: (e["nodes"], e["index"]))
        first = (len(by_nodes) - CYCLES["keep"]) // 2
        kept[str(n)] = by_nodes[first:first + CYCLES["keep"]]
        print(f"C{n}: nodes {by_nodes[0]['nodes']}-{by_nodes[-1]['nodes']}, kept "
              f"{kept[str(n)][0]['nodes']}-{kept[str(n)][-1]['nodes']}", file=sys.stderr)
    return {"labelings": CYCLES["labelings"], "labelings_by_order": kept}


def _scan(replay) -> dict:
    digests = {}
    for seed in SCAN["seeds"]:
        code, out, _ = replay._call(["scan", "--max-order", str(SCAN["max_order"]), "--sample",
                                     f"{SCAN['order']},{SCAN['count']},{seed}"])
        if code != 0:
            raise RuntimeError(f"scan seed {seed} exited {code}")
        digests[str(seed)] = hashlib.sha256(out.encode()).hexdigest()
    return {k: v for k, v in SCAN.items() if k != "seeds"} | {"sha256": digests}


def main(argv: list[str]) -> int:
    sections = argv or ["scan", "dense", "cycles"]
    replay = tracing.Replay(str(HERE.parent / "src"))
    pkg = sys.modules[replay.package]
    makers = {"scan": lambda: _scan(replay), "dense": lambda: _dense(pkg),
              "cycles": lambda: _cycles(pkg)}
    path = HERE / "pinned.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    pins["generated_by"] = "python3 perfbench/pin.py"
    for section in sections:
        pins[section] = makers[section]()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
