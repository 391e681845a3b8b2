"""Benchmark of the rainbowroman CLI: end to end, or traced by module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sparse-roman --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it times CLI jobs run as subprocesses, one at a time in
a closed loop from one client, and reports the end-to-end metrics in
reference seconds: each job's times are scaled by a fixed kernel
(kernel.py) run just before and just after it, which cancels the drift
of a shared machine's speed.  With ``--trace 1`` it replays the same jobs
in-process, traced, and reports the per-layer metrics.  Every output is
checked (see check.py).  The report goes to stdout; its last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_JOBS_FIRST = 3  # timed K1 jobs before the first round; one more opens each round
KERNEL = HERE / "kernel.py"
# the kernel time that defines a reference second: about the kernel's wall
# time on the 2-vCPU virtual machine that recorded the baseline in README.md,
# where it ranged from 27 to 45 ms; changing it rescales every end-to-end time
KERNEL_REFERENCE_S = 0.045
JOB_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 160.0  # the whole run, set-up and checks included
RESULTS_FILE_ONLY = ("job_wall_s", "job_cpu_s", "kernel_s")  # too long for the printed report


@dataclass
class JobResult:
    job: workloads.Job
    code: int
    stdout: str
    stderr: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    timed_out: bool = False

    def __post_init__(self) -> None:
        self.problem = check.check(self.job, self.stdout) if self.code == 0 else None


def run_job(job, workdir: Path, env: dict, timeout: float) -> JobResult:
    """One CLI job as a subprocess; wall time, and CPU and peak RSS from wait4."""
    argv = [sys.executable, "-m", "rainbowroman.cli", *job.args]
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        timed_out = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill() -> None:
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    return JobResult(job, proc.returncode, stdout, stderr, wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                     timed_out.is_set())


def kernel_sample(workdir: Path, env: dict) -> tuple[float, float]:
    """(wall, CPU) seconds of one run of the reference kernel as a subprocess."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-S", str(KERNEL)], cwd=workdir, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"reference kernel exited {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime


def tally(results: list[JobResult]) -> dict:
    failed = [r for r in results if r.code != 0]
    wrong = [r for r in results if r.problem]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "wrong": len(wrong),
        "exit2": sorted({r.job.name for r in failed if r.code == 2}),
        "timed_out": sorted({r.job.name for r in failed if r.timed_out}),
        "problems": sorted({f"{r.job.name}: {r.problem}" for r in wrong}
                           | {f"{r.job.name}: exit {r.code}: {r.stderr.strip()[-300:]}"
                              for r in failed}),
    }


def _another_round(began: float, started: float, seconds: float, deadline: float) -> bool:
    """Room for one more round like the last, within --seconds and the run deadline?"""
    now = time.monotonic()
    last = now - started
    return now - began + last <= seconds and now + last <= deadline


def end_to_end(batch, workdir: Path, seconds: float, deadline: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    k1 = workloads.SETUP_JOB

    def job(j) -> JobResult:
        return run_job(j, workdir, env, max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic())))

    def bracketed(jobs) -> list[tuple[JobResult, float, float]]:
        """The jobs with the reference kernel run before, between and after
        them; each result with its wall and CPU time in reference seconds.

        On a shared virtual machine every job's speed drifts together, by
        15% or more over minutes, and CPU time drifts with it.  Dividing a
        job's time by the mean of the kernel times just before and just
        after it, and multiplying by KERNEL_REFERENCE_S, cancels the drift;
        a job that gets faster or slower moves its scaled time by the same
        share.
        """
        before, out = kernel_sample(workdir, env), []
        for j in jobs:
            r = job(j)
            after = kernel_sample(workdir, env)
            out.append((r, r.wall * 2 * KERNEL_REFERENCE_S / (before[0] + after[0]),
                        r.cpu * 2 * KERNEL_REFERENCE_S / (before[1] + after[1])))
            kernel.append(before)
            before = after
        kernel.append(before)
        return out

    kernel = []
    warm_up = job(k1)  # bytecode cache and file cache
    setup = bracketed([k1] * SETUP_JOBS_FIRST)
    rounds = []
    began = time.monotonic()
    while True:
        started = time.monotonic()
        # one K1 job opens each round, so a slow spell moves few setup samples
        setup_job, *jobs = bracketed([k1, *batch.jobs])
        setup.append(setup_job)
        rounds.append(jobs)
        if not _another_round(began, started, seconds, deadline):
            break
    results = [warm_up] + [r for r, _, _ in setup] + [r for b in rounds for r, _, _ in b]

    def per_job(k: int) -> list[float]:
        # each job's median over the rounds: a slow spell of the machine that
        # hits a minority of rounds does not move it
        return [median([b[i][k] for b in rounds]) for i in range(len(batch.jobs))]

    job_walls, job_cpus = per_job(1), per_job(2)
    counts = tally(results)
    attempted = counts["attempted"]
    metrics = {
        "setup_s": (median([wall for _, wall, _ in setup]), "s", len(setup)),
        "wall_s": (sum(job_walls), "s", len(rounds)),
        "cpu_s": (sum(job_cpus), "s", len(rounds)),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB", len(results)),
        "failed_frac": (counts["failed"] / attempted, "ratio", attempted),
        "wrong_frac": (counts["wrong"] / attempted, "ratio", attempted),
    }
    kernel_walls = [wall for wall, _ in kernel]
    detail = {"unscaled": {
                  "setup_s": round(median([r.wall for r, _, _ in setup]), 4),
                  "wall_s": round(sum(median([b[i][0].wall for b in rounds])
                                      for i in range(len(batch.jobs))), 4),
                  "cpu_s": round(sum(median([b[i][0].cpu for b in rounds])
                                     for i in range(len(batch.jobs))), 4)},
              "kernel_wall_ms": {"median": round(1000 * median(kernel_walls), 3),
                                 "min": round(1000 * min(kernel_walls), 3),
                                 "max": round(1000 * max(kernel_walls), 3),
                                 "samples": len(kernel_walls)},
              "round_wall_s": [round(sum(r.wall for r, _, _ in b), 4) for b in rounds],
              "job_median_wall_ref_s": {j.name: round(w, 4)
                                        for j, w in zip(batch.jobs, job_walls)},
              "job_wall_s": [[round(r.wall, 4) for r, _, _ in b] for b in rounds],
              "job_cpu_s": [[round(r.cpu, 4) for r, _, _ in b] for b in rounds],
              "kernel_s": [[round(wall, 5), round(cpu, 5)] for wall, cpu in kernel],
              "setup_wall_s": [round(r.wall, 4) for r, _, _ in setup]}
    return metrics, counts, detail, []


def traced(batch, workdir: Path, seconds: float, deadline: float, dedup7: bool):
    """Untraced and traced in-process passes in pairs, at least two pairs."""
    replay = tracing.Replay(str(ROOT / "src"))
    results, untraced, traced_walls, self_times, dedup7_times, mismatches = [], [], [], [], [], []
    counts = caches = tracer = None
    began = time.monotonic()
    while True:
        started = time.monotonic()
        wall, res, plain_caches = replay.run_pass(batch.jobs, str(workdir), None)
        untraced.append(wall)
        results += [JobResult(*r) for r in res]
        tracer = tracing.Tracer(replay.package)
        tracer.install()
        try:
            wall, res, traced_caches = replay.run_pass(batch.jobs, str(workdir), tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        results += [JobResult(*r) for r in res]
        self_times.append(tracer.self_times())
        if counts is None:
            counts, caches = tracer.counts, plain_caches
        # counts are deterministic: any difference between passes is a fault
        if tracer.counts != counts:
            mismatches.append(f"pass {len(untraced)}: layer counts differ")
        if plain_caches != caches or traced_caches != caches:
            mismatches.append(f"pass {len(untraced)}: cache hits or misses differ")
        if dedup7:
            seconds_7, classes = replay.dedup7()
            dedup7_times.append(seconds_7)
            if classes != 1044:  # graphs on 7 vertices up to isomorphism (OEIS A000088)
                mismatches.append(f"pass {len(untraced)}: order-7 dedup gave {classes} classes")
        if len(untraced) >= 2 and not _another_round(began, started, seconds, deadline):
            break
    metrics = tracing.layer_metrics(self_times, counts, caches, replay.import_s,
                                    dedup7_times, untraced, traced_walls)
    job_counts = tally(results)
    job_counts["count_mismatches"] = mismatches
    job_counts["problems"] += mismatches
    detail = {"passes": len(untraced), "untraced_pass_s": untraced,
              "traced_pass_s": traced_walls, "counts": dict(counts),
              "cache_counts": dict(caches), "solver_self_share": tracing.solver_shares(metrics)}
    return ({name: (value, tracing.unit_of(name), len(traced_walls))
             for name, value in metrics.items()},
            job_counts, detail, tracer.spans)


def _machine() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():  # read directly: a git command would search parent directories
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    # a checkout without .git has no commit; the digest still names the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f"{path.relative_to(ROOT)}\n".encode() + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version, "commit": commit,
            "src_sha256": digest.hexdigest()}


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _report(header: dict, metrics: dict, counts: dict, detail: dict, units: dict) -> None:
    print(f"perfbench workload={header['workload']} seed={header['seed']} "
          f"trace={header['trace']} seconds={header['seconds']}")
    m = header["machine"]
    load = header["load_avg"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"commit={m['commit']} src={m['src_sha256'][:12]} load1 start={load['start'][0]:.2f} end={load['end'][0]:.2f}"
          f"{' OVERLOADED' if header['overloaded'] else ''}")
    print(f"inputs: {header['jobs']} jobs, sha256 {header['inputs_sha256']}")
    print(f"{'metric':<34} {'value':>14} {'unit':<6} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {units.get(name) or unit or '':<6} {samples}")
    print(f"jobs: attempted={counts['attempted']} failed={counts['failed']} "
          f"wrong={counts['wrong']} exit2={counts['exit2'] or 'none'}")
    for problem in counts["problems"][:20]:
        print(f"  problem: {problem}")
    for key, value in detail.items():
        if key not in RESULTS_FILE_ONLY:
            print(f"{key}: {json.dumps(value, sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    deadline = t0 + RUN_DEADLINE_S
    if not (ROOT / "src" / "rainbowroman" / "cli.py").is_file():
        print(f"perfbench: no rainbowroman sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = _load_json(ROOT / "BENCHMARK.json")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    batch = workloads.build(args.workload, args.seed, _load_json(HERE / "pinned.json"))

    load_start = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        for name, text in batch.files.items():
            (workdir / name).write_text(text)
        if args.trace:
            metrics, counts, detail, spans = traced(batch, workdir, args.seconds, deadline,
                                                    args.workload == "catalogue")
        else:
            metrics, counts, detail, spans = end_to_end(batch, workdir, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end = os.getloadavg()

    machine = _machine()
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine,
              "load_avg": {"start": load_start, "end": load_end},
              "overloaded": max(load_start[0], load_end[0]) > machine["nproc"],
              "jobs": len(batch.jobs), "inputs_sha256": batch.digest(),
              "elapsed_s": time.monotonic() - t0}
    _report(header, metrics, counts, detail, units)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(WORK / f"results-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**header, "metrics": {k: {"value": v, "unit": units.get(k) or u, "samples": s}
                                         for k, (v, u, s) in metrics.items()},
                   "jobs_summary": counts, **detail}, handle, indent=1, sort_keys=True)
    if spans:
        with open(WORK / f"spans-{stem}.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    correct = counts["wrong"] == 0 and counts["failed"] == 0 and not counts.get("count_mismatches")
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
