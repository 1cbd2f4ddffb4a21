"""Host-time benchmark of the simulator.

The system under test is the discrete-event simulator in ``src/repro``;
its users reproduce the paper's figures and pay host time and memory per
simulation point.  One process drives the load as a closed loop with one
client: each simulation point starts when the previous one has ended.
The simulated results are the output check, never a metric: for a fixed
seed they must be byte-identical.  The repository holds no numeric
reference for the simulated model (only the shape claims of
``benchmarks/test_fig*.py``), so no accuracy figure is reported.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--workload`` is ``chain``, ``db``, ``contended``, ``grid`` (see
``points.py``) or ``all``, which runs each of them in turn in a fresh
process and prints one table.

With ``--trace 0`` the workload's points run in passes for ``--seconds``
(at least three passes).  Each point's times are the median over the
passes, and the end-to-end metrics sum them over the points:

* ``wall_s``: host seconds of one pass, import of the simulator included;
* ``setup_s``: importing the simulator plus building and loading every
  point's cluster;
* ``txns_per_s``: simulated transactions completed (committed + aborted)
  per host second of the simulation phase only;
* ``peak_rss_mb``: peak resident memory of the process.

A point fails when it raises, hits its ``max_sim_time`` wall, misses its
measure target, breaks a chaos invariant or serializability, differs from
the program's pin, or yields a simulated-output digest that differs from
another pass or from an earlier run of the same code at the same seed
(kept under ``.perfbench_state/``).  ``fail_ratio`` is failed point runs
over point runs attempted.

With ``--trace 1`` the workload runs one pass untraced and one pass under
``cProfile``; ``layers.py`` turns the traced pass into per-layer self time
and counts, and ``trace.overhead`` is the traced over the untraced wall.
``--seconds`` does not apply.  The profile stays in memory until the run
ends, then goes to ``.perfbench_state/<workload>-seed<n>-trace.prof``.

Before each run a frozen pure-Python loop is timed; its ``calibration_s``
is printed beside the metrics, ungated, to normalise across hosts.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
WORKLOADS = ("chain", "db", "contended", "grid")
#: Passes per untraced run, at the least: each point's times are the
#: median over passes, which needs three to drop one slow outlier.
MIN_PASSES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "txns_per_s": "1/s",
              "peak_rss_mb": "MB"}

perf_counter = time.perf_counter


def calibrate(rounds: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop.  Frozen: do not edit."""
    times = []
    for _ in range(rounds):
        start = perf_counter()
        acc, table = 0, {}
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        times.append(perf_counter() - start)
    return statistics.median(times)


def code_hash() -> str:
    """Digest of the simulator and benchmark sources, keying stored results."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_against_store(key: str, observed: dict) -> list[str]:
    """Compare with the results stored by earlier runs; store new ones.

    ``observed`` maps a name to a value that must repeat exactly across
    runs of the same code at the same seed.  Returns the names that
    differ from what an earlier run stored.
    """
    path = STATE / code_hash() / f"{key}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    differ = [name for name, value in observed.items()
              if name in stored and stored[name] != value]
    stored.update({k: v for k, v in observed.items() if k not in stored})
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return differ


def run_pass(points, seed: int, run_one, counters=None, profile=None):
    """Run every point once; return their ``PointRun`` records."""
    runs = []
    for point in points:
        gc.collect()
        if profile is not None:
            with profile:
                run = run_one(point, seed)
        else:
            run = run_one(point, seed)
        run.counts = counters.take(run) if counters is not None else {}
        run.system = None
        runs.append(run)
    return runs


def mark_repeats(passes: list, store_key: str, counts: bool) -> None:
    """Fail point runs whose digest (or counts) differ between passes/runs."""
    first = passes[0]
    for runs in passes[1:]:
        for ref, run in zip(first, runs):
            if run.failure is None and run.digest != ref.digest:
                run.failure = "digest differs between passes"
            elif run.failure is None and counts and run.counts != ref.counts:
                run.failure = f"counts differ between passes: {run.counts}"
    observed = {f"digest:{r.label}": r.digest for r in first}
    if counts:
        observed.update({f"counts:{r.label}": r.counts for r in first})
    for name in check_against_store(store_key, observed):
        what, _, label = name.partition(":")
        for run in first:
            if run.label == label and run.failure is None:
                run.failure = f"{what} differs from an earlier run " \
                              "at this seed"


def untraced(points, args, run_one, import_s: float):
    passes, start = [], perf_counter()
    while True:
        passes.append(run_pass(points, args.seed, run_one))
        elapsed = perf_counter() - start
        pass_s = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + pass_s / 2 > args.seconds:
            break
    mark_repeats(passes, f"{args.workload}-seed{args.seed}", counts=False)

    def total(phase):
        """Sum over points of the point's median over passes."""
        return sum(statistics.median(phase(p[i]) for p in passes)
                   for i in range(len(points)))

    metrics = {
        "wall_s": import_s + total(lambda r: r.wall_s),
        "setup_s": import_s + total(lambda r: r.setup_s),
        "txns_per_s": sum(r.txns for r in passes[0])
        / max(total(lambda r: r.sim_s), 1e-9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    info = {"passes": len(passes),
            "pass_wall_s": [round(import_s + sum(r.wall_s for r in p), 4)
                            for p in passes]}
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def traced(points, args, run_one):
    import layers
    with layers.Counters() as counters:
        plain = run_pass(points, args.seed, run_one, counters)
        profile = layers.Profile()
        traced_runs = run_pass(points, args.seed, run_one, counters, profile)
    passes = [plain, traced_runs]
    key = f"{args.workload}-seed{args.seed}-trace"
    mark_repeats(passes, key, counts=True)
    self_s, calls = profile.layers()
    if check_against_store(key, {"calls:": calls}) and \
            traced_runs[0].failure is None:
        traced_runs[0].failure = "call counts differ from an earlier run " \
                                 "at this seed"
    profile.dump(STATE / f"{key}.prof")
    metrics = {f"{layer}.self_s": (t, "s") for layer, t in self_s.items()}
    metrics.update({name: (n, "count") for name, n in calls.items()})
    totals: dict = {}
    for run in plain:
        for name, n in run.counts.items():
            totals[name] = totals.get(name, 0) + n
    committed, aborted = totals.pop("committed"), totals.pop("aborted")
    metrics.update({name: (n, "count") for name, n in totals.items()})
    metrics["concurrency.abort_ratio"] = (
        aborted / (committed + aborted) if committed + aborted else 0.0,
        "ratio")
    untraced_wall = sum(r.wall_s for r in plain)
    traced_wall = sum(r.wall_s for r in traced_runs)
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    info = {"untraced_wall_s": round(untraced_wall, 4),
            "traced_wall_s": round(traced_wall, 4)}
    return passes, metrics, info


def run_workload(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    calibration_s = calibrate()
    start = perf_counter()
    import points
    import_s = perf_counter() - start
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    points.install_clock()

    workload = points.points_for(args.workload, args.seed)
    if args.trace:
        passes, metrics, info = traced(workload, args, points.run_one)
    else:
        passes, metrics, info = untraced(workload, args, points.run_one,
                                         import_s)
    runs = [run for p in passes for run in p]
    failed = [run for run in runs if run.failure is not None]
    for run in failed:
        print(f"perfbench: point {run.label} failed: {run.failure}",
              file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"points {len(workload)}  import_s {import_s:.4f}  "
          f"calibration_s {calibration_s:.4f} (ungated)  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    print(f"  {'fail_ratio':28s} {len(failed) / len(runs):16.6f} ratio "
          f"({len(failed)} of {len(runs)} point runs)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
