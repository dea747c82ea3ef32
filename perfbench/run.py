"""Benchmark for scotsim: one workload per process, or everything.

    python3 perfbench/run.py --workload soundness --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

A single-workload run sets up the workload (timed, and timed again in
four fresh processes, back to back), then runs a fixed number of rounds
of its fixed-size body, ``--seconds`` over the workload's typical round
time, each round with inputs drawn from ``(seed, round)``.  Every result
is checked.  It prints each metric with its unit and, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run does each round twice on the
same inputs, untraced and traced, in alternating order, so
``trace_overhead`` compares like with like.  Results, with provenance,
go to ``perfbench/out/``.

Without ``--workload`` every workload runs in its own fresh process,
once untraced and twice traced at the same seed, and the exact work
counts of the two traced runs are compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The keys of ``workloads.WORKLOADS``, which cannot be imported before
# set-up is timed because it imports scotsim.
WORKLOAD_NAMES = ("soundness", "honest", "lemmas")
# One BLAS thread: never more than nproc, and steadier on a shared machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-ups timed per untraced run: the run's own and the rest in fresh
# processes; setup_s is their median.
SETUP_RUNS = 5
MIN_ROUNDS = 3


def _setup(name: str, seed: int, rec, workdir: str):
    """Import the library and build the workload: (workload, checks, seconds)."""
    start = time.perf_counter()
    import workloads

    checks = workloads.Checks()
    workload = workloads.WORKLOADS[name](seed, rec, checks, workdir)
    return workload, checks, time.perf_counter() - start


def _probe_setup(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (FileNotFoundError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "wait_metrics": "none: one thread, no queues, so no layer waits on another",
    }


def rounds_for(workload, seconds: float) -> int:
    """Rounds in one run.  They depend on ``--seconds`` alone, never on
    how fast the code runs, so two runs at one seed do the same work."""
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def _timed_round(workload, rec, k: int, traced: bool) -> float:
    if traced:
        rec.start_trace()
    t0 = time.perf_counter()
    try:
        workload.round(k)
    finally:
        wall = time.perf_counter() - t0
        if traced:
            rec.stop_trace()
    return wall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from metrics import END_TO_END, EXACT_COUNTS, LayerStats, end_to_end, layer_metrics
    from recorder import Recorder, median, summarise

    rec = Recorder()
    walls, traced_walls, exact = [], [], []
    layers = LayerStats()
    first_spans = None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload, checks, setup_s = _setup(name, seed, rec, workdir)
        # The run's own set-up and more in fresh processes, back to back.
        setups = [setup_s]
        if not trace:
            setups += [_probe_setup(name, seed) for _ in range(SETUP_RUNS - 1)]
        rounds = rounds_for(workload, seconds)
        for k in range(rounds):
            if not trace:
                walls.append(_timed_round(workload, rec, k, False))
                continue
            # Round k untraced and traced on the same inputs; which goes
            # first alternates, so warm caches favour neither.
            if k % 2:
                traced_walls.append(_timed_round(workload, rec, k, True))
                walls.append(_timed_round(workload, rec, k, False))
            else:
                walls.append(_timed_round(workload, rec, k, False))
                traced_walls.append(_timed_round(workload, rec, k, True))
            # The spans and counters are those of the traced run of round k.
            stats = summarise(rec.spans, rec.unit_keys)
            one = LayerStats()
            one.add_round(stats, rec.counters)
            exact.append({n: layer_metrics(one, {})[0][n][0] for n in EXACT_COUNTS})
            layers.add_round(stats, rec.counters)
            if first_spans is None:
                first_spans = (rec.spans, rec.unit_keys)

    result = {
        "workload": name,
        "trace": int(trace),
        "rounds": rounds,
        "provenance": provenance(seed),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "min_audit_pvalue": checks.min_pvalue,
        "round_wall_s": walls,
        "setup_samples_s": setups,
    }
    if trace:
        values, hi_detail = layer_metrics(layers, getattr(workload, "cold_ms", {}))
        metrics = {n: {"value": v, "unit": u} for n, (v, u, _b) in values.items()}
        ratios = [t / u for t, u in zip(traced_walls, walls)]
        # Traced wall_s over untraced wall_s, over the same rounds.
        metrics["trace_overhead"] = {"value": sum(traced_walls) / sum(walls), "unit": "ratio"}
        # Resolved when three quarters of the rounds agree on the sign of
        # the overhead; otherwise it is lost in round-to-round noise.
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        result["trace_overhead_resolved"] = q1 > 1.0 or q3 < 1.0
        result["traced_round_wall_s"] = traced_walls
        result["ms_hi_detail"] = hi_detail
        # Round 0's inputs depend only on the seed, so its counts are the
        # ones that must repeat between two runs at one seed.
        result["exact_counts"] = exact[0]
        result["exact_counts_same_every_round"] = all(e == exact[0] for e in exact)
        _write_spans(name, seed, *first_spans)
    else:
        values = {
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **end_to_end(workload, rec.groups, walls),
        }
        units = {n: u for n, u, *_ in END_TO_END}
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
        result["named_rates"] = {
            n: {"value": v, "unit": "1/s"} for n, v in values.items() if n not in units
        }
        result["groups"] = {
            "/".join(key): {"units": len(g.seconds), "count": g.count,
                            "seconds": sum(g.seconds), "median_s": median(g.seconds)}
            for key, g in rec.groups.items()
        }
    result["metrics"] = metrics
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def _write_spans(name: str, seed: int, spans: list, unit_keys: list) -> None:
    """Spans of the first traced round: name index, start/end (µs from the
    round's start), parent span, unit id; plus each unit's (kind, size)."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((s[1] for s in spans), default=0.0)
    rows = [[index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), p, u]
            for n, a, b, p, u in spans]
    with open(OUT / f"{name}-seed{seed}-spans.json", "w") as fh:
        json.dump({"names": names, "units": unit_keys,
                   "columns": ["name", "start_us", "end_us", "parent", "unit"],
                   "spans": rows}, fh, separators=(",", ":"))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_result(result: dict) -> None:
    print(f"# {result['workload']} trace={result['trace']} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"{name:55s} {_fmt(m['value']):>14s} {m['unit']}")
    for name, m in result.get("named_rates", {}).items():
        print(f"{name:55s} {_fmt(m['value']):>14s} {m['unit']}")
    if "trace_overhead_resolved" in result:
        print(f"# trace_overhead resolved from round-to-round noise: "
              f"{result['trace_overhead_resolved']}")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    """Every workload in fresh processes: untraced once, traced twice."""
    summary = {}
    ok = True
    for name in WORKLOAD_NAMES:
        runs = []
        for trace in (0, 1, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited with {proc.returncode}")
                ok = False
                continue
            with open(OUT / f"{name}-seed{seed}-trace{trace}.json") as fh:
                runs.append(json.load(fh))
            print_result(runs[-1])
        traced = [r for r in runs if r["trace"]]
        repeat = len(traced) == 2 and traced[0]["exact_counts"] == traced[1]["exact_counts"]
        print(f"# {name}: exact counts repeat across two traced runs at seed {seed}: {repeat}")
        ok = ok and repeat and all(r["failed"] == 0 for r in runs)
        summary[name] = {"runs": runs, "exact_counts_repeat_across_runs": repeat}
    with open(OUT / f"summary-seed{seed}.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    where = (OUT / f"summary-seed{seed}.json").relative_to(ROOT)
    print(f"# all workloads {'clean' if ok else 'FAILED'}; summary in {where}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "scotsim" / "__init__.py").is_file():
        print(f"no scotsim sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.probe_setup:
        from recorder import Recorder

        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            seconds = _setup(args.workload, args.seed, Recorder(), workdir)[2]
        print(json.dumps({"setup_s": seconds}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
