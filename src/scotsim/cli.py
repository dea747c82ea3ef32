"""Command line interface.

Subcommands: ``run`` (execute one protocol instance and emit transcript
plus summary), ``bounds`` (sweep the closed-form bounds over a grid),
``attack`` (see-saw optimization of the cheating game with a soundness
report), ``verify`` (the numerical lemma battery).  Exit codes: 0 ok,
1 a run or check failed, 2 configuration problems, 3 scheduling
infeasibility, 4 capacity.

All JSON output is canonical (sorted keys, no spaces) so identical
invocations produce byte-identical files; the only nondeterministic
output field is the wall_time_ms column of run summaries.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import adversary, bounds, dqacm, minkowski, protocol, quantum
from .errors import CapacityError, ConfigError, SchedulingError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_SCHEDULING = 3
EXIT_CAPACITY = 4


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _default_thetas(m: int) -> tuple[float, ...]:
    return tuple(i * math.pi / m for i in range(1, m))


def _family_for(m: int, thetas) -> tuple[quantum.BasisFamily, tuple[float, ...]]:
    thetas = tuple(thetas) if thetas else _default_thetas(m)
    return quantum.planar_basis_family(m, thetas), thetas


def _bits(arr) -> str:
    return "".join(str(int(v)) for v in np.asarray(arr).reshape(-1))


def cmd_run(args) -> int:
    if args.c is not None and args.mode != "pcc":
        raise ConfigError(f"--c is for pcc only, not --mode {args.mode}")
    if args.layout:
        with open(args.layout) as fh:
            layout = minkowski.validate_layout(minkowski.layout_from_json(json.load(fh)))
    else:
        layout = protocol.standard_layout(args.m)
    thetas = tuple(args.theta) if args.theta else None
    config = protocol.scot_config(
        args.mode,
        args.m,
        args.n,
        layout=layout,
        thetas=thetas,
        flip_rate=args.flip_rate,
        gamma=args.gamma,
    )
    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    if args.mode == "psr":
        transcript = protocol.run_psr(config, args.b, rng)
        expected = transcript.extra["r"]
    else:
        x = rng.integers(0, 2, size=(args.m, args.n))
        if args.mode == "pqc":
            transcript = protocol.run_pqc(config, x, args.b, rng)
        else:
            transcript = protocol.run_pcc(config, x, args.b, rng, c=args.c)
        expected = x[args.b]
    wall_ms = (time.perf_counter() - start) * 1000.0
    ok, violations = protocol.verify_transcript(transcript)
    audit_msgs = len(protocol.receiver_to_sender_kinds(transcript))

    outdir = args.out or os.environ.get("SCOTSIM_OUTDIR", ".")
    os.makedirs(outdir, exist_ok=True)
    doc = protocol.transcript_to_json(transcript)
    doc["verified"] = ok
    doc["violations"] = violations
    with open(os.path.join(outdir, "transcript.json"), "w") as fh:
        fh.write(_canonical(doc))

    output = transcript.outputs[args.b]
    summary = {
        "mode": args.mode,
        "m": args.m,
        "n": args.n,
        "b": args.b,
        "c": transcript.extra.get("c", ""),
        "b_prime": transcript.extra.get("b_prime", ""),
        "seed": args.seed,
        "flip_rate": args.flip_rate,
        "gamma": args.gamma,
        "output": _bits(output),
        "expected": _bits(expected),
        "correct": bool(np.array_equal(output, expected)),
        "verified": ok,
        "n_messages": len(transcript.messages),
        "receiver_to_sender_messages": audit_msgs,
    }
    with open(os.path.join(outdir, "summary.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary) + ["wall_time_ms"])
        writer.writeheader()
        writer.writerow({**summary, "wall_time_ms": f"{wall_ms:.3f}"})
    sys.stdout.write(_canonical(summary))
    if not ok:
        sys.stderr.write(f"transcript verification failed: {violations}\n")
        return EXIT_FAILED
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.theta and len(args.m) != 1:
        raise ConfigError("--theta requires exactly one --m value")
    rows = []
    for m in args.m:
        family, thetas = _family_for(m, args.theta)
        lam = quantum.overlap_lambda(family)
        for n in args.n:
            for gamma in args.gamma:
                rep = bounds.bound_report(m, n, lam, gamma)
                rows.append(
                    {
                        "m": m,
                        "n": n,
                        "theta": " ".join(f"{t:.12g}" for t in thetas),
                        "lam": f"{lam:.17g}",
                        "gamma": f"{gamma:.17g}",
                        "epsilon_exact": f"{rep.epsilon_exact:.17g}",
                        "epsilon_gamma": f"{rep.epsilon_gamma:.17g}",
                        "gamma_threshold": f"{rep.gamma_threshold:.17g}",
                    }
                )
    if args.format == "json":
        text = "".join(_canonical(row) for row in rows)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _attack_restart(params: tuple) -> dict:
    (m, n, thetas, targets, ancilla_dim, iterations, seed, gamma) = params
    family = quantum.planar_basis_family(m, thetas)
    config = dqacm.DqacmConfig(m, n, family)
    result = adversary.seesaw_optimize(
        config, targets, ancilla_dim=ancilla_dim, iterations=iterations, seed=seed
    )
    out = {
        "seed": seed,
        "p_exact": result.p_exact,
        "converged": result.converged,
        "iterations_used": len(result.trace) - 1,
        "strategy_hash": adversary.strategy_hash(result.strategy),
        "trace": [float(v) for v in result.trace],
    }
    if gamma is not None:
        out["p_gamma"] = adversary.cheat_probability_gamma(config, result.strategy, gamma)
    return out


def _require_positive(args, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")


def cmd_attack(args) -> int:
    _require_positive(args, "--restarts", "--workers", "--ancilla-dim", "--iterations")
    m, n = args.m, args.n
    _family, thetas = _family_for(m, args.theta)
    lam = quantum.overlap_lambda(_family)
    targets = tuple(args.targets)
    params = [
        (m, n, thetas, targets, args.ancilla_dim, args.iterations, args.seed + k, args.gamma)
        for k in range(args.restarts)
    ]
    workers = min(args.workers, args.restarts)
    if workers > 1:
        # Imported here: concurrent.futures.process pulls in multiprocessing,
        # which a serial attack and every other command do without.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            restarts = list(pool.map(_attack_restart, params))
    else:
        restarts = [_attack_restart(p) for p in params]
    best = max(restarts, key=lambda r: r["p_exact"])
    bound = bounds.epsilon_bob(m, lam, n)
    doc = {
        "m": m,
        "n": n,
        "theta": list(thetas),
        "lam": lam,
        "targets": list(targets),
        "ancilla_dim": args.ancilla_dim,
        "restarts": args.restarts,
        "base_seed": args.seed,
        "p_exact": best["p_exact"],
        "bound": bound,
        "margin": bound - best["p_exact"],
        "sound": best["p_exact"] <= bound + 1e-9,
        "strategy_hash": best["strategy_hash"],
        "converged": best["converged"],
        "trace": best["trace"],
        "all_restarts": [
            {k: r[k] for k in ("seed", "p_exact", "converged", "iterations_used")}
            for r in restarts
        ],
    }
    if args.gamma is not None:
        doc["gamma"] = args.gamma
        doc["p_gamma"] = best["p_gamma"]
        doc["bound_gamma"] = bounds.epsilon_bob_gamma(m, lam, n, args.gamma)
        doc["sound_gamma"] = best["p_gamma"] <= doc["bound_gamma"] + 1e-9
    text = _canonical(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _brute_weight_counts(m: int, n: int, l0: int, l1: int) -> dict[int, int]:
    perms = dqacm.enumerate_permutations(m)
    counts: dict[int, int] = {}
    for v in itertools.product(perms, repeat=n):
        w = sum(1 for vj in v if vj[l1] == l0)
        counts[w] = counts.get(w, 0) + 1
    return counts


def cmd_verify(args) -> int:
    _require_positive(args, "--draws", "--equiv-strategies", "--probes")
    rng = np.random.default_rng(args.seed)
    family, thetas = _family_for(args.m, args.theta)
    checks: list[tuple[str, bool, str]] = []

    for n in args.n:
        config = dqacm.DqacmConfig(args.m, n, family)
        perms = dqacm.enumerate_permutations(args.m)
        worst = 0.0
        all_ok = True
        n_out = 2**n
        for v in itertools.product(perms, repeat=n):
            for _ in range(args.draws):
                s = tuple(
                    tuple(int(p) for p in rng.permutation(args.m)) for _ in range(n)
                )
                meas0 = adversary.random_measurement(n_out, n_out, rng)
                meas1 = adversary.random_measurement(n_out, n_out, rng)
                res = adversary.verify_sandwich_norm(config, s, v, meas0, meas1)
                worst = max(worst, res.sandwich_norm - res.bound)
                all_ok = all_ok and res.ok
        checks.append(
            (f"sandwich-norm-bound m={args.m} n={n}", all_ok, f"max excess {worst:.3e}")
        )

    config1 = dqacm.DqacmConfig(args.m, 1, family)
    worst_tv = 0.0
    eq_ok = True
    for k in range(args.equiv_strategies):
        strat = adversary.random_branching_strategy(
            config1, (0, 1), ancilla_dim=2, rng=rng
        )
        res = adversary.verify_procedure_equivalence(config1, strat, seed=int(rng.integers(2**32)))
        worst_tv = max(worst_tv, res.max_tv)
        eq_ok = eq_ok and res.ok
    checks.append(
        ("procedure-equivalence m=%d n=1" % args.m, eq_ok, f"max tv {worst_tv:.3e}")
    )

    distinct_ok = True
    for n in args.n:
        perms = dqacm.enumerate_permutations(args.m)
        all_v = list(itertools.product(perms, repeat=n))
        for _ in range(args.probes):
            s = tuple(tuple(int(p) for p in rng.permutation(args.m)) for _ in range(n))
            seen = {adversary.compose_shuffles(s, v) for v in all_v}
            distinct_ok = distinct_ok and len(seen) == len(all_v)
    checks.append(("composed-shuffles-distinct", distinct_ok, ""))

    count_ok = True
    for n in args.n:
        brute = _brute_weight_counts(args.m, n, 0, 1)
        for w in range(n + 1):
            if brute.get(w, 0) != bounds.count_omega(args.m, n, w):
                count_ok = False
    checks.append(("weight-counting-identity", count_ok, ""))

    failed = False
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
        failed = failed or not ok
    return EXIT_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scotsim",
        description="Causal-region oblivious transfer: simulation, bounds, attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one protocol instance")
    p_run.add_argument("--mode", required=True, choices=protocol.MODES)
    p_run.add_argument("--m", type=int, default=2)
    p_run.add_argument("--n", type=int, default=8)
    p_run.add_argument("--b", type=int, required=True)
    p_run.add_argument("--gamma", type=float, default=0.0)
    p_run.add_argument("--flip-rate", type=float, default=0.0)
    p_run.add_argument("--layout", help="layout JSON file (default: standard layout)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--c", type=int, default=None,
                       help="override the committed basis choice (pcc only)")
    p_run.add_argument("--theta", type=float, nargs="+",
                       help="basis family angles (pcc only)")
    p_run.add_argument("--out", help="output directory (default $SCOTSIM_OUTDIR or .)")
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds", help="sweep the closed-form bounds")
    p_bounds.add_argument("--m", type=int, nargs="+", default=[2, 3])
    p_bounds.add_argument("--n", type=int, nargs="+", default=[1, 2, 4, 8])
    p_bounds.add_argument("--gamma", type=float, nargs="+", default=[0.0])
    p_bounds.add_argument("--theta", type=float, nargs="+")
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_attack = sub.add_parser("attack", help="see-saw cheating optimization")
    p_attack.add_argument("--m", type=int, default=2)
    p_attack.add_argument("--n", type=int, default=1)
    p_attack.add_argument("--theta", type=float, nargs="+")
    p_attack.add_argument("--targets", type=int, nargs=2, default=(0, 1))
    p_attack.add_argument("--gamma", type=float, default=None)
    p_attack.add_argument("--ancilla-dim", type=int, default=2)
    p_attack.add_argument("--restarts", type=int, default=20)
    p_attack.add_argument("--iterations", type=int, default=60)
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--workers", type=int, default=1)
    p_attack.add_argument("--out")
    p_attack.set_defaults(func=cmd_attack)

    p_verify = sub.add_parser("verify", help="numerical lemma battery")
    p_verify.add_argument("--m", type=int, default=2)
    p_verify.add_argument("--n", type=int, nargs="+", default=[1, 2])
    p_verify.add_argument("--theta", type=float, nargs="+")
    p_verify.add_argument("--draws", type=int, default=20)
    p_verify.add_argument("--equiv-strategies", type=int, default=10)
    p_verify.add_argument("--probes", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        sys.stderr.write(f"missing file: {exc}\n")
        return EXIT_CONFIG
    except SchedulingError as exc:
        sys.stderr.write(f"scheduling error: {exc}\n")
        return EXIT_SCHEDULING
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
