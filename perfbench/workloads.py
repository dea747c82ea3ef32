"""The benchmark's three workloads and the checks on their results.

Each workload is a closed loop with one caller.  Its constructor is the
set-up (families, configs, layouts and one cold public call each, which
fills the game cache, the geometry cache and ``slot_cdf``); ``round(k)``
is one fixed-size body of work whose inputs come from ``(seed, k)``.
Only public ``scotsim`` functions are called, always through their
module attribute so that the recorder's timing wrappers see them.

Why these workloads (kept in step with ``perfbench/README.md``):

* ``soundness`` -- a scaled-down soundness grid (criteria 3 and 4).
  ``adversary`` does almost all the work.  The m=3, n=2 point is
  dominated by numeric kernels and the small points by per-call Python
  overhead, so a batching change that helps one and hurts the other
  shows; sampling and the see-saw use the same kernels differently and
  are rated apart.
* ``honest`` -- honest protocol runs at n=1 (per-run scheduling cost)
  and n=64 (per-qubit cost), with verification, output checks, the
  obliviousness audit and a slice through the CLI.  ``adversary`` does
  nothing here.
* ``lemmas`` -- the ``scotsim verify`` battery and the ``bounds`` sweep
  through ``cli.main``.  The same ``adversary`` layer is used through
  dense projectors and ``spectral_norm`` instead of the grouped
  contraction, so a refactor made for the see-saw that slows these
  checks shows.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

from scotsim import adversary, bounds, cli, dqacm, protocol, quantum

TARGETS = (0, 1)
GAMMAS = (0.1, 0.25)
# A soundness value may exceed its closed-form cap by at most this much.
BOUND_TOL = 1e-9
# The audit itself rejects at p < 0.001.  Counting a failure only far
# below that keeps a change of draw order from failing by chance.
PVALUE_FLOOR = 1e-9
# A see-saw iteration that raises p by more than this was productive.
PRODUCTIVE_GAIN = 1e-9


class Checks:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.min_pvalue = 1.0

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def bound_problems(values, caps) -> list[str]:
    """Values above their caps by more than ``BOUND_TOL``."""
    return [
        f"value {p:.12f} above bound {cap:.12f}"
        for p, cap in zip(values, caps)
        if not p <= cap + BOUND_TOL
    ]


def run_problems(transcript, expected) -> list[str]:
    """An honest run must verify and output the expected string."""
    out = []
    ok, violations = protocol.verify_transcript(transcript)
    if not ok:
        out.append(f"transcript not verified: {violations[:2]}")
    if not np.array_equal(transcript.outputs[transcript.b], expected):
        out.append("output differs from the expected string")
    return out


def audit_problems(result) -> list[str]:
    out = []
    if result.bob_to_alice:
        out.append(f"{result.bob_to_alice} receiver-to-sender messages")
    for row in result.chi2_rows:
        if row["pvalue"] < PVALUE_FLOOR:
            out.append(f"announced shift not uniform: p={row['pvalue']:.3g} at m={row['m']} b={row['b']}")
    return out


def verify_problems(rc: int, text: str) -> list[str]:
    """``scotsim verify`` must exit 0 and print only PASS lines."""
    lines = text.splitlines()
    out = [f"exit code {rc}"] if rc != 0 else []
    if not lines:
        out.append("no output")
    out += [line for line in lines if not line.startswith("PASS")]
    return out


def bounds_problems(rc: int, text: str) -> list[str]:
    """The sweep must exit 0 with caps in (0, 1], falling in n, gamma caps above."""
    if rc != 0:
        return [f"exit code {rc}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["no rows"]
    out = []
    last: dict[tuple, float] = {}
    for row in rows:
        eps, eps_g = float(row["epsilon_exact"]), float(row["epsilon_gamma"])
        key = (row["m"], row["gamma"])
        if not (0.0 < eps <= 1.0 and eps <= eps_g + 1e-15):
            out.append(f"bad caps {row}")
        if key in last and not eps < last[key]:
            out.append(f"cap does not fall with n: {row}")
        last[key] = eps
    return out


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _seed(*parts: int) -> int:
    return int(np.random.default_rng(list(parts)).integers(2**31))


# The acceptance grid's points: (label, m, n, thetas).
GRID = [
    (label, m, n, thetas)
    for n in (1, 2)
    for label, m, thetas in (
        ("m2 planar(pi/3)", 2, (math.pi / 3,)),
        ("m2 planar(pi/2)", 2, (math.pi / 2,)),
        ("m2 equal-spaced", 2, (math.pi / 2,)),
        ("m3 equal-spaced", 3, (math.pi / 3, 2 * math.pi / 3)),
    )
]


class Soundness:
    """Random strategies and see-saw restarts at every grid point."""

    name = "soundness"
    # Typical wall time of one round on the reference machine; it sets
    # how many rounds a run does (``run.rounds_for``).
    round_s = 5.0
    # kind -> {metric size name: unit size class}
    classes = {"strategy": {"large": "m3n2", "small": "small"},
               "seesaw": {"large": "m3n2", "small": "small"}}
    main, side = "strategy", "seesaw"
    named = {
        "strategies_per_s.m3n2": [("strategy", "m3n2")],
        "strategies_per_s.small": [("strategy", "small")],
        "seesaw_iters_per_s.m3n2": [("seesaw", "m3n2")],
        "seesaw_iters_per_s.small": [("seesaw", "small")],
    }
    # Draws per point and round.  A draw's cost depends on its random
    # branch split, so the m=3, n=2 rate varies with the mix of splits a
    # seed draws.
    draws = {"m3n2": 9, "small": 10}
    # One see-saw restart per point and round.  The early stop is disabled
    # (tol < 0), so every restart runs its full budget and the work per
    # round does not depend on the seed.
    iterations = {"m3n2": 2, "small": 10}

    def __init__(self, seed: int, rec, checks: Checks, workdir: str) -> None:
        self.seed, self.rec, self.checks = seed, rec, checks
        # Cold-call time per size class: where the game build shows.
        self.cold_ms = {"m3n2": 0.0, "small": 0.0}
        self.points = []
        for label, m, n, thetas in GRID:
            family = quantum.planar_basis_family(m, thetas)
            lam = quantum.overlap_lambda(family)
            config = dqacm.DqacmConfig(m=m, n=n, family=family)
            size = "m3n2" if (m, n) == (3, 2) else "small"
            start = time.perf_counter()
            strat = adversary.honest_single_branch_strategy(config, TARGETS)
            p = adversary.cheat_probability_exact(config, strat)
            self.cold_ms[size] += (time.perf_counter() - start) * 1e3
            want = config.l ** (-n)
            checks.record(
                [] if abs(p - want) <= 1e-12 else [f"honest single branch scored {p!r}, not {want!r}"],
                f"warm-up {label} n={n}",
            )
            caps = [bounds.epsilon_bob(m, lam, n)] + [
                bounds.epsilon_bob_gamma(m, lam, n, g) for g in GAMMAS
            ]
            self.points.append((f"{label} n={n}", config, size, caps))

    def round(self, k: int) -> None:
        rec, checks = self.rec, self.checks
        for idx, (label, config, size, caps) in enumerate(self.points):
            rng = np.random.default_rng([self.seed, k, idx])
            for _ in range(self.draws[size]):
                with rec.unit("strategy", size) as unit:
                    strat = adversary.random_strategy(config, TARGETS, rng=rng)
                    values = [adversary.cheat_probability_exact(config, strat)] + [
                        adversary.cheat_probability_gamma(config, strat, g) for g in GAMMAS
                    ]
                    # (m, n) and the branch split set the cost of a draw;
                    # the basis angles do not.
                    unit.key = ("strategy", size, f"m={config.m} n={config.n} d0={strat.d0}")
                checks.record(bound_problems(values, caps), f"random strategy {label}")
            with rec.unit("seesaw", size, f"m={config.m} n={config.n}") as unit:
                res = adversary.seesaw_optimize(
                    config, TARGETS, iterations=self.iterations[size],
                    seed=int(rng.integers(2**31)), tol=-1.0,
                )
                unit.count = len(res.trace) - 1
            with rec.unit("score", size, f"m={config.m} n={config.n}", count=0):
                values = [res.p_exact] + [
                    adversary.cheat_probability_gamma(config, res.strategy, g) for g in GAMMAS
                ]
            checks.record(bound_problems(values, caps), f"see-saw {label}")
            gains = np.diff(res.trace)
            rec.count(f"seesaw.iters.{size}", len(gains))
            rec.count(f"seesaw.productive.{size}", int(np.sum(gains > PRODUCTIVE_GAIN)))


class Honest:
    """Honest psr/pqc/pcc runs at n=1 and n=64 for every m and b."""

    name = "honest"
    # Typical wall time of one round on the reference machine; it sets
    # how many rounds a run does (``run.rounds_for``).
    round_s = 2.0
    classes = {"bb84": {"large": "n64", "small": "n1"},
               "pcc": {"large": "n64", "small": "n1"}}
    main, side = "bb84", "pcc"
    named = {
        "runs_per_s.n1": [("bb84", "n1"), ("pcc", "n1")],
        "runs_per_s.n64": [("bb84", "n64"), ("pcc", "n64")],
    }
    ns = {"n1": 1, "n64": 64}
    # Runs per (mode, m) per round: multiples of 6, so every b of m=2
    # and m=3 gets the same share.
    runs = {"n1": 300, "n64": 30}
    # n=64 pcc runs per m per round that go through ``scotsim run``.
    cli_runs = 2

    def __init__(self, seed: int, rec, checks: Checks, workdir: str) -> None:
        self.seed, self.rec, self.checks, self.workdir = seed, rec, checks, workdir
        layouts = {m: protocol.standard_layout(m) for m in (2, 3)}
        self.configs = {}
        rng = np.random.default_rng([seed, 2**20])
        for size, n in self.ns.items():
            for mode in protocol.MODES:
                for m in (2, 3):
                    config = protocol.scot_config(mode, m, n, layout=layouts[m])
                    self.configs[(size, mode, m)] = config
                    transcript, expected = self._run(config, 0, rng)
                    checks.record(run_problems(transcript, expected), f"warm-up {mode} m={m} n={n}")

    @staticmethod
    def _run(config, b: int, rng):
        if config.mode == "psr":
            t = protocol.run_psr(config, b, rng)
            return t, t.extra["r"]
        x = rng.integers(0, 2, size=(config.m, config.n))
        run = protocol.run_pqc if config.mode == "pqc" else protocol.run_pcc
        return run(config, x, b, rng), x[b]

    def round(self, k: int) -> None:
        rec, checks = self.rec, self.checks
        for (size, mode, m), config in self.configs.items():
            kind = "pcc" if mode == "pcc" else "bb84"
            rng = np.random.default_rng([self.seed, k, self.ns[size], m, protocol.MODES.index(mode)])
            pile = []
            for j in range(self.runs[size]):
                with rec.unit(kind, size, f"{mode} m={m} b={j % m}"):
                    transcript, expected = self._run(config, j % m, rng)
                    problems = run_problems(transcript, expected)
                checks.record(problems, f"{mode} m={m} n={config.n}")
                pile.append(transcript)
            if m == 3 and size == "n1":
                rec.count(f"binds.{mode}", 2 * len(transcript.messages) + len(transcript.local_ops))
            with rec.unit(kind, size, f"audit {mode} m={m}", count=0):
                audit = protocol.obliviousness_audit(pile)
            checks.record(audit_problems(audit), f"audit {mode} m={m} n={config.n}")
            for row in audit.chi2_rows:
                checks.min_pvalue = min(checks.min_pvalue, row["pvalue"])
        for m in (2, 3):
            for j in range(self.cli_runs):
                argv = ["run", "--mode", "pcc", "--m", str(m), "--n", "64", "--b", str(j % m),
                        "--seed", str(_seed(self.seed, k, m, j)), "--out", self.workdir]
                with rec.unit("pcc", "n64", f"cli m={m} b={j % m}"):
                    rc, text = call_cli(argv)
                    problems = self._cli_run_problems(rc, text)
                checks.record(problems, "scotsim " + " ".join(argv[:-2]))

    def _cli_run_problems(self, rc: int, text: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        summary = json.loads(text)
        with open(os.path.join(self.workdir, "transcript.json")) as fh:
            doc = json.load(fh)
        out = []
        if not (summary["correct"] and summary["verified"] and doc["verified"]):
            out.append(f"summary {summary}")
        written = "".join(str(v) for v in doc["outputs"][str(summary["b"])])
        if written != summary["expected"]:
            out.append("transcript output differs from the expected string")
        return out


class Lemmas:
    """``scotsim verify`` at m=2 (n 1 2) and m=3 (n 1), a wider m=2, n=1
    battery, and ``scotsim bounds``."""

    name = "lemmas"
    # Typical wall time of one round on the reference machine; it sets
    # how many rounds a run does (``run.rounds_for``).
    round_s = 5.0
    classes = {"norm": {"large": "n2", "small": "n1"},
               "equiv": {"large": "m3", "small": "m2"}}
    main, side = "norm", "equiv"
    named = {
        "norm_checks_per_s": [("norm", "n1"), ("norm", "n2")],
        "equiv_checks_per_s": [("equiv", "m2"), ("equiv", "m3")],
    }
    # The two default batteries spend under a tenth of a second per round
    # on the n=1 sandwich-norm and m=2 equivalence checks, too short a
    # window to time them steadily on a shared machine; a wider m=2, n=1
    # battery gives those rates about half a second a round.
    verify_argvs = (
        ["verify", "--n", "1", "--draws", "200", "--equiv-strategies", "40"],
        ["verify"],
        ["verify", "--m", "3", "--n", "1"],
    )

    def __init__(self, seed: int, rec, checks: Checks, workdir: str) -> None:
        self.seed, self.rec, self.checks = seed, rec, checks
        rng = np.random.default_rng([seed, 2**20])
        for m, n in ((2, 1), (2, 2), (3, 1)):
            family = quantum.planar_basis_family(m, [i * math.pi / m for i in range(1, m)])
            config = dqacm.DqacmConfig(m=m, n=n, family=family)
            perm = tuple(tuple(int(p) for p in rng.permutation(m)) for _ in range(n))
            meas = [adversary.random_measurement(2**n, 2**n, rng) for _ in range(2)]
            res = adversary.verify_sandwich_norm(config, perm, perm, *meas)
            checks.record([] if res.ok else [f"{res}"], f"warm-up sandwich norm m={m} n={n}")

    def _as_unit(self, kind: str, size_of):
        """Wrap a check function so that each call is one unit."""
        rec = self.rec

        def wrap(fn):
            def timed(config, *args, **kwargs):
                with rec.unit(kind, size_of(config), f"m={config.m} n={config.n}"):
                    return fn(config, *args, **kwargs)
            return timed
        return wrap

    def round(self, k: int) -> None:
        checks = self.checks
        seed = str(_seed(self.seed, k))
        with self.rec.patched("adversary", "verify_sandwich_norm",
                              self._as_unit("norm", lambda c: f"n{c.n}")), \
             self.rec.patched("adversary", "verify_procedure_equivalence",
                              self._as_unit("equiv", lambda c: f"m{c.m}")):
            for argv in self.verify_argvs:
                rc, text = call_cli([*argv, "--seed", seed])
                checks.record(verify_problems(rc, text), "scotsim " + " ".join(argv))
        rc, text = call_cli(["bounds"])
        checks.record(bounds_problems(rc, text), "scotsim bounds")


WORKLOADS = {w.name: w for w in (Soundness, Honest, Lemmas)}
