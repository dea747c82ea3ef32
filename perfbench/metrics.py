"""Metric names, units and how each is computed.

End-to-end metrics are the same seven names on every workload.
``wall_s`` is the measured wall time of one round of the workload's
body, averaged over the run's fixed number of rounds.  The rates are
units per second on the workload's two kinds of work (its ``main`` and
``side`` unit kinds) at its two size classes (its ``classes`` map from
"large" and "small" to unit sizes); README.md tabulates what they mean
per workload.  A rate divides the work those units did by the wall time
they took, all of it: every unit of the run counts for what it cost.

Per-layer metrics come from the traced rounds and are per round:
``calls`` and ``self_s`` are counts and self seconds in one round of
the workload's body, ``ms_p50`` / ``ms_hi`` are call durations pooled
over every traced round.  A function the workload does not call reads 0.
"""

from __future__ import annotations

from recorder import high_percentile, median

# (name, unit, better, bound).  On a shared 2-vCPU machine the IQR over
# median of ten runs reached 0.24 for the honest rates while the
# machine's speed changed from run to run, and stayed under 0.13
# otherwise (README.md, "Measured steadiness"); so the timing bounds are
# the widest allowed, and set-up, which moves most with load, has the
# largest.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("main_per_s.large", "1/s", "higher", 0.24),
    ("main_per_s.small", "1/s", "higher", 0.24),
    ("side_per_s.large", "1/s", "higher", 0.24),
    ("side_per_s.small", "1/s", "higher", 0.24),
)


def end_to_end(workload, groups: dict, walls: list[float]) -> dict[str, float]:
    """``wall_s``, the four generic rates and the workload's named rates."""

    def rate(keys) -> float:
        sel = [g for (kind, size, _tag), g in groups.items() if (kind, size) in keys]
        return sum(g.count for g in sel) / sum(sum(g.seconds) for g in sel)

    out = {"wall_s": sum(walls) / len(walls)}
    for role, kind in (("main", workload.main), ("side", workload.side)):
        for size_name, size in workload.classes[kind].items():
            out[f"{role}_per_s.{size_name}"] = rate({(kind, size)})
    for name, keys in workload.named.items():
        out[name] = rate(set(keys))
    return out


class LayerStats:
    """Span statistics from one or more traced rounds."""

    def __init__(self) -> None:
        self.rounds = 0
        self.calls: dict[tuple, int] = {}
        self.self_s: dict[tuple, float] = {}
        self.ms: dict[tuple, list] = {}
        self.counters: dict[str, float] = {}

    def add_round(self, stats: dict, counters: dict) -> None:
        self.rounds += 1
        for key, entry in stats.items():
            self.calls[key] = self.calls.get(key, 0) + entry["calls"]
            self.self_s[key] = self.self_s.get(key, 0.0) + entry["self_s"]
            self.ms.setdefault(key, []).extend(entry["ms"])
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _select(self, table, name, kind=None, size=None):
        """Sum over span keys matching a name (or its tagged forms)."""
        total = 0
        for (span, (u_kind, u_size)), value in table.items():
            if span != name and not span.startswith(name + "."):
                continue
            if (kind is None or u_kind == kind) and (size is None or u_size == size):
                total += value
        return total

    def n_calls(self, name, kind=None, size=None) -> float:
        return self._select(self.calls, name, kind, size) / max(self.rounds, 1)

    def n_self(self, name, kind=None, size=None) -> float:
        return self._select(self.self_s, name, kind, size) / max(self.rounds, 1)

    def samples(self, name, size=None) -> list[float]:
        out = []
        for (span, (_kind, u_size)), values in self.ms.items():
            if (span == name or span.startswith(name + ".")) and (size is None or u_size == size):
                out.extend(values)
        return out

    def counter(self, key) -> float:
        return self.counters.get(key, 0) / max(self.rounds, 1)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(ls: LayerStats, cold_ms: dict) -> tuple[dict, dict]:
    """All per-layer metrics as ``{name: (value, unit, better)}``, plus
    ``{ms_hi name: {"percentile": p, "samples": n}}``."""
    out: dict[str, tuple] = {}
    hi_detail: dict[str, dict] = {}

    def put(name, value, unit, better="lower"):
        out[name] = (value, unit, better)

    def timed(fn, stats, size=None, kind=None):
        suffix = f".{size}" if size else ""
        for stat in stats:
            name = f"{fn}.{stat}{suffix}"
            if stat == "calls":
                put(name, ls.n_calls(fn, kind, size), "count")
            elif stat == "self_s":
                put(name, ls.n_self(fn, kind, size), "s")
            elif stat == "ms_p50":
                put(name, median(ls.samples(fn, size)), "ms")
            elif stat == "ms_hi":
                samples = ls.samples(fn, size)
                pct, value = high_percentile(samples)
                put(name, value, "ms")
                hi_detail[name] = {"percentile": pct, "samples": len(samples)}

    for fn in ("random_strategy", "cheat_probability_exact", "cheat_probability_gamma"):
        for size in ("m3n2", "small"):
            timed(f"adversary.{fn}", ("calls", "self_s", "ms_p50"), size)
    timed("adversary.random_measurement", ("calls", "self_s"))
    put("adversary.random_measurement.per_strategy.m3n2",
        _ratio(ls.n_calls("adversary.random_measurement", "strategy", "m3n2"),
               ls.n_calls("adversary.random_strategy", "strategy", "m3n2")), "count")
    for size in ("m3n2", "small"):
        iters = ls.counter(f"seesaw.iters.{size}")
        put(f"adversary.seesaw_optimize.iters.{size}", iters, "count")
        self_s = ls.n_self("adversary.seesaw_optimize", size=size)
        put(f"adversary.seesaw_optimize.self_s.{size}", self_s, "s")
        put(f"adversary.seesaw_optimize.iter_ms.{size}", _ratio(self_s * 1e3, iters), "ms")
        put(f"adversary.seesaw_optimize.productive_ratio.{size}",
            _ratio(ls.counter(f"seesaw.productive.{size}"), iters), "ratio", "higher")
    for size in ("m3n2", "small"):
        put(f"adversary.cold_call_ms.{size}", cold_ms.get(size, 0.0), "ms")

    for fn in ("adversary.verify_sandwich_norm", "adversary.verify_procedure_equivalence"):
        timed(fn, ("calls", "self_s", "ms_p50", "ms_hi"))
    timed("quantum.spectral_norm", ("calls", "self_s", "ms_p50"))
    dims = [int(span.rsplit(".", 1)[1]) for (span, _unit) in ls.calls
            if span.startswith("quantum.spectral_norm.")]
    put("quantum.spectral_norm.max_dim", max(dims, default=0), "count")
    timed("adversary.random_branching_strategy", ("calls", "self_s"))
    timed("quantum.prepare_product_state", ("calls", "self_s"))

    for mode in ("psr", "pqc", "pcc"):
        for size in ("n1", "n64"):
            timed(f"protocol.run_{mode}", ("calls", "self_s", "ms_p50", "ms_hi"), size)
    for mode in ("psr", "pqc", "pcc"):
        put(f"protocol.binds_per_run.{mode}", ls.counter(f"binds.{mode}"), "count")
    for fn in ("quantum.measure", "quantum.full_distribution"):
        timed(fn, ("calls", "self_s"))
    bb84_runs = sum(ls.n_calls(f"protocol.run_{mode}", "bb84", "n64") for mode in ("psr", "pqc"))
    put("quantum.measure.per_run.n64",
        _ratio(ls.n_calls("quantum.measure", "bb84", "n64"), bb84_runs), "count")
    for fn in ("stage1_honest", "sample_inputs", "decode", "inputs_to_json", "record_to_json"):
        timed(f"dqacm.{fn}", ("calls", "self_s"))
    timed("protocol.verify_transcript", ("calls", "self_s", "ms_p50", "ms_hi"))
    for fn in ("causally_precedes", "in_region_g", "Region.contains"):
        timed(f"minkowski.{fn}", ("calls", "self_s"))
    for fn in ("obliviousness_audit", "transcript_to_json"):
        timed(f"protocol.{fn}", ("calls", "self_s"))
    for sub in ("run", "verify", "bounds"):
        put(f"cli.main.calls.{sub}", ls.n_calls(f"cli.main.{sub}"), "count")
        put(f"cli.main.self_s.{sub}", ls.n_self(f"cli.main.{sub}"), "s")
    for fn in ("epsilon_bob", "epsilon_bob_gamma", "gamma_threshold", "count_omega"):
        timed(f"bounds.{fn}", ("calls", "self_s"))
    timed("minkowski.validate_layout", ("calls", "self_s"))
    timed("protocol.standard_layout", ("calls", "self_s"))
    return out, hi_detail


# Work counts that must repeat exactly between traced rounds and
# between two runs at one seed; later changes can quote them as counts.
EXACT_COUNTS = (
    "adversary.seesaw_optimize.iters.m3n2",
    "adversary.seesaw_optimize.iters.small",
    "adversary.random_measurement.per_strategy.m3n2",
    "protocol.binds_per_run.psr",
    "protocol.binds_per_run.pqc",
    "protocol.binds_per_run.pcc",
    "quantum.measure.per_run.n64",
    "quantum.spectral_norm.calls",
    "quantum.spectral_norm.max_dim",
)

TRACE_OVERHEAD = ("trace_overhead", "ratio", "lower")


def per_layer_names() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    rows, _ = layer_metrics(LayerStats(), {})
    return [(name, unit, better) for name, (_v, unit, better) in rows.items()] + [TRACE_OVERHEAD]
