"""Unit timing and in-memory span tracing for the benchmark.

A *unit* is one piece of a workload's body: a strategy draw and its
scoring, an honest run and its checks, one lemma check.  Every unit has
a kind, a size class and a tag naming what sets its cost; untraced, a
unit costs two clock reads and a list append.  The end-to-end metrics
are computed from these unit times (see ``metrics.py``).

When tracing is on, the recorder also keeps a span per unit and per
call into the library functions in ``TRACED``.  It installs a timing
wrapper wherever a caller looks the function up: the defining module's
attribute, every ``from``-import alias in the other ``scotsim`` modules,
or the class attribute for a method.  Spans live in memory as
``[name, start, end, parent, unit]`` lists and are summarised or written
out when the benchmark ends.  Nothing inside the library changes.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

TRACED = {
    "adversary": (
        "random_strategy",
        "random_measurement",
        "cheat_probability_exact",
        "cheat_probability_gamma",
        "seesaw_optimize",
        "verify_sandwich_norm",
        "verify_procedure_equivalence",
        "random_branching_strategy",
    ),
    "quantum": ("spectral_norm", "prepare_product_state", "measure", "full_distribution"),
    "dqacm": ("stage1_honest", "sample_inputs", "decode", "inputs_to_json", "record_to_json"),
    "protocol": (
        "run_psr",
        "run_pqc",
        "run_pcc",
        "verify_transcript",
        "obliviousness_audit",
        "transcript_to_json",
        "standard_layout",
    ),
    "minkowski": ("causally_precedes", "in_region_g", "Region.contains", "validate_layout"),
    "bounds": ("epsilon_bob", "epsilon_bob_gamma", "gamma_threshold", "count_omega"),
    "cli": ("main",),
}


def _cli_tag(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


def _dim_tag(args, kwargs):
    return str(len(args[0]))


# Span-name suffixes computed from the call's arguments: the CLI
# subcommand, and the matrix dimension handed to the spectral norm.
TAGS = {"cli.main": _cli_tag, "quantum.spectral_norm": _dim_tag}


class _Unit:
    __slots__ = ("rec", "key", "count", "start", "span", "outer")

    def __init__(self, rec: "Recorder", key: tuple[str, str, str], count: int):
        self.rec = rec
        self.key = key
        self.count = count

    def __enter__(self) -> "_Unit":
        rec = self.rec
        if rec.tracing:
            self.outer = rec.current_unit
            rec.current_unit = len(rec.unit_keys)
            rec.unit_keys.append(self.key)
            self.span = rec._open_span("unit." + self.key[0])
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        rec = self.rec
        if rec.tracing:
            rec._close_span(self.span, self.start, end)
            rec.current_unit = self.outer
            return
        group = rec.groups.get(self.key)
        if group is None:
            group = rec.groups[self.key] = Group()
        group.seconds.append(end - self.start)
        group.count += self.count


class Group:
    """Timings of identical units: same kind, size class and structure."""

    __slots__ = ("seconds", "count")

    def __init__(self) -> None:
        self.seconds: list[float] = []  # each unit's wall time
        self.count = 0  # work units done, e.g. see-saw iterations


class Recorder:
    """Unit timings for the end-to-end metrics, plus spans while tracing.

    Units are grouped by ``(kind, size, tag)``, where the tag names what
    makes units of one kind and size cost the same (mode, m and b for a
    protocol run; the branch split for a random strategy).  Timings are
    kept only while tracing is off.
    """

    def __init__(self) -> None:
        self.tracing = False
        self.groups: dict[tuple[str, str, str], Group] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[list] = []
        self.unit_keys: list[tuple[str, str, str]] = []
        self.current_unit = -1
        self._stack: list[int] = []
        self._trace_patches: list[tuple] = []

    def unit(self, kind: str, size: str, tag: str = "", count: int = 1) -> _Unit:
        """Time one unit of work; set ``.count`` inside to count several."""
        return _Unit(self, (kind, size, tag), count)

    def count(self, key: str, value: float = 1) -> None:
        """Add to a per-layer counter; counters are kept only while tracing."""
        if self.tracing:
            self.counters[key] = self.counters.get(key, 0) + value

    def _open_span(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.current_unit])
        self._stack.append(idx)
        return idx

    def _close_span(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    def _traced(self, name: str, fn, tag=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name if tag is None else f"{name}.{tag(args, kwargs)}"
            idx = rec._open_span(full)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close_span(idx, start, time.perf_counter())

        return traced

    def patch(self, module_name: str, attr: str, make_wrapper) -> list[tuple]:
        """Replace a library function everywhere ``scotsim`` looks it up.

        ``attr`` is a function name or ``Class.method``.  Returns the
        replaced ``(owner, name, original)`` triples for :func:`restore`.
        """
        module = sys.modules[f"scotsim.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make_wrapper(orig))
            return [(cls, meth, orig)]
        orig = getattr(module, attr)
        wrapper = make_wrapper(orig)
        done = []
        for name, mod in list(sys.modules.items()):
            if name != "scotsim" and not name.startswith("scotsim."):
                continue
            for alias, value in list(vars(mod).items()):
                if value is orig:
                    done.append((mod, alias, orig))
                    setattr(mod, alias, wrapper)
        return done

    @contextlib.contextmanager
    def patched(self, module_name: str, attr: str, make_wrapper):
        done = self.patch(module_name, attr, make_wrapper)
        try:
            yield
        finally:
            restore(done)

    def start_trace(self) -> None:
        """Clear spans and counters and wrap every function in ``TRACED``."""
        self.spans = []
        self.unit_keys = []
        self.counters = {}
        self.current_unit = -1
        for layer, attrs in TRACED.items():
            for attr in attrs:
                name = f"{layer}.{attr}"
                self._trace_patches += self.patch(
                    layer, attr, lambda fn, name=name: self._traced(name, fn, TAGS.get(name))
                )
        self.tracing = True

    def stop_trace(self) -> None:
        restore(self._trace_patches)
        self._trace_patches = []
        self.tracing = False


def restore(patches: list[tuple]) -> None:
    """Undo :meth:`Recorder.patch`, most recent replacement first."""
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _unit in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _unit) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarise(spans: list[list], unit_keys: list[tuple[str, str, str]]) -> dict:
    """Per (span name, enclosing unit's (kind, size)): calls, self seconds, durations."""
    stats: dict[tuple, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _parent, unit = span
        key = (name, unit_keys[unit][:2] if unit >= 0 else ("none", "none"))
        entry = stats.setdefault(key, {"calls": 0, "self_s": 0.0, "ms": []})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["ms"].append((end - start) * 1e3)
    return stats


HI_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: list[float], pct: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    ordered = sorted(samples)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def high_percentile(samples: list[float]) -> tuple[float | None, float]:
    """The highest listed percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``(None, 0.0)`` when fewer than
    twenty samples leave none qualifying.
    """
    n = len(samples)
    for pct in HI_PERCENTILES:
        if n - 1 - int(pct / 100.0 * (n - 1)) >= 10:
            return pct, percentile(samples, pct)
    return None, 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
