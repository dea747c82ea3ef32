"""Protocol runners on explicit spacetime layouts.

Three protocols share one deterministic scheduler.  Agents move along
fixed worldlines; every protocol action names the agent it runs on and
a set of placement requirements (inside the common past G, in the
causal past of a handover point, exactly at a handover point, inside an
output region).  The scheduler binds each action to the earliest
worldline vertex at or after the agent's previous action that satisfies
the requirements, and message delivery additionally waits for the light
cone of the emission vertex.  It tests each vertex with the same
predicates :func:`verify_transcript` applies (:func:`placement_satisfied`
and :func:`scotsim.minkowski.causally_precedes`), so every schedule it
binds verifies.  A run fails loudly, with :class:`SchedulingError`,
when the declared geometry cannot support the protocol's information
flow.  Binding depends only on the layout, the protocol and the target
region b, never on the random data, so each such schedule is bound
once per layout object; a run only draws its data, measures every
qubit in one vectorised pass (:func:`scotsim.dqacm.sample_slots`) and
fills the payloads in.

The runners:

``run_psr``
    Random-string transfer.  A central sender encodes a random bit
    string in random two-basis qubits and routes it to the receiver,
    who learns the basis string only at the handover points and
    measures inside the chosen output region.

``run_pqc``
    String transfer with sender inputs.  Same quantum part plus one-time
    pads handed over at the Q points, so region b reveals string b.

``run_pcc``
    Committed-measurement variant.  The receiver measures everything
    inside G in a self-chosen basis c, announces the shifted index
    b' = b + c (mod m), and the pads are arranged so that region b
    still decodes string b while b' tells the sender nothing about b.

A transcript keeps its bound schedule and payloads and builds its
``Message``/``LocalOp`` lists only when first read.
:func:`verify_transcript` re-checks all causal claims from the
transcript alone, deriving the verdict on an unedited schedule once per
layout; :func:`obliviousness_audit` checks the receiver-to-sender
traffic over many transcripts.  Neither builds the lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import dqacm as dqacm_mod
from . import quantum
from .dqacm import AliceInputs, DqacmConfig
from .errors import ConfigError, SchedulingError
from .minkowski import (
    Event,
    Layout,
    ValidatedLayout,
    box_region,
    causally_precedes,
    in_region_g,
    validate_layout,
)
from .quantum import _as_rng

__all__ = [
    "Placement",
    "Message",
    "LocalOp",
    "Transcript",
    "ScotConfig",
    "AuditResult",
    "standard_layout",
    "scot_config",
    "run_psr",
    "run_pqc",
    "run_pcc",
    "verify_transcript",
    "obliviousness_audit",
    "placement_satisfied",
    "receiver_to_sender_kinds",
    "transcript_to_json",
]

MODES = ("psr", "pqc", "pcc")


@dataclass(frozen=True)
class Placement:
    """One causal requirement on where an action may bind.

    Kinds: ``in_g`` (common causal past of all handover points),
    ``past_q`` (causal past of handover point ``index``), ``at_q``
    (exactly the handover vertex), ``in_region`` (inside output region
    ``index``), ``past_region`` (causal past of some event of region
    ``index``).
    """

    kind: str
    index: int | None = None


@dataclass(frozen=True, eq=False)
class Message:
    sender: str
    receiver: str
    kind: str
    payload: dict
    emit: Event
    deliver: Event
    emit_placement: tuple[Placement, ...] = ()
    deliver_placement: tuple[Placement, ...] = ()
    seq: int = -1


@dataclass(frozen=True, eq=False)
class LocalOp:
    agent: str
    kind: str
    payload: dict
    event: Event
    placement: tuple[Placement, ...] = ()
    seq: int = -1


@dataclass(eq=False)
class Transcript:
    """One run: its bound schedule and its payloads, one per step in order.

    ``messages`` and ``local_ops`` are built from the two on first access
    and kept; after that the lists, edits included, are the transcript.
    """

    mode: str
    m: int
    n: int
    b: int
    layout: ValidatedLayout
    schedule: _Schedule = field(repr=False)
    payloads: list[dict] = field(repr=False)
    outputs: dict[int, np.ndarray] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    _lists: tuple[list[Message], list[LocalOp]] | None = field(default=None, init=False)

    @property
    def messages(self) -> list[Message]:
        return self._built()[0]

    @property
    def local_ops(self) -> list[LocalOp]:
        return self._built()[1]

    def _built(self) -> tuple[list[Message], list[LocalOp]]:
        if self._lists is None:
            pay, sched = self.payloads, self.schedule
            self._lists = (
                [Message(s.sender, s.receiver, s.kind, pay[s.seq - 1], s.emit, s.deliver,
                         s.emit_placement, s.deliver_placement, s.seq) for s in sched.messages],
                [LocalOp(s.agent, s.kind, pay[s.seq - 1], s.event, s.placement, s.seq)
                 for s in sched.local_ops],
            )
        return self._lists


@dataclass(frozen=True, eq=False)
class ScotConfig:
    """Static parameters of a protocol run."""

    mode: str
    m: int
    n: int
    layout: ValidatedLayout
    dqacm: DqacmConfig | None = None
    flip_rate: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.m < 2:
            raise ConfigError("m must be at least 2")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.layout.m != self.m:
            raise ConfigError(
                f"layout has {self.layout.m} regions but config declares m={self.m}"
            )
        if not 0.0 <= self.flip_rate < 1.0:
            raise ConfigError(f"flip_rate={self.flip_rate} outside [0, 1)")
        if not 0.0 <= self.gamma <= 0.5:
            raise ConfigError(f"gamma={self.gamma} outside [0, 0.5]")
        if self.mode == "pcc":
            if self.dqacm is None:
                raise ConfigError("pcc requires a delegated-measurement config")
            if self.dqacm.m != self.m or self.dqacm.n != self.n:
                raise ConfigError("delegated-measurement config disagrees with (m, n)")


def standard_layout(m: int, dim: int = 1, hub: int | None = None) -> ValidatedLayout:
    """Build the default geometry for m parties.

    Output regions are unit-half-width boxes around handover points
    Q_i = (T, 10 i), so distinct regions are separated by at least 8 in
    space but at most 2 in time, comfortably spacelike.  The central
    agents A and B share a worldline at the spatial midpoint (or at
    region ``hub``'s position when given, which colocates them with
    that region's local agents); every worldline ticks at unit steps
    from t = 0 through T + 1.  T leaves 25 ticks of slack beyond the
    light distance from the hub to the farthest handover point, so all
    stage placements are feasible with room to spare.
    """
    if m < 2:
        raise ConfigError("m must be at least 2")
    if not 1 <= dim <= 3:
        raise ConfigError("dim must be 1..3")
    spots = [np.zeros(dim) for _ in range(m)]
    for i in range(m):
        spots[i][0] = 10.0 * i
    if hub is None:
        hub_pos = np.zeros(dim)
        hub_pos[0] = 5.0 * (m - 1)
    else:
        if not 0 <= hub < m:
            raise ConfigError(f"hub={hub} outside range({m})")
        hub_pos = spots[hub].copy()
    horizon = max(math.dist(hub_pos, p) for p in spots)
    t_q = float(math.ceil(horizon) + 25)

    regions = []
    q_points = []
    for i in range(m):
        center = spots[i]
        lo = Event(t_q - 1.0, center - 1.0)
        hi = Event(t_q + 1.0, center + 1.0)
        q = Event(t_q, center)
        regions.append(box_region(lo, hi, interior=(q,)))
        q_points.append(q)

    ticks = [float(t) for t in range(int(t_q) + 2)]
    worldlines = {}
    worldlines["A"] = [Event(t, hub_pos) for t in ticks]
    worldlines["B"] = [Event(t, hub_pos) for t in ticks]
    for i in range(m):
        worldlines[f"A{i}"] = [Event(t, spots[i]) for t in ticks]
        worldlines[f"B{i}"] = [Event(t, spots[i]) for t in ticks]
    return validate_layout(Layout(regions, q_points, worldlines))


def scot_config(
    mode: str,
    m: int,
    n: int,
    layout: ValidatedLayout | None = None,
    thetas: Sequence[float] | None = None,
    flip_rate: float = 0.0,
    gamma: float = 0.0,
) -> ScotConfig:
    """Convenience builder wiring the default layout and basis family.

    ``thetas`` chooses the pcc basis family; any other mode raises
    ``ConfigError`` for it, since it would have no effect.
    """
    if thetas is not None and mode != "pcc":
        raise ConfigError(f"thetas set the pcc basis family; mode {mode!r} has none")
    if layout is None:
        layout = standard_layout(m)
    dq = None
    if mode == "pcc":
        if thetas is None:
            family = quantum.equal_spaced_family(m)
        else:
            family = quantum.planar_basis_family(m, thetas)
        dq = DqacmConfig(m, n, family, gamma)
    return ScotConfig(mode, m, n, layout, dq, flip_rate, gamma)


def placement_satisfied(
    vlayout: ValidatedLayout, placement: Placement, event: Event
) -> bool:
    """Re-evaluate one placement requirement from raw geometry."""
    layout = vlayout.layout
    if placement.kind == "in_g":
        return in_region_g(event, layout.q_points)
    if placement.kind == "past_q":
        return causally_precedes(event, layout.q_points[placement.index])
    if placement.kind == "at_q":
        return event == layout.q_points[placement.index]
    if placement.kind == "in_region":
        return layout.regions[placement.index].contains(event)
    if placement.kind == "past_region":
        return any(
            causally_precedes(event, e)
            for e in layout.regions[placement.index].events
        )
    raise ValueError(f"unknown placement kind {placement.kind!r}")


@dataclass(frozen=True)
class _Action:
    """One protocol action before binding; a message when ``receiver`` is set."""

    agent: str
    kind: str
    placement: tuple[Placement, ...] = ()
    receiver: str | None = None
    deliver: tuple[Placement, ...] = ()


_IN_G = (Placement("in_g"),)


def _handovers(m: int) -> list[_Action]:
    return [
        _Action(f"A{i}", "handover", (Placement("at_q", i),),
                receiver=f"B{i}", deliver=(Placement("at_q", i),))
        for i in range(m)
    ]


def _bb84_actions(m: int, b: int, padded: bool) -> list[_Action]:
    """psr, or pqc when ``padded``: the sender agents also get the pads' inputs."""
    in_b = (Placement("in_region", b),)
    middle = []
    for i in range(m):
        past_i = (Placement("past_q", i),)
        if padded:
            middle += [
                _Action("A", "pad_info", receiver=f"A{i}", deliver=past_i),
                _Action(f"A{i}", "input_x", past_i),
                _Action(f"A{i}", "compute_pad", past_i),
            ]
        else:
            middle.append(_Action("A", "basis_info", receiver=f"A{i}", deliver=past_i))
    return [
        _Action("A", "prepare", _IN_G),
        _Action("A", "qubits", _IN_G, receiver="B", deliver=_IN_G),
        _Action("B", "input_b", _IN_G),
        _Action("B", "qubits_forward", _IN_G,
                receiver=f"B{b}", deliver=(Placement("past_region", b),)),
        *middle,
        *_handovers(m),
        _Action(f"B{b}", "measure", in_b),
        _Action(f"B{b}", "output", in_b),
    ]


def _pcc_actions(m: int, b: int) -> list[_Action]:
    past = [(Placement("past_q", i),) for i in range(m)]
    return [
        _Action("A", "prepare", _IN_G),
        _Action("A", "state", _IN_G, receiver="B", deliver=_IN_G),
        _Action("B", "input_c", _IN_G),
        _Action("B", "measure_all", _IN_G),
        *(_Action("A", "alice_info", receiver=f"A{i}", deliver=past[i]) for i in range(m)),
        *(_Action("B", "bob_record", receiver=f"B{i}", deliver=past[i]) for i in range(m)),
        _Action("B", "input_b", _IN_G),
        _Action("B", "basis_shift", _IN_G, receiver="A", deliver=_IN_G),
        *(_Action("B", "target_index", receiver=f"B{i}", deliver=past[i]) for i in range(m)),
        *(_Action("A", "shift_info", receiver=f"A{i}", deliver=past[i]) for i in range(m)),
        *(
            act
            for i in range(m)
            for act in (_Action(f"A{i}", "input_x", past[i]),
                        _Action(f"A{i}", "compute_pad", past[i]))
        ),
        *_handovers(m),
        # Every receiver agent can decode the committed row once s arrives;
        # only the targeted one must do so inside its output region.
        *(
            _Action(f"B{i}", "decode", (Placement("in_region", i),) if i == b else ())
            for i in range(m)
        ),
        _Action(f"B{b}", "output", (Placement("in_region", b),)),
    ]


_ACTIONS = {
    "psr": lambda m, b: _bb84_actions(m, b, padded=False),
    "pqc": lambda m, b: _bb84_actions(m, b, padded=True),
    "pcc": _pcc_actions,
}


@dataclass(eq=False)
class _Schedule:
    """One (mode, b) schedule bound on ``layout``: its steps, without payloads."""

    layout: ValidatedLayout
    messages: tuple[Message, ...]
    local_ops: tuple[LocalOp, ...]
    violations: list[dict] | None = None  # the verdict, once a verification needs it


# id(layout) -> (layout, per-agent vertex sets, schedules by (mode, b))
_GEOMETRY_CACHE: dict[int, tuple[ValidatedLayout, dict, dict]] = {}


def _cached(vlayout: ValidatedLayout) -> tuple[dict[str, frozenset[Event]], dict]:
    """Each agent's worldline vertex set and the bound schedules of a layout."""
    entry = _GEOMETRY_CACHE.get(id(vlayout))
    if entry is None or entry[0] is not vlayout:
        vertices = {name: frozenset(verts) for name, verts in vlayout.layout.worldlines}
        if len(_GEOMETRY_CACHE) > 16:
            _GEOMETRY_CACHE.clear()
        entry = _GEOMETRY_CACHE[id(vlayout)] = (vlayout, vertices, {})
    return entry[1], entry[2]


def _bind_schedule(
    vlayout: ValidatedLayout, actions: Sequence[_Action]
) -> tuple[tuple[Message, ...], tuple[LocalOp, ...]]:
    """Bind each action to the earliest vertex that passes :func:`verify_transcript`.

    An agent's actions bind in order, each at or after its previous one,
    to a vertex where every placement is satisfied; a delivery also
    needs its emission to causally precede it.  Steps carry no payload.
    """
    lines = dict(vlayout.layout.worldlines)
    cursor = dict.fromkeys(lines, 0)

    def bind(agent: str, placements, after: Event | None, what: str) -> Event:
        verts = lines.get(agent)
        if verts is None:
            raise SchedulingError(f"agent {agent!r} has no worldline")
        for k in range(cursor[agent], len(verts)):
            v = verts[k]
            if all(placement_satisfied(vlayout, p, v) for p in placements) and (
                after is None or causally_precedes(after, v)
            ):
                cursor[agent] = k
                return v
        raise SchedulingError(f"no vertex on {agent!r} satisfies {what}")

    messages, local_ops = [], []
    for seq, act in enumerate(actions, 1):
        if act.receiver is None:
            event = bind(act.agent, act.placement, None, act.kind)
            local_ops.append(LocalOp(act.agent, act.kind, None, event, act.placement, seq))
        else:
            emit = bind(act.agent, act.placement, None, f"emit {act.kind}")
            deliver = bind(act.receiver, act.deliver, emit, f"deliver {act.kind}")
            messages.append(Message(act.agent, act.receiver, act.kind, None, emit, deliver,
                                    act.placement, act.deliver, seq))
    return tuple(messages), tuple(local_ops)


def _schedule(vlayout: ValidatedLayout, mode: str, b: int) -> _Schedule:
    """The schedule of ``mode`` for target ``b``, bound once per layout object.

    Binding depends on nothing else, so every later run reuses it; an
    infeasible layout raises :class:`SchedulingError` and caches nothing.
    """
    _, schedules = _cached(vlayout)
    sched = schedules.get((mode, b))
    if sched is None:
        steps = _bind_schedule(vlayout, _ACTIONS[mode](vlayout.m, b))
        sched = schedules[(mode, b)] = _Schedule(vlayout, *steps)
    return sched


def _check_b(config: ScotConfig, b: int) -> None:
    if not 0 <= b < config.m:
        raise ConfigError(f"b={b} outside range({config.m})")


def _check_x(config: ScotConfig, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if arr.shape != (config.m, config.n):
        raise ConfigError(
            f"x must have shape ({config.m}, {config.n}), got {arr.shape}"
        )
    if (arr & -2).any():  # nonzero exactly where an entry is not 0 or 1
        raise ConfigError("x entries must be bits")
    return arr


# psr and pqc send one qubit per round in one of the two BB84 bases, and
# the receiver measures each in its own basis through this table.
_BB84 = DqacmConfig(2, 1, quantum.bb84_family())


def run_psr(config: ScotConfig, b: int, seed) -> Transcript:
    """Random-string transfer: the receiver learns a random n-bit string in R_b."""
    if config.mode != "psr":
        raise ConfigError(f"config mode {config.mode!r} is not psr")
    _check_b(config, b)
    rng = _as_rng(seed)
    m, n = config.m, config.n

    r = rng.integers(0, 2, size=n)
    s = rng.integers(0, 2, size=n)
    sched = _schedule(config.layout, "psr", b)
    r_meas = dqacm_mod.sample_slots(_BB84, s, s, r, rng, config.flip_rate)
    s_bits = s.tolist()
    t = Transcript(config.mode, config.m, config.n, b, config.layout, sched, [
        {"r": r.tolist(), "s": s_bits},
        {"handle": "q0"},
        {"b": b},
        {"handle": "q0"},
        *({"s": s_bits} for _ in range(2 * m)),  # basis_info, handover
        {"outcomes": r_meas.tolist()},
        {"value": r_meas.tolist()},
    ])
    t.outputs[b] = r_meas
    t.extra.update({"r": r, "s": s})
    return t


def run_pqc(config: ScotConfig, x, b: int, seed) -> Transcript:
    """Padded transfer: region b outputs the sender string x[b]."""
    if config.mode != "pqc":
        raise ConfigError(f"config mode {config.mode!r} is not pqc")
    _check_b(config, b)
    x = _check_x(config, x)
    rng = _as_rng(seed)
    m, n = config.m, config.n

    r = rng.integers(0, 2, size=n)
    s = rng.integers(0, 2, size=n)
    sched = _schedule(config.layout, "pqc", b)
    pads = x ^ r
    r_meas = dqacm_mod.sample_slots(_BB84, s, s, r, rng, config.flip_rate)
    out = r_meas ^ pads[b]
    r_bits, s_bits, x_rows, pad_rows = r.tolist(), s.tolist(), x.tolist(), pads.tolist()
    t = Transcript(config.mode, config.m, config.n, b, config.layout, sched, [
        {"r": r_bits, "s": s_bits},
        {"handle": "q0"},
        {"b": b},
        {"handle": "q0"},
        *(  # pad_info, input_x, compute_pad
            doc
            for i in range(m)
            for doc in ({"r": r_bits, "s": s_bits}, {"x": x_rows[i]}, {"t": pad_rows[i]})
        ),
        *({"s": s_bits, "t": pad_rows[i]} for i in range(m)),  # handover
        {"outcomes": r_meas.tolist()},
        {"value": out.tolist()},
    ])
    t.outputs[b] = out
    t.extra.update({"r": r, "s": s, "x": x, "pads": pads})
    return t


def run_pcc(config: ScotConfig, x, b: int, seed, c: int | None = None) -> Transcript:
    """Committed-measurement transfer with a shifted announcement.

    The receiver measures the whole delegated state inside G in basis
    ``c`` (uniform unless overridden), announces only b' = b + c (mod m)
    to the sender side, and region b's pad t_b = r_c + x_b lets its
    agent output x[b] from the decoded row.  Overriding ``c`` models a
    rigged receiver and is what the obliviousness audit is designed to
    catch.
    """
    if config.mode != "pcc":
        raise ConfigError(f"config mode {config.mode!r} is not pcc")
    _check_b(config, b)
    x = _check_x(config, x)
    rng = _as_rng(seed)
    m = config.m
    dq = config.dqacm

    inputs = dqacm_mod.sample_inputs(dq, rng)
    if c is None:
        c = int(rng.integers(0, m))
    if not 0 <= c < m:
        raise ConfigError(f"c={c} outside range({m})")
    sched = _schedule(config.layout, "pcc", b)
    record = dqacm_mod.stage1_honest(dq, inputs, c, rng, config.flip_rate)
    b_prime = (b + c) % m
    pads = inputs.r[(b_prime - np.arange(m)) % m] ^ x
    row = dqacm_mod.decode(dq, c, record.d, inputs.s)
    decoded = dict.fromkeys(range(m), row)
    out = row ^ pads[b]

    inputs_doc = dqacm_mod.inputs_to_json(inputs)
    record_doc = dqacm_mod.record_to_json(record)
    s_doc = [list(p) for p in inputs.s]
    x_rows, pad_rows, row_bits = x.tolist(), pads.tolist(), row.tolist()
    t = Transcript(config.mode, config.m, config.n, b, config.layout, sched, [
        inputs_doc,
        {"handle": "q0"},
        {"c": c},
        record_doc,
        *[inputs_doc] * m,  # alice_info
        *[record_doc] * m,  # bob_record
        {"b": b},
        {"b_prime": b_prime},
        *({"b": b} for _ in range(m)),  # target_index
        *({"b_prime": b_prime} for _ in range(m)),  # shift_info
        *(  # input_x, compute_pad
            doc for i in range(m) for doc in ({"x": x_rows[i]}, {"t": pad_rows[i]})
        ),
        *({"t": pad_rows[i], "s": s_doc} for i in range(m)),  # handover
        *({"row": row_bits} for _ in range(m)),  # decode
        {"value": out.tolist()},
    ])
    t.outputs[b] = out
    t.extra.update(
        {
            "r": inputs.r,
            "s": inputs.s,
            "x": x,
            "pads": pads,
            "c": c,
            "b_prime": b_prime,
            "record": record,
            "decoded": decoded,
        }
    )
    return t


def _semantic_violations(t: Transcript) -> list[dict]:
    # Output correctness is a statistical question under noise and is
    # left to callers; only internal consistency is checked here.
    out = []
    if t.mode == "pcc" and "c" in t.extra:
        c = t.extra["c"]
        if (t.b + c) % t.m != t.extra.get("b_prime"):
            out.append({"kind": "inconsistent_shift", "b": t.b, "c": c})
    return out


def _steps(t: Transcript) -> tuple[Sequence[Message], Sequence[LocalOp]]:
    """The messages and local operations of ``t``: its lists once built, else its schedule's."""
    if t._lists is None:
        return t.schedule.messages, t.schedule.local_ops
    return t._lists


def receiver_to_sender_kinds(t: Transcript) -> list[str]:
    """The kinds of the messages a receiver agent sends a sender agent, in order."""
    return [
        msg.kind for msg in _steps(t)[0]
        if msg.sender.startswith("B") and msg.receiver.startswith("A")
    ]


def verify_transcript(
    transcript: Transcript, vlayout: ValidatedLayout | None = None
) -> tuple[bool, list[dict]]:
    """Re-check every causal and placement claim of a finished run.

    Returns (ok, violations).  Checks, from the transcript alone: bound
    events sit on the acting agent's declared worldline, per-agent
    action times never decrease, every message delivery lies in the
    causal future of its emission, and all recorded placement
    requirements hold at the bound events.  These geometric checks run
    once per schedule for transcripts whose lists were never built,
    checked on the layout object the schedule was bound on, and in full
    otherwise; the recorded data's consistency is checked on every call.
    """
    vlayout = vlayout or transcript.layout
    sched = transcript.schedule
    if transcript._lists is None and vlayout is sched.layout:
        if sched.violations is None:
            sched.violations = _geometric_violations(vlayout, *_steps(transcript))
        violations = list(sched.violations)
    else:
        violations = _geometric_violations(vlayout, *_steps(transcript))
    violations.extend(_semantic_violations(transcript))
    return (not violations, violations)


def _geometric_violations(
    vlayout: ValidatedLayout, messages: Sequence[Message], local_ops: Sequence[LocalOp]
) -> list[dict]:
    vertices, _ = _cached(vlayout)
    violations: list[dict] = []

    def on_worldline(agent: str, event: Event, what: str) -> None:
        verts = vertices.get(agent)
        if verts is None:
            violations.append({"kind": "unknown_agent", "agent": agent, "at": what})
        elif event not in verts:
            violations.append(
                {"kind": "event_off_worldline", "agent": agent, "at": what,
                 "event": [event.t, *event.x]}
            )

    def check_placements(
        placements: Sequence[Placement], event: Event, what: str
    ) -> None:
        for p in placements:
            if not placement_satisfied(vlayout, p, event):
                violations.append(
                    {"kind": "placement_violated", "at": what,
                     "placement": [p.kind, p.index], "event": [event.t, *event.x]}
                )

    for k, msg in enumerate(messages):
        what = f"message[{k}]:{msg.kind}"
        on_worldline(msg.sender, msg.emit, what)
        on_worldline(msg.receiver, msg.deliver, what)
        if not causally_precedes(msg.emit, msg.deliver):
            violations.append(
                {"kind": "acausal_delivery", "at": what,
                 "emit": [msg.emit.t, *msg.emit.x],
                 "deliver": [msg.deliver.t, *msg.deliver.x]}
            )
        check_placements(msg.emit_placement, msg.emit, what + ":emit")
        check_placements(msg.deliver_placement, msg.deliver, what + ":deliver")
    for k, op in enumerate(local_ops):
        what = f"local[{k}]:{op.kind}"
        on_worldline(op.agent, op.event, what)
        check_placements(op.placement, op.event, what)

    # Each agent's events in scheduling order, merged on sequence numbers.
    items: list[tuple[int, str, Event]] = []
    for msg in messages:
        items += [(msg.seq, msg.sender, msg.emit), (msg.seq, msg.receiver, msg.deliver)]
    items += [(op.seq, op.agent, op.event) for op in local_ops]
    ordered: dict[str, list[float]] = {}
    for _seq, agent, event in sorted(items, key=lambda it: it[0]):
        ordered.setdefault(agent, []).append(event.t)
    for agent, ts in ordered.items():
        if any(b < a for a, b in zip(ts, ts[1:])):
            violations.append({"kind": "agent_time_regression", "agent": agent})
    return violations


@dataclass(frozen=True, eq=False)
class AuditResult:
    ok: bool
    n_transcripts: int
    bob_to_alice: int
    chi2_rows: tuple[dict, ...]

    def __bool__(self) -> bool:
        return self.ok


def _chi2_sf(x: float, k: int) -> float:
    """Upper tail P(X >= x) of the chi-squared law with k >= 1 degrees of freedom.

    This is the regularised upper incomplete gamma Q(k/2, x/2), in closed
    form for integer k through Q(a+1, y) = Q(a, y) + y^a e^-y / Gamma(a+1):
    with y = x/2, Q = e^-y sum_{i<k/2} y^i / i! for even k, and
    Q = erfc(sqrt(y)) + e^-y sum_{i=1}^{(k-1)/2} y^(i-1/2) / Gamma(i+1/2)
    for odd k.  Every term is positive, so the far tail keeps its
    relative precision.
    """
    y = x / 2.0
    if k % 2:
        total, a = math.erfc(math.sqrt(y)), 1.5
        term = math.sqrt(y) * math.exp(-y) / math.gamma(a)
    else:
        total, a = 0.0, 1.0
        term = math.exp(-y)
    for _ in range(k // 2):
        total += term
        term *= y / a
        a += 1.0
    return total


def obliviousness_audit(
    transcripts: Sequence[Transcript], significance: float = 0.001
) -> AuditResult:
    """Check that receiver-to-sender traffic carries nothing about b.

    For psr and pqc transcripts any receiver-to-sender message at all is
    a violation.  For pcc transcripts the only allowed kind is the
    shifted announcement, and for every group of runs sharing (m, b)
    the announced values must pass a chi-squared uniformity test over
    range(m) at the given significance level.
    """
    bob_to_alice = 0
    groups: dict[tuple[int, int], list[int]] = {}
    for t in transcripts:
        kinds = receiver_to_sender_kinds(t)
        bob_to_alice += len(kinds)
        if t.mode == "pcc":
            bob_to_alice -= kinds.count("basis_shift")
            groups.setdefault((t.m, t.b), []).append(t.extra["b_prime"])
    ok = bob_to_alice == 0
    rows = []
    for (m, b), values in sorted(groups.items()):
        counts = np.bincount(values, minlength=m)
        expected = counts.mean()
        stat = float(((counts - expected) ** 2 / expected).sum())
        pvalue = _chi2_sf(stat, m - 1)
        passed = bool(pvalue >= significance)
        rows.append(
            {
                "m": m,
                "b": b,
                "runs": int(counts.sum()),
                "counts": counts.tolist(),
                "chi2": float(stat),
                "pvalue": float(pvalue),
                "ok": passed,
            }
        )
        ok = ok and passed
    return AuditResult(ok, len(transcripts), bob_to_alice, tuple(rows))


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, Event):
        return [value.t, *value.x]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, AliceInputs):
        return dqacm_mod.inputs_to_json(value)
    if isinstance(value, dqacm_mod.BobRecord):
        return dqacm_mod.record_to_json(value)
    return value


def transcript_to_json(t: Transcript) -> dict:
    """Serialize a transcript for reports; quantum payloads stay classical."""
    return {
        "mode": t.mode,
        "m": t.m,
        "n": t.n,
        "b": t.b,
        "messages": [
            {
                "sender": msg.sender,
                "receiver": msg.receiver,
                "kind": msg.kind,
                "payload": _jsonable(msg.payload),
                "emit": _jsonable(msg.emit),
                "deliver": _jsonable(msg.deliver),
                "emit_placement": [[p.kind, p.index] for p in msg.emit_placement],
                "deliver_placement": [[p.kind, p.index] for p in msg.deliver_placement],
            }
            for msg in t.messages
        ],
        "local_ops": [
            {
                "agent": op.agent,
                "kind": op.kind,
                "payload": _jsonable(op.payload),
                "event": _jsonable(op.event),
                "placement": [[p.kind, p.index] for p in op.placement],
            }
            for op in t.local_ops
        ],
        "outputs": {str(k): _jsonable(v) for k, v in t.outputs.items()},
        "extra": {
            k: _jsonable(v)
            for k, v in t.extra.items()
            if k not in ("record", "decoded")
        },
    }
