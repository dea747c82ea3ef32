"""Delegated measurement primitive: encode, shuffle, measure, decode.

One instance fixes a basis family (m bases, n rounds).  The sender
draws a bit matrix r and per-round position shuffles s, and publishes
the slot-wise product state; the receiver picks a basis index c,
measures every slot in basis c, and can later recover row c of r
from the shuffle description.  Measuring a slot whose carrier was
prepared in basis c returns the encoded bit with certainty, so the
decoded row is exact in the noiseless case; all other slots produce
basis-overlap noise that never leaves the record's unused positions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import quantum
from .quantum import BasisFamily, PureState, _as_rng, planar_basis_family

__all__ = [
    "DqacmConfig",
    "AliceInputs",
    "BobRecord",
    "enumerate_permutations",
    "sample_inputs",
    "sample_slots",
    "stage1_honest",
    "decode",
    "k_stage1_honest",
    "config_to_json",
    "config_from_json",
    "inputs_to_json",
    "inputs_from_json",
    "record_to_json",
    "record_from_json",
]


@dataclass(eq=False)
class DqacmConfig:
    """Parameters of one delegated-measurement instance.

    ``gamma`` is the tolerated per-row error fraction used by the
    error-tolerant acceptance rule; it does not influence honest
    simulation.
    """

    m: int
    n: int
    family: BasisFamily
    gamma: float = 0.0
    _slot_cdf: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.family.m != self.m:
            raise ValueError(
                f"family has {self.family.m} bases but config declares m={self.m}"
            )
        if not 0.0 <= self.gamma <= 0.5:
            raise ValueError(f"gamma={self.gamma} outside [0, 0.5]")

    @property
    def l(self) -> int:
        return self.family.l

    def slot_cdf(self) -> np.ndarray:
        """Cumulative outcome distributions for single-slot measurements.

        ``slot_cdf()[c, i, r]`` is the cumulative Born distribution of
        measuring the basis-i bit-r carrier in basis c, computed once
        through :mod:`scotsim.quantum` and cached.  Product states make
        slot-wise sampling exact, which keeps honest runs cheap at any
        m * n.
        """
        if self._slot_cdf is None:
            l, m = self.l, self.m
            table = np.empty((m, m, l, l))
            for c in range(m):
                meas = quantum.basis_measurement(self.family, c)
                for i in range(m):
                    for r in range(l):
                        state = PureState(self.family.bases[i, r], (l,))
                        table[c, i, r] = quantum.full_distribution(state, meas)
            self._slot_cdf = np.cumsum(table, axis=-1)
        return self._slot_cdf


@dataclass(frozen=True, eq=False)
class AliceInputs:
    """Sender randomness: bit matrix ``r`` (m rows, n rounds) and shuffles.

    ``s[j][i]`` is the in-round position of the basis-i carrier in
    round j.
    """

    r: np.ndarray
    s: tuple[tuple[int, ...], ...]

    def __init__(self, r, s) -> None:
        arr = np.asarray(r, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "r", arr)
        object.__setattr__(self, "s", tuple(tuple(map(int, perm)) for perm in s))


@dataclass(frozen=True, eq=False)
class BobRecord:
    """Receiver output: basis choice ``c`` and outcomes ``d`` by position.

    ``d[p, j]`` is the outcome of the slot at position p of round j.
    """

    c: int
    d: np.ndarray

    def __init__(self, c: int, d) -> None:
        arr = np.asarray(d, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "c", int(c))
        object.__setattr__(self, "d", arr)


def enumerate_permutations(m: int) -> tuple[tuple[int, ...], ...]:
    """All permutations of range(m) in lexicographic order."""
    if m < 1:
        raise ValueError("m must be positive")
    return tuple(itertools.permutations(range(m)))


def sample_inputs(config: DqacmConfig, rng) -> AliceInputs:
    """Draw uniform sender randomness."""
    rng = _as_rng(rng)
    r = rng.integers(0, config.l, size=(config.m, config.n))
    # Row-wise shuffles draw exactly what one permutation per round would.
    s = rng.permuted(np.tile(np.arange(config.m), (config.n, 1)), axis=1)
    return AliceInputs(r, s.tolist())


def _validate_run(config: DqacmConfig, inputs: AliceInputs, c: int) -> None:
    m, n = config.m, config.n
    if inputs.r.shape != (m, n):
        raise ValueError(f"r shape {inputs.r.shape} does not match ({m}, {n})")
    if len(inputs.s) != n:
        raise ValueError(f"need {n} shuffles, got {len(inputs.s)}")
    for j, perm in enumerate(inputs.s):
        if sorted(perm) != list(range(m)):
            raise ValueError(f"s[{j}]={perm} is not a permutation of range({m})")
    if not 0 <= c < m:
        raise ValueError(f"c={c} outside range({m})")


def sample_slots(
    config: DqacmConfig,
    c: int | np.ndarray,
    occupant: np.ndarray,
    bits: np.ndarray,
    rng: np.random.Generator,
    flip_rate: float = 0.0,
) -> np.ndarray:
    """Measure single-qudit slots in bases ``c`` through :meth:`DqacmConfig.slot_cdf`.

    Slot k carries vector ``bits[k]`` of basis ``occupant[k]`` and is
    measured in basis ``c[k]`` (``c`` broadcasts against ``occupant``).
    One uniform draw per slot, in C order, picks the outcome from the
    cumulative Born table; a slot measured in its own basis yields its
    bit.  With ``flip_rate > 0`` a second draw per slot, in the same
    order, flips each outcome independently.
    """
    cdf = config.slot_cdf()[c, occupant, bits]
    u = rng.random(bits.shape)
    d = (cdf <= u[..., None]).sum(axis=-1)
    same = occupant == c
    d[same] = bits[same]
    if flip_rate > 0.0:
        d ^= (rng.random(d.shape) < flip_rate).astype(np.int64)
    return d


def stage1_honest(
    config: DqacmConfig,
    inputs: AliceInputs,
    c: int,
    rng,
    flip_rate: float = 0.0,
) -> BobRecord:
    """Measure every slot in basis ``c`` and return the outcome record.

    Slots whose carrier was prepared in basis c yield their encoded bit
    with probability one; the rest are sampled from the slot-wise Born
    distributions of :meth:`DqacmConfig.slot_cdf`.  ``flip_rate`` then
    flips each recorded bit independently, modelling a noisy recorder;
    the exact-decode guarantee holds only at the default 0.
    """
    _validate_run(config, inputs, c)
    if not 0.0 <= flip_rate < 1.0:
        raise ValueError(f"flip_rate={flip_rate} outside [0, 1)")
    if flip_rate > 0.0 and config.l != 2:
        raise ValueError("bit flips are only defined for two-outcome slots")
    rng = _as_rng(rng)
    # occupant[p, j] = basis index of the carrier at position p of round j
    occupant = np.argsort(np.array(inputs.s), axis=1).T
    bits = np.take_along_axis(inputs.r, occupant, axis=0)
    return BobRecord(c, sample_slots(config, c, occupant, bits, rng, flip_rate))


def decode(
    config: DqacmConfig,
    c: int,
    d: np.ndarray,
    s: Sequence[Sequence[int]],
) -> np.ndarray:
    """Recover the basis-c row from a record once the shuffles are known.

    Round j's relevant outcome sits at position ``s[j][c]``.
    """
    if not 0 <= c < config.m:
        raise ValueError(f"c={c} outside range({config.m})")
    if len(s) != config.n:
        raise ValueError(f"need {config.n} shuffles, got {len(s)}")
    return np.array([d[s[j][c], j] for j in range(config.n)], dtype=np.int64)


def k_stage1_honest(
    config: DqacmConfig,
    k: int,
    inputs: AliceInputs,
    c_list: Sequence[int],
    rng,
    flip_rate: float = 0.0,
) -> list[BobRecord]:
    """Measure k independent copies of the same published state.

    Copy t is measured wholly in basis ``c_list[t]``.  The basis choices
    must be distinct and k must stay below m; with k = m - 1 copies a
    receiver still learns at most k rows.
    """
    if not 1 <= k < config.m:
        raise ValueError(f"k={k} outside 1..{config.m - 1}")
    if len(c_list) != k:
        raise ValueError(f"need {k} basis choices, got {len(c_list)}")
    if len(set(int(c) for c in c_list)) != k:
        raise ValueError("basis choices must be distinct")
    rng = _as_rng(rng)
    return [stage1_honest(config, inputs, int(c), rng, flip_rate) for c in c_list]


def _planar_angles(family: BasisFamily) -> tuple[float, ...]:
    """Recover constructor angles from a planar family, or fail loudly."""
    if family.l != 2:
        raise ValueError("only qubit families have planar angles")
    out = []
    for i in range(1, family.m):
        v = family.bases[i, 0]
        if np.max(np.abs(v.imag)) > 1e-12:
            raise ValueError("family is not planar")
        theta = 2.0 * math.atan2(float(v[1].real), float(v[0].real))
        out.append(theta)
    rebuilt = planar_basis_family(family.m, out)
    if not np.allclose(rebuilt.bases, family.bases, atol=1e-10, rtol=0.0):
        raise ValueError("family is not planar")
    return tuple(out)


def config_to_json(config: DqacmConfig) -> dict:
    return {
        "m": config.m,
        "n": config.n,
        "theta": list(_planar_angles(config.family)),
        "gamma": config.gamma,
    }


def config_from_json(doc: Mapping) -> DqacmConfig:
    try:
        m = int(doc["m"])
        n = int(doc["n"])
        thetas = tuple(float(t) for t in doc["theta"])
        gamma = float(doc.get("gamma", 0.0))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed config document: {exc!r}") from exc
    return DqacmConfig(m, n, planar_basis_family(m, thetas), gamma)


def inputs_to_json(inputs: AliceInputs) -> dict:
    return {"r": inputs.r.tolist(), "s": [list(p) for p in inputs.s]}


def inputs_from_json(doc: Mapping) -> AliceInputs:
    return AliceInputs(doc["r"], doc["s"])


def record_to_json(record: BobRecord) -> dict:
    return {"c": record.c, "d": record.d.tolist()}


def record_from_json(doc: Mapping) -> BobRecord:
    return BobRecord(doc["c"], doc["d"])
