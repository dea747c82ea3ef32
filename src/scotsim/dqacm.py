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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .quantum import BasisFamily, _as_rng

__all__ = [
    "DqacmConfig",
    "AliceInputs",
    "BobRecord",
    "enumerate_permutations",
    "sample_inputs",
    "sample_slots",
    "stage1_honest",
    "decode",
    "inputs_to_json",
    "record_to_json",
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
        measuring the basis-i bit-r carrier in basis c: the cumulative sum
        over a of ``|<b_c[a]|b_i[r]>|**2``, built once and cached.  Its
        last entry is set to exactly 1, so a uniform draw below 1 always
        lands on an outcome below l.  Product states make slot-wise
        sampling exact, which keeps honest runs cheap at any m * n.
        """
        if self._slot_cdf is None:
            bases = self.family.bases
            overlaps = np.einsum("cax,irx->cira", bases.conj(), bases)
            table = np.cumsum(np.abs(overlaps) ** 2, axis=-1)
            table[..., -1] = 1.0
            self._slot_cdf = table
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


def _occupants(config: DqacmConfig, inputs: AliceInputs, c: int) -> np.ndarray:
    """Check one run's inputs; return the basis index at each (position, round).

    Shuffles and bits are checked in one pass over the (n, m) shuffle
    array: ``bad`` is zero exactly where row j sorts to range(m) and the
    round's bits lie in range(l) (``r // l`` is 0 only there).
    """
    m, n = config.m, config.n
    if inputs.r.shape != (m, n):
        raise ValueError(f"r shape {inputs.r.shape} does not match ({m}, {n})")
    if not 0 <= c < m:
        raise ValueError(f"c={c} outside range({m})")
    shuffles = np.array(inputs.s)
    if shuffles.shape != (n, m):
        raise ValueError(f"need {n} shuffles of range({m}), got {inputs.s}")
    bad = (np.sort(shuffles, axis=1) - np.arange(m)) | (inputs.r.T // config.l)
    if np.count_nonzero(bad):
        j = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"round {j}: s[{j}]={inputs.s[j]} must permute range({m}) "
            f"and r[:, {j}]={inputs.r[:, j].tolist()} lie in range({config.l})"
        )
    return np.argsort(shuffles, axis=1).T


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
    occupant = _occupants(config, inputs, c)
    if not 0.0 <= flip_rate < 1.0:
        raise ValueError(f"flip_rate={flip_rate} outside [0, 1)")
    if flip_rate > 0.0 and config.l != 2:
        raise ValueError("bit flips are only defined for two-outcome slots")
    rng = _as_rng(rng)
    bits = inputs.r[occupant, np.arange(config.n)]
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


def inputs_to_json(inputs: AliceInputs) -> dict:
    return {"r": inputs.r.tolist(), "s": [list(p) for p in inputs.s]}


def record_to_json(record: BobRecord) -> dict:
    return {"c": record.c, "d": record.d.tolist()}
