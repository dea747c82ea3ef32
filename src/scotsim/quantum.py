"""Finite-dimensional quantum states and projective measurements.

The protocols encode classical bits into slot-wise product states drawn
from a family of local bases.  This module provides the planar basis
family constructors, product-state preparation under round-wise
position permutations, Born-rule measurement of whole states or chosen
subsystems, and a couple of dense linear-algebra helpers.  Every
projective measurement is built from one block of orthonormal columns
per outcome and kept as a padded column stack.  Measurements built
together (:meth:`ProjectiveMeasurement.stack`) pass one batched Gram
check and share one array.  Measuring compresses a state with those
columns, and no d x d projector is kept.  Everything is dense numpy;
preparation is capped at 2**12 total dimensions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError

__all__ = [
    "ORTHONORMALITY_TOL",
    "PROJECTOR_TOL",
    "MAX_TOTAL_DIM",
    "BasisFamily",
    "PureState",
    "ProjectiveMeasurement",
    "MeasureResult",
    "planar_basis_family",
    "bb84_family",
    "equal_spaced_family",
    "overlap_lambda",
    "prepare_product_state",
    "block_columns",
    "block_projectors",
    "measure",
    "full_distribution",
    "spectral_norm",
]

ORTHONORMALITY_TOL = 1e-10
PROJECTOR_TOL = 1e-9
MAX_TOTAL_DIM = 2**12


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True, eq=False)
class BasisFamily:
    """A family of orthonormal bases of a common local dimension.

    ``bases[i][r]`` is the r-th vector of basis ``i`` as a complex row.
    Basis 0 plays the role of the computational basis in all named
    constructors.  Orthonormality of every basis is enforced to
    ``ORTHONORMALITY_TOL`` at construction.
    """

    bases: np.ndarray

    def __init__(self, bases) -> None:
        arr = np.asarray(bases, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"bases must have shape (m, l, l), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("a family needs at least two bases")
        eye = np.eye(arr.shape[1])
        for i, b in enumerate(arr):
            gram = b.conj() @ b.T
            if not np.allclose(gram, eye, atol=ORTHONORMALITY_TOL, rtol=0.0):
                raise ValueError(f"basis {i} is not orthonormal")
        arr.setflags(write=False)
        object.__setattr__(self, "bases", arr)

    @property
    def m(self) -> int:
        """Number of bases."""
        return self.bases.shape[0]

    @property
    def l(self) -> int:
        """Local Hilbert-space dimension."""
        return self.bases.shape[1]

    def vector(self, i: int, r: int) -> np.ndarray:
        return self.bases[i, r]


def planar_basis_family(m: int, thetas: Sequence[float]) -> BasisFamily:
    """Family of ``m`` real qubit bases at the given rotation angles.

    Basis 0 is computational.  For 1 <= i < m with angle ``thetas[i-1]``
    the vectors are ``[cos(t/2), sin(t/2)]`` and ``[sin(t/2), -cos(t/2)]``.
    Angles must be strictly increasing inside (0, pi), which keeps all
    pairwise overlaps strictly below 1.  Every family built here shares
    the same maximally entangled state: summing ``v (x) v`` over the two
    vectors of any one basis gives ``|00> + |11>`` exactly.
    """
    thetas = tuple(float(t) for t in thetas)
    if m < 2:
        raise ValueError("m must be at least 2")
    if len(thetas) != m - 1:
        raise ValueError(f"need {m - 1} angles for m={m}, got {len(thetas)}")
    prev = 0.0
    for t in thetas:
        if not prev < t < math.pi:
            raise ValueError("angles must be strictly increasing within (0, pi)")
        prev = t
    bases = np.empty((m, 2, 2), dtype=np.complex128)
    bases[0] = np.eye(2)
    for i, t in enumerate(thetas, start=1):
        c, s = math.cos(t / 2.0), math.sin(t / 2.0)
        bases[i, 0] = (c, s)
        bases[i, 1] = (s, -c)
    fam = BasisFamily(bases)
    # The shared entangled state is exact for real planar vectors; guard anyway.
    target = np.array([1.0, 0.0, 0.0, 1.0])
    for i in range(m):
        acc = sum(np.kron(bases[i, r].conj(), bases[i, r]) for r in range(2))
        if not np.allclose(acc, target, atol=ORTHONORMALITY_TOL, rtol=0.0):
            raise RuntimeError(f"basis {i} does not share the entangled state |00> + |11>")
    return fam


def bb84_family() -> BasisFamily:
    """Computational plus diagonal basis, the two-basis family at pi/2."""
    return planar_basis_family(2, (math.pi / 2.0,))


def equal_spaced_family(m: int) -> BasisFamily:
    """The m-basis planar family at equally spaced angles ``i*pi/m``."""
    return planar_basis_family(m, tuple(i * math.pi / m for i in range(1, m)))


def overlap_lambda(family: BasisFamily) -> float:
    """Worst-case squared overlap between vectors of distinct bases.

    ``max |<v|w>|**2`` over all pairs drawn from different bases.  This
    is the figure of merit entering every security bound; it is 1/2 for
    the two-basis pi/2 family and ``cos(pi/(2m))**2`` for the equally
    spaced m-basis family.
    """
    b = family.bases
    best = 0.0
    for i in range(family.m):
        for k in range(i + 1, family.m):
            ov = np.abs(b[i].conj() @ b[k].T) ** 2
            best = max(best, float(ov.max()))
    return best


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized pure state over an ordered tuple of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, amplitudes, dims: Sequence[int]) -> None:
        vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        dims = tuple(int(d) for d in dims)
        if math.prod(dims) != vec.size:
            raise ValueError(f"dims {dims} inconsistent with amplitude length {vec.size}")
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state norm {nrm} deviates from 1")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)
        object.__setattr__(self, "dims", dims)


def prepare_product_state(
    family: BasisFamily, r, s: Sequence[Sequence[int]]
) -> PureState:
    """Slot-wise product state encoding bit matrix ``r`` under shuffles ``s``.

    ``r`` has shape (m, n): row ``i`` holds the bits carried by basis
    ``i`` over the n rounds.  ``s`` lists one permutation of range(m)
    per round; ``s[j][i]`` is the slot position inside round ``j`` where
    the basis-``i`` carrier sits.  Slots are ordered round-major, so
    slot ``j*m + p`` holds the basis-``inv(s[j])(p)`` vector for that
    round.  Raises :class:`CapacityError` above ``MAX_TOTAL_DIM``.
    """
    r = np.asarray(r, dtype=np.int64)
    m, l = family.m, family.l
    if r.ndim != 2 or r.shape[0] != m:
        raise ValueError(f"r must have shape (m, n) with m={m}, got {r.shape}")
    n = r.shape[1]
    if np.any((r < 0) | (r >= l)):
        raise ValueError("bit values must lie in range(l)")
    if len(s) != n:
        raise ValueError(f"need one permutation per round, got {len(s)} for n={n}")
    if l ** (m * n) > MAX_TOTAL_DIM:
        raise CapacityError(
            f"product state dimension {l}**{m * n} exceeds {MAX_TOTAL_DIM}"
        )
    vec = np.ones(1, dtype=np.complex128)
    for j in range(n):
        perm = tuple(s[j])
        if sorted(perm) != list(range(m)):
            raise ValueError(f"s[{j}]={perm} is not a permutation of range({m})")
        inv = [0] * m
        for i, p in enumerate(perm):
            inv[p] = i
        for p in range(m):
            vec = np.kron(vec, family.bases[inv[p], r[inv[p], j]])
    return PureState(vec, (l,) * (m * n))


def block_columns(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The (E, d, w) stack of (d, r_e) column blocks, zero-padded to w = max r_e.

    Blocks with leading axes, (..., d, r_e), give a (..., E, d, w) stack.
    """
    d, width = blocks[0].shape[-2], max(v.shape[-1] for v in blocks)
    cols = np.zeros(blocks[0].shape[:-2] + (len(blocks), d, width), dtype=np.complex128)
    for e, v in enumerate(blocks):
        cols[..., e, :, : v.shape[-1]] = v
    return cols


def block_projectors(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The (E, d, d) projectors ``V_e V_e^dagger`` of (d, r_e) column blocks.

    One stacked product of the :func:`block_columns` stack.  The padding
    also fixes the rounding: OpenBLAS can round a rank-1 block's product
    in the last bit differently on its own than beside wider blocks, and
    the recorded measurement digests pin the padded form.
    """
    cols = block_columns(blocks)
    return cols @ cols.conj().swapaxes(1, 2)


def _column_stack(bases: np.ndarray, ranks: tuple[int, ...]) -> np.ndarray:
    """The read-only (S, E, d, w) column stacks of S checked (d, d) bases.

    Basis k's outcome e takes the next ``ranks[e]`` columns of
    ``bases[k]``, padded by :func:`block_columns`.  One Gram product
    checks every basis: ``|V^dagger V - I|`` must stay within
    ``PROJECTOR_TOL`` entrywise, and a NaN entry fails.  The error names
    the first failing basis (when there are several) and the outcomes
    that own its first failing entry.
    """
    n_bases, d = bases.shape[:2]
    dev = np.abs(bases.conj().swapaxes(1, 2) @ bases - np.eye(d))
    if not dev.max() <= PROJECTOR_TOL:
        k, i, j = np.argwhere(~(dev <= PROJECTOR_TOL))[0]
        owner = np.repeat(np.arange(len(ranks)), ranks)
        a, b = sorted((int(owner[i]), int(owner[j])))
        where = f"basis {k}: " if n_bases > 1 else ""
        if a == b:
            raise ValueError(f"{where}block {a} is not orthonormal")
        raise ValueError(f"{where}blocks {a} and {b} overlap")
    edges = list(itertools.accumulate(ranks, initial=0))
    cols = block_columns([bases[..., a:b] for a, b in zip(edges, edges[1:])])
    cols.setflags(write=False)
    return cols


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """A complete projective measurement given by orthonormal column blocks.

    Outcome e is a (d, r_e) block ``V_e`` of orthonormal columns with
    projector ``P_e = V_e V_e^dagger``; a rank-0 outcome is a (d, 0)
    block.  One check runs at construction: the blocks side by side form
    a d x d matrix V with ``V^dagger V = I`` within ``PROJECTOR_TOL``.
    That makes every P_e Hermitian and idempotent, the P_e mutually
    orthogonal, and their sum the identity.  :meth:`stack` builds many
    measurements of one rank profile at once, with one Gram product for
    all of their bases, and each of them is a view into one shared array.
    ``columns`` is the read-only (E, d, w) :func:`block_columns` stack and
    ``ranks`` lists the r_e; :func:`block_projectors` builds the P_e from
    ``columns`` where a caller needs them.  ``subsystems`` restricts the
    action to the listed tensor factors of the measured state (None means
    the whole space).
    """

    columns: np.ndarray
    ranks: tuple[int, ...]
    subsystems: tuple[int, ...] | None = None

    def __init__(self, blocks, subsystems=None) -> None:
        blocks = [np.asarray(v, dtype=np.complex128) for v in blocks]
        if not blocks:
            raise ValueError("measurement needs at least one outcome")
        if any(v.ndim != 2 for v in blocks):
            raise ValueError("each outcome needs a (d, rank) block of columns")
        d = blocks[0].shape[0]
        for e, v in enumerate(blocks):
            if v.shape[0] != d:
                raise ValueError(f"block {e} has {v.shape[0]} rows, block 0 has {d}")
        ranks = tuple(v.shape[1] for v in blocks)
        if sum(ranks) != d:
            raise ValueError(f"blocks have {sum(ranks)} columns in all, need {d}")
        joint = np.concatenate(blocks, axis=1)
        self._set(_column_stack(joint[None], ranks)[0], ranks, subsystems)

    @classmethod
    def stack(cls, bases, ranks: Sequence[int]) -> list[ProjectiveMeasurement]:
        """One measurement per (d, d) basis of the (S, d, d) ``bases``.

        Outcome e of each takes the next ``ranks[e]`` columns of its
        basis, as ``cls(np.split(basis, np.cumsum(ranks[:-1]), axis=1))``
        would, but all S bases pass one Gram check, and every measurement's
        ``columns`` is a view into one read-only (S, E, d, w) array.
        """
        bases = np.asarray(bases, dtype=np.complex128)
        ranks = tuple(int(r) for r in ranks)
        if bases.ndim != 3 or bases.shape[1] != bases.shape[2]:
            raise ValueError(f"bases must have shape (S, d, d), got {bases.shape}")
        d = bases.shape[1]
        if not ranks or min(ranks) < 0 or sum(ranks) != d:
            raise ValueError(f"rank profile {list(ranks)} does not resolve dimension {d}")
        out = []
        for columns in _column_stack(bases, ranks):
            pm = cls.__new__(cls)
            pm._set(columns, ranks, None)
            out.append(pm)
        return out

    def _set(self, columns, ranks, subsystems) -> None:
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(
            self,
            "subsystems",
            None if subsystems is None else tuple(int(i) for i in subsystems),
        )

    @property
    def n_outcomes(self) -> int:
        return len(self.columns)

    @property
    def dim(self) -> int:
        return self.columns.shape[1]


def _measured_matrix(state: PureState, meas: ProjectiveMeasurement):
    """Reshape amplitudes to (measured block, rest), plus undo metadata."""
    if meas.subsystems is None:
        subs = tuple(range(len(state.dims)))
    else:
        subs = meas.subsystems
        if len(set(subs)) != len(subs) or any(
            not 0 <= i < len(state.dims) for i in subs
        ):
            raise ValueError(f"bad subsystem selection {subs}")
    rest = tuple(i for i in range(len(state.dims)) if i not in subs)
    d_meas = math.prod(state.dims[i] for i in subs)
    if meas.dim != d_meas:
        raise ValueError(
            f"measurement dimension {meas.dim} does not match subsystems ({d_meas})"
        )
    tensor = state.amplitudes.reshape(state.dims)
    mat = tensor.transpose(subs + rest).reshape(d_meas, -1)
    return mat, subs, rest


@dataclass(frozen=True, eq=False)
class MeasureResult:
    outcome: int
    probability: float
    post_state: PureState


def full_distribution(state: PureState, meas: ProjectiveMeasurement) -> np.ndarray:
    """Born probabilities ``||V_e^dagger psi||**2`` of every outcome, in outcome order."""
    mat, _, _ = _measured_matrix(state, meas)
    compressed = meas.columns.conj().swapaxes(1, 2) @ mat
    probs = np.sum(np.abs(compressed) ** 2, axis=(1, 2))
    # Completeness of the column blocks keeps the total at 1.
    return probs / probs.sum()


def measure(state: PureState, meas: ProjectiveMeasurement, rng) -> MeasureResult:
    """Sample one outcome and return it with the collapsed state."""
    rng = _as_rng(rng)
    mat, subs, rest = _measured_matrix(state, meas)
    probs = full_distribution(state, meas)
    outcome = int(rng.choice(len(probs), p=probs))
    v = meas.columns[outcome]
    collapsed = v @ (v.conj().T @ mat)
    collapsed /= np.linalg.norm(collapsed)
    meas_dims = tuple(state.dims[i] for i in subs)
    rest_dims = tuple(state.dims[i] for i in rest)
    tensor = collapsed.reshape(meas_dims + rest_dims)
    inverse = np.argsort(subs + rest)
    post = PureState(tensor.transpose(inverse).reshape(-1), state.dims)
    return MeasureResult(outcome, float(probs[outcome]), post)


def spectral_norm(op) -> float:
    """Largest singular value of a dense operator (capped at 2**12 rows)."""
    arr = np.asarray(op, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    if max(arr.shape) > MAX_TOTAL_DIM:
        raise CapacityError(f"operator size {arr.shape} exceeds {MAX_TOTAL_DIM}")
    return float(np.linalg.norm(arr, 2))
