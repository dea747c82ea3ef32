"""Adversarial strategies against the delegated-measurement game.

A dishonest receiver who must answer in two separated regions is
modelled by a pre-processing isometry M from the message register into
the message and an ancilla, a split of that joint system into two
halves, and per-shuffle projective measurements on each half.  M is
U (I x chi) for a unitary U and an ancilla prepared in chi: all of the
pre-processing that the game can see.  For a Haar U and any fixed chi,
M is a Haar-random isometry (left invariance of the Haar measure), so
random draws take M directly.  The cheating probability averages, over
all shuffle tuples s and bit matrices r, the chance that half 0 outputs
the row named by target index l0 while half 1 simultaneously outputs
the row named by l1.  Everything is evaluated by exact enumeration over
the (m!)**n shuffle tuples and l**(m n) bit matrices, which caps
problem sizes at m in {2, 3}, n at most 3, and 2**12 total dimensions.

The see-saw optimizer alternates closed-form coordinate updates:
pairwise projector exchanges driven by per-outcome score operators for
each half, then a polar step on M (:attr:`Strategy.isometry`).  Each
update is non-decreasing, and one guard reverts any numerically
regressive one, so the reported trace is monotone.

The gamma game credits an answer within Hamming distance ``n * gamma``
of the true row, so it depends on gamma only through the integer radius
``floor(n * gamma)``, and radius 0 is the exact game.  A strategy is
frozen, its isometry and measurement map included, so it keeps the value
of each game it is scored on, keyed by the game and the radius: scoring
one strategy at exact, gamma = 0.1 and gamma = 0.25 at n <= 2 runs the
kernel once.

Every measurement is built from orthonormal column blocks, one (d, rank)
block V_e per outcome with P_e = V_e V_e^dagger (see
:class:`~scotsim.quantum.ProjectiveMeasurement`): a Haar measurement
splits the columns of a Haar unitary, the closed-form strategies take
Kronecker products of basis columns and identities.  Random strategies,
random measurements and the see-saw's start draw all of their Haar
unitaries of one dimension together (:func:`_haar_bases`): one batched,
phase-fixed QR per stack, and one batched Gram check for the
measurements they make, with the same Gaussians, in the same order, and
so the same bytes as one draw at a time.  The contraction
kernel reads the blocks as zero-padded column stacks and never builds a
d x d projector nor a dense encoding: it encodes each shuffle tuple
round by round and undoes it the same way for the gradient, and the
lemma check (:func:`verify_sandwich_norm`) reads the same round
factors.  The see-saw keeps the blocks and M as its state, and the kernel
hands it score factors X_e rather than d x d score operators (S_e is
proportional to X_e X_e^dagger).  An exchange of outcomes a and b
therefore needs no d x d eigendecomposition: their joint range is
spanned by [V_a V_b] as it stands, and only the compressed score
difference on it is diagonalised.  Its eigenvalues above a relative
tolerance (``_SPLIT_TOL`` times the largest magnitude) go to a and the
rest to b, so rounding noise never decides on which side a zero
eigenvalue falls, and results do not depend on the BLAS thread count.  A
revert restores one branch's blocks or M, and the final blocks and M
become the result's strategy as they stand.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import types
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .dqacm import DqacmConfig, enumerate_permutations, sample_inputs
from .errors import CapacityError
from .quantum import (
    MAX_TOTAL_DIM,
    ProjectiveMeasurement,
    _as_rng,
    block_columns,
    block_projectors,
    overlap_lambda,
    prepare_product_state,
    spectral_norm,
)

__all__ = [
    "Strategy",
    "BranchingStrategy",
    "SeesawResult",
    "SandwichNormResult",
    "EquivalenceResult",
    "cheat_probability_exact",
    "cheat_probability_gamma",
    "seesaw_optimize",
    "random_strategy",
    "random_measurement",
    "honest_single_branch_strategy",
    "intercept_strategy",
    "omega_weight",
    "compose_shuffles",
    "verify_sandwich_norm",
    "verify_procedure_equivalence",
    "random_branching_strategy",
    "strategy_hash",
]

MAX_N = 3
_ISOMETRY_TOL = 1e-9
# Relative eigenvalue cut of the see-saw's exchange split (_exchange_update).
_SPLIT_TOL = 1e-10


def _phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """Q of the thin QR of each matrix in ``z``, column j times the phase of R_jj.

    Without that fix the draw is not Haar (Mezzadri, Notices AMS 54, 592
    (2007)).  A stack of matrices takes one batched QR.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random (rows, cols) isometry; with rows == cols, a Haar unitary."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return _phase_fixed_qr(z)


# Complex Gaussian bytes per batch of _haar_bases.  A batch's QR, phase
# fix and Gram check briefly hold a few copies of it, so it stays small.
# At ancilla 2 a draw at n = 1 or at m = 2, n = 2 is one batch and one at
# m = 3, n = 2 at most twelve; a larger draw holds little beyond its bases.
_HAAR_BATCH_BYTES = 2**18


def _haar_bases(dims: Sequence[int], count: int, rng: np.random.Generator):
    """``count`` Haar unitaries of each dimension in ``dims``, one batched QR per stack.

    The Gaussians are those of ``_haar_isometry(d, d, rng)`` called for d
    in ``dims``, ``count`` times over, so the unitaries are those calls'
    bytes.  Yields one tuple of (c, d, d) stacks per batch of c draws.
    """
    sizes = [d * d for d in dims]
    step = max(1, _HAAR_BATCH_BYTES // (16 * sum(sizes)))
    for lo in range(0, count, step):
        flat = rng.standard_normal((min(step, count - lo), 2 * sum(sizes)))
        stacks, at = [], 0
        for d, size in zip(dims, sizes):
            re, im = (flat[:, a : a + size].reshape(-1, d, d) for a in (at, at + size))
            stacks.append(_phase_fixed_qr(re + 1j * im))
            at += 2 * size
        yield tuple(stacks)


def _capped(total: int, what: str) -> int:
    """``total``, refused above ``MAX_TOTAL_DIM`` before any work is done."""
    if total > MAX_TOTAL_DIM:
        raise CapacityError(f"{what} dimension {total} exceeds {MAX_TOTAL_DIM}")
    return total


def _ancilla_total(game: _Game, ancilla_dim: int, what: str) -> int:
    """The joint dimension with one ancilla factor, checked before any draw."""
    if ancilla_dim < 1:
        raise ValueError(f"ancilla_dim must be at least 1, got {ancilla_dim}")
    return _capped(game.dim_a * ancilla_dim, what)


def _rank_profile(
    dim: int, n_outcomes: int, ranks: Sequence[int] | None = None
) -> tuple[int, ...]:
    """``ranks``, checked before any draw; by default ``dim`` split as evenly as possible."""
    if ranks is None:
        base, rem = divmod(dim, n_outcomes)
        ranks = [base + (1 if k < rem else 0) for k in range(n_outcomes)]
    ranks = tuple(int(x) for x in ranks)
    if len(ranks) != n_outcomes or any(x < 0 for x in ranks) or sum(ranks) != dim:
        raise ValueError(f"rank profile {list(ranks)} does not resolve dimension {dim}")
    return ranks


def _haar_measurements(profiles: Sequence[tuple[int, ...]], count: int, rng):
    """``count`` Haar measurements per rank profile, drawn by :func:`_haar_bases`.

    Returns one list per profile; draw i of every profile comes before
    draw i + 1 of any, as successive :func:`random_measurement` calls
    would draw them.
    """
    out = [[] for _ in profiles]
    for stacks in _haar_bases([sum(p) for p in profiles], count, rng):
        for pms, bases, ranks in zip(out, stacks, profiles):
            pms += ProjectiveMeasurement.stack(bases, ranks)
    return out


def random_measurement(
    dim: int, n_outcomes: int, rng, ranks: Sequence[int] | None = None
) -> ProjectiveMeasurement:
    """Haar-random projective measurement with the given rank profile.

    Default ranks split ``dim`` as evenly as possible over the outcomes;
    when ``dim < n_outcomes`` the surplus outcomes get rank-0 (all-zero)
    projectors, which the game treats as outcomes never produced.
    """
    profile = _rank_profile(dim, n_outcomes, ranks)
    return _haar_measurements([profile], 1, _as_rng(rng))[0][0]


def compose_shuffles(
    s: Sequence[Sequence[int]], v: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Round-wise composition: the shuffle whose row i sits where s put row v[j][i].

    Returns the tuple with entries ``s[j][v[j][i]]``.
    """
    if len(s) != len(v):
        raise ValueError("s and v must have the same number of rounds")
    out = []
    for sj, vj in zip(s, v):
        if sorted(vj) != list(range(len(sj))):
            raise ValueError(f"{vj} is not a permutation of range({len(sj)})")
        out.append(tuple(sj[vj[i]] for i in range(len(sj))))
    return tuple(out)


def omega_weight(
    v: Sequence[Sequence[int]], l0: int, l1: int, s_probe: Sequence[Sequence[int]]
) -> int:
    """Number of rounds of ``v`` that alias target l1 onto target l0.

    Defined through position collisions: round j counts when the
    composed shuffle places row l1 where the probe shuffle placed row
    l0.  The count does not depend on the probe (positions cancel), so
    it is evaluated at ``s_probe`` and at a second internally chosen
    probe and the two counts must agree.
    """
    m = len(v[0])
    if l0 == l1 or not (0 <= l0 < m and 0 <= l1 < m):
        raise ValueError(f"targets ({l0}, {l1}) invalid for m={m}")

    def count(probe) -> int:
        sv = compose_shuffles(probe, v)
        return sum(1 for j in range(len(v)) if sv[j][l1] == probe[j][l0])

    alt_perm = tuple(reversed(range(m)))
    alt = tuple(alt_perm for _ in v)
    if tuple(tuple(p) for p in s_probe) == alt:
        alt = tuple(tuple(range(m)) for _ in v)
    w1, w2 = count(tuple(tuple(p) for p in s_probe)), count(alt)
    if w1 != w2:
        raise RuntimeError("weight must not depend on the probe shuffle")
    return w1


def _game_key(config: DqacmConfig, targets) -> tuple:
    """What a game depends on: m, n, the targets and the basis family."""
    return (config.m, config.n, tuple(targets), config.family.bases.tobytes())


class _Game:
    """Precomputed enumeration data for one (config, targets) pair.

    ``rounds[pi]`` encodes one round under permutation pi: its column
    ``col`` is the product state of the round's bits read off ``col``
    slot-major.  A shuffle tuple s encodes by the Kronecker product of
    ``rounds[s[j]]`` over rounds j, never built as one matrix.
    ``slots[si]`` holds the decode slots of targets l0 and l1, one per
    round, then the rest.  Transposing the column bits into that order
    sorts the columns by (e0, e1), each pair owning K = dim_a / l**(2n)
    of them.  ``cross_norms`` keeps the lemma check's round norms per
    (pi, rho), filled as :func:`verify_sandwich_norm` asks for them.
    """

    def __init__(self, config: DqacmConfig, targets: tuple[int, int]):
        m, n, l = config.m, config.n, config.l
        l0, l1 = targets
        if m not in (2, 3):
            raise CapacityError(f"adversarial enumeration supports m in {{2, 3}}, got {m}")
        if l != 2:
            raise CapacityError(f"adversarial enumeration supports qubit families only, got l={l}")
        if n > MAX_N:
            raise CapacityError(f"adversarial enumeration supports n <= {MAX_N}, got {n}")
        if l ** (m * n) > MAX_TOTAL_DIM:
            raise CapacityError("state space exceeds the dense-enumeration cap")
        if l0 == l1 or not (0 <= l0 < m and 0 <= l1 < m):
            raise ValueError(f"targets ({l0}, {l1}) must be distinct indices below {m}")
        self.config = config
        self.targets = (l0, l1)
        self.key = _game_key(config, self.targets)
        self.m, self.n, self.l = m, n, l
        self.dim_a = l ** (m * n)
        self.n_out = l**n
        self.s_tuples = tuple(
            itertools.product(enumerate_permutations(m), repeat=n)
        )
        bases = config.family.bases
        self.rounds = {
            pi: functools.reduce(np.kron, [bases[i].T for i in np.argsort(pi)])
            for pi in enumerate_permutations(m)
        }

        self.cross_norms: dict[tuple, float] = {}
        self.slots = []
        for s in self.s_tuples:
            decode = [tuple(j * m + s[j][t] for j in range(n)) for t in (l0, l1)]
            rest = tuple(k for k in range(m * n) if k not in decode[0] + decode[1])
            self.slots.append((*decode, rest))

    def ball(self, radius: int) -> np.ndarray:
        """(E, b) outcomes accepted for each decoded value e: within Hamming distance radius."""
        e = np.arange(self.n_out)
        dist = np.array([[bin(a ^ b).count("1") for b in e] for a in e])
        return np.nonzero(dist <= radius)[1].reshape(self.n_out, -1)


_GAME_CACHE: dict[tuple, _Game] = {}


def _game_for(config: DqacmConfig, targets: tuple[int, int]) -> _Game:
    key = _game_key(config, targets)
    game = _GAME_CACHE.get(key)
    if game is None:
        game = _Game(config, targets)
        if len(_GAME_CACHE) > 32:
            _GAME_CACHE.clear()
        _GAME_CACHE[key] = game
    return game


class _SplitSystem:
    """The tensor layout and pre-processing shared by both strategy kinds.

    The factors are ``qudit_count`` message qudits of dimension
    ``local_dim`` followed by the ancilla factors; ``split`` partitions
    them into the branch-0 and branch-1 subsystems of dimensions d0 and
    d1.  ``isometry`` is the (total, d_a) pre-processing M = U (I x chi)
    from the d_a-dimensional message register onto all factors, for a
    unitary U on all factors and the ancilla in chi; the game reads nothing
    else, and random producers draw M alone.  Checked once: M^dagger M = I.
    The strategy keeps its own read-only copy of M, so no write to the
    caller's array can change it.  Pickling and copying rebuild it through
    ``__init__``, checks included; the copy keeps no scores.
    """

    def __reduce__(self):
        args = (getattr(self, f.name) for f in fields(self))
        return type(self), tuple(
            dict(a) if isinstance(a, types.MappingProxyType) else a for a in args
        )

    def _set_layout(self, ancilla_dims, isometry, split, qudit_count, local_dim):
        ancilla_dims = tuple(int(d) for d in ancilla_dims)
        d_a = local_dim**qudit_count
        total = _capped(d_a * math.prod(ancilla_dims), "strategy")
        iso = np.array(isometry, dtype=np.complex128)
        if iso.shape != (total, d_a):
            raise ValueError(f"isometry shape {iso.shape} is not {(total, d_a)}")
        # Written so that a NaN entry fails too.
        if not np.abs(iso.conj().T @ iso - np.eye(d_a)).max() <= _ISOMETRY_TOL:
            raise ValueError("strategy isometry fails the check M^dagger M = I")
        idx0 = tuple(int(i) for i in split[0])
        idx1 = tuple(int(i) for i in split[1])
        if sorted(idx0 + idx1) != list(range(qudit_count + len(ancilla_dims))):
            raise ValueError("split must partition all tensor factors")
        iso.setflags(write=False)
        object.__setattr__(self, "ancilla_dims", ancilla_dims)
        object.__setattr__(self, "isometry", iso)
        object.__setattr__(self, "split", (idx0, idx1))
        object.__setattr__(self, "qudit_count", int(qudit_count))
        object.__setattr__(self, "local_dim", int(local_dim))

    @staticmethod
    def _check_dim(what: str, pm: ProjectiveMeasurement, want: int) -> None:
        if pm.dim != want:
            raise ValueError(f"{what} measurement has dim {pm.dim}, want {want}")

    @property
    def factors(self) -> tuple[int, ...]:
        return (self.local_dim,) * self.qudit_count + self.ancilla_dims

    @property
    def d0(self) -> int:
        return math.prod(self.factors[i] for i in self.split[0])

    @property
    def d1(self) -> int:
        return math.prod(self.factors[i] for i in self.split[1])

    @property
    def total_dim(self) -> int:
        return math.prod(self.factors)


@dataclass(frozen=True, eq=False)
class Strategy(_SplitSystem):
    """A two-branch cheating strategy.

    ``isometry`` maps the m*n message qudits onto the tensor factors (the
    qudits followed by the ancilla factors), and ``split`` partitions
    those into the branch-0 and branch-1 subsystems.  ``measurements``
    maps ``(branch, s)`` to the projective measurement that branch applies
    once the shuffle tuple s is announced; each has ``l**n`` outcomes
    interpreted as the guessed row value; the map is read-only.
    """

    targets: tuple[int, int]
    ancilla_dims: tuple[int, ...]
    isometry: np.ndarray
    split: tuple[tuple[int, ...], tuple[int, ...]]
    measurements: Mapping[tuple[int, tuple], ProjectiveMeasurement]
    qudit_count: int
    local_dim: int = 2

    def __init__(
        self, targets, ancilla_dims, isometry, split, measurements, qudit_count, local_dim=2
    ):
        self._set_layout(ancilla_dims, isometry, split, qudit_count, local_dim)
        meas = dict(measurements)
        for (branch, _s), pm in meas.items():
            self._check_dim(f"branch {branch}", pm, self.d1 if branch else self.d0)
        object.__setattr__(self, "targets", (int(targets[0]), int(targets[1])))
        object.__setattr__(self, "measurements", types.MappingProxyType(meas))
        # (game key, radius) -> value, filled by _evaluate's kernel pass alone.
        object.__setattr__(self, "_values", {})


def _permute_rows(mat: np.ndarray, factors: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the row tensor factors of a (rows, cols) matrix."""
    cols = mat.shape[1]
    t = mat.reshape(tuple(factors) + (cols,))
    return t.transpose(tuple(perm) + (len(factors),)).reshape(-1, cols)


def _check_compat(game: _Game, strategy: Strategy) -> None:
    if strategy.qudit_count != game.m * game.n:
        raise ValueError("strategy qudit count does not match the game")
    if strategy.local_dim != game.l:
        raise ValueError(f"strategy local dimension {strategy.local_dim} is not l={game.l}")
    if strategy.targets != game.targets:
        raise ValueError("strategy was built for different targets")
    for s in game.s_tuples:
        for branch in (0, 1):
            pm = strategy.measurements.get((branch, s))
            if pm is None:
                raise ValueError(f"strategy lacks a measurement for branch {branch} at {s}")
            if pm.n_outcomes != game.n_out:
                raise ValueError("measurement outcome count must be l**n")


def _contract(game: _Game, iso, factors, split, c0, c1, ball=None, scores=None, grad=False):
    """The cheating-game contraction, one shuffle tuple at a time.

    ``iso`` is a strategy's (total, d_a) isometry M, ``factors`` and
    ``split`` its layout (see :class:`Strategy`).  ``c0[si]`` and
    ``c1[si]`` are the two branches' (E, d, w) column stacks for shuffle
    tuple ``si``, E = l**n (see ``ProjectiveMeasurement.columns``);
    ``ball`` (see ``_Game.ball``) replaces each V_e by the columns of its
    ball.  The state ``W = M B_s`` is encoded round by round, the first
    n-1 rounds once for the m! adjacent tuples sharing them, and one
    transpose of factors and column bits (``game.slots``) gives it the
    shape (e_f, d_f, e_o, d_o, K): block (e0, e1) holds the K bit matrices
    decoding to (e0, e1).  The first branch f's stacked ``V_f^dagger``
    compresses W, the other branch's compresses that, and the shuffle adds
    ``||(V0[e0]^dagger x V1[e1]^dagger) W[e0, e1]||**2``; padded columns
    add zeros.

    Returns ``(value, score_factors, grad)``.  ``value`` averages over
    shuffles and bit matrices.  ``scores=b`` (exact game only, no
    ``ball``) also returns branch b's per-shuffle score factors X, the
    other branch's compressed ``V_f^dagger W`` without padded rows,
    shape (E, d_b, d_f K): branch b's score operators are
    ``S_e = norm X_e X_e^dagger`` with ``norm = 1 / (dim_a * shuffles)``,
    and ``sum_e tr(P_e S_e) = value`` summed over shuffles.  The
    see-saw's exchange (:func:`_exchange_update`) reads the factors as
    they are; for branch 0 at the canonical m=3, n=2 split they are
    (4, 64, 8), against (4, 64, 64) for the score operators.
    ``grad=True`` (``scores`` None) gives the (total, d_a) linear gradient
    h, ``Re tr(M^dagger h) = value``, expanding the compressed state back
    and undoing ``B_s`` round by round: the last round per shuffle, the
    shared rounds once per group; both are None when not asked for.
    """
    n_out, d_a, n = game.n_out, game.dim_a, game.n
    total = iso.shape[0]
    norm = 1.0 / (d_a * len(game.s_tuples))
    nf = len(factors)
    size = game.l**game.m
    d0 = math.prod(factors[i] for i in split[0])
    dims = (d0, total // d0)
    # Branch `first` acts first; the other branch's columns then act on
    # V_first^dagger W, which is also what that branch's score factors are.
    first, other = (1, 0) if scores == 0 else (0, 1)
    value = 0.0
    score_factors = [] if scores is not None else None
    h = np.zeros((total, d_a), dtype=np.complex128) if grad else None
    groups = itertools.groupby(enumerate(game.s_tuples), key=lambda item: item[1][:-1])
    for prefix, group in groups:
        shared = iso
        for j, pi in enumerate(prefix):
            shared = game.rounds[pi].T @ shared.reshape(-1, size, size ** (n - 1 - j))
        acc = 0.0
        for si, s in group:
            v = shared.reshape(-1, size) @ game.rounds[s[-1]]
            bits = [tuple(nf + k for k in slots) for slots in game.slots[si]]
            axes = bits[first] + split[first] + bits[other] + split[other] + bits[2]
            v = v.reshape(factors + (game.l,) * (n * game.m)).transpose(axes)
            q = [c0[si], c1[si]]
            if ball is not None:
                q = [c[ball].transpose(0, 2, 1, 3).reshape(n_out, c.shape[1], -1) for c in q]
            cf, co = q[first], q[other]
            y = cf.conj().swapaxes(1, 2) @ v.reshape(n_out, dims[first], -1)
            if score_factors is not None:
                # Padded columns are all zero; so are their rows of y, dropped here.
                y = y[cf.any(axis=1)].reshape(dims[first], n_out, dims[other], -1)
                y = y.transpose(1, 2, 0, 3).reshape(n_out, dims[other], -1)
                score_factors.append(y)
            else:
                y = y.reshape(n_out, cf.shape[2], n_out, dims[other], -1).transpose(2, 3, 0, 1, 4)
            z = co.conj().swapaxes(1, 2) @ y.reshape(n_out, dims[other], -1)
            value += np.vdot(z, z).real
            if h is not None:
                g = (co @ z).reshape(n_out, dims[other], n_out, cf.shape[2], -1)
                g = cf @ g.transpose(2, 3, 0, 1, 4).reshape(cf.shape[0], cf.shape[2], -1)
                undo = sorted(range(len(axes)), key=axes.__getitem__)
                g = g.reshape(v.shape).transpose(undo)
                acc = acc + g.reshape(-1, size) @ game.rounds[s[-1]].conj().T
        if h is not None:
            # B_s^dagger round by round: the shared rounds once per group.
            for j, pi in enumerate(prefix):
                acc = game.rounds[pi].conj() @ acc.reshape(-1, size, size ** (n - 1 - j))
            h += acc.reshape(total, d_a)
    return float(value) * norm, score_factors, None if h is None else norm * h


def _evaluate(game: _Game, strategy: Strategy, radius: int) -> float:
    """Value at Hamming radius ``radius``: one kernel pass per strategy, game and radius."""
    _check_compat(game, strategy)
    key = (game.key, radius)
    value = strategy._values.get(key)
    if value is None:
        cols = ([strategy.measurements[(b, s)].columns for s in game.s_tuples] for b in (0, 1))
        ball = game.ball(radius) if radius else None
        value = _contract(
            game, strategy.isometry, strategy.factors, strategy.split, *cols, ball
        )[0]
        strategy._values[key] = value
    return value


def cheat_probability_exact(config: DqacmConfig, strategy: Strategy) -> float:
    """Average probability that both branches output their exact target rows."""
    return _evaluate(_game_for(config, strategy.targets), strategy, 0)


def cheat_probability_gamma(
    config: DqacmConfig, strategy: Strategy, gamma: float
) -> float:
    """Cheating probability that credits answers within relative distance gamma.

    A branch's answer is accepted when it differs from the true row on
    at most ``n * gamma`` rounds.  The game depends on gamma only through
    the radius ``floor(n * gamma)``, so any gamma below 1/n is the exact
    game, and a strategy keeps one value per game and radius: scoring it
    again, or at another gamma of the same radius, runs no kernel pass.
    """
    if not 0.0 <= gamma <= 0.5:
        raise ValueError(f"gamma={gamma} outside [0, 0.5]")
    game = _game_for(config, strategy.targets)
    return _evaluate(game, strategy, math.floor(game.n * gamma))


def _exchange_update(blocks: list[np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """One sweep of pairwise exchanges toward larger ``sum_e tr(P_e S_e)``.

    ``blocks[e]`` holds outcome e's orthonormal columns V_e, so that
    ``P_e = V_e V_e^dagger``, and ``x[e]`` its score factor X_e, so that
    S_e is proportional to ``X_e X_e^dagger`` (see :func:`_contract`).
    Each pair keeps its joint range, spanned by ``B = [V_a V_b]``, and
    re-splits it along the sign of the compressed score difference
    ``(B^dagger X_a)(B^dagger X_a)^dagger - (B^dagger X_b)(B^dagger X_b)^dagger``,
    the optimal two-outcome split, so every exchange is non-decreasing.
    The difference has rank at most 2k, twice the columns of a factor;
    when the joint rank r exceeds both 4k and 16 (below that the QR's
    fixed cost outweighs the smaller ``eigh``), it is diagonalised in
    factor space, after a QR of ``[B^dagger X_a  B^dagger X_b]``.
    Eigenvalues at or below ``_SPLIT_TOL`` times the largest magnitude go
    to b: rounding never decides the side of a (near-)zero one.
    """
    out = list(blocks)
    for a in range(len(out)):
        for b in range(a + 1, len(out)):
            basis = np.concatenate((out[a], out[b]), axis=1)
            if basis.shape[1] == 0:
                continue
            basis_h = basis.conj().T
            ya, yb = basis_h @ x[a], basis_h @ x[b]
            k2 = 2 * ya.shape[1]
            if basis.shape[1] > max(2 * k2, 16):
                # [ya yb] = QR: the difference is Q R J R^dagger Q^dagger with
                # J = diag(I, -I), and Q past column 2k spans its kernel.
                q, r = np.linalg.qr(np.concatenate((ya, yb), axis=1), mode="complete")
                sign = np.repeat([1.0, -1.0], k2 // 2)
                w, u = np.linalg.eigh((r[:k2] * sign) @ r[:k2].conj().T)
                w = np.concatenate((w, np.zeros(len(q) - k2)))
                vec = np.concatenate((q[:, :k2] @ u, q[:, k2:]), axis=1)
            else:
                w, vec = np.linalg.eigh(ya @ ya.conj().T - yb @ yb.conj().T)
            keep = w > _SPLIT_TOL * np.abs(w).max()
            rotated = basis @ vec
            out[a], out[b] = rotated[:, keep], rotated[:, ~keep]
    return out


@dataclass(frozen=True, eq=False)
class SeesawResult:
    strategy: Strategy
    p_exact: float
    trace: tuple[float, ...]
    converged: bool


def seesaw_optimize(
    config: DqacmConfig,
    targets: tuple[int, int],
    ancilla_dim: int = 2,
    iterations: int = 60,
    seed: int = 0,
    tol: float = 1e-9,
) -> SeesawResult:
    """Alternating maximization of the exact cheating probability.

    One restart from random measurements and a Haar-random isometry M.
    Each iteration updates branch 0's measurements, then branch 1's,
    against fresh scores, then moves M to the polar factor of its
    gradient (a thin SVD); one guard reverts any update that lowers the
    objective.  The result's strategy holds the
    last M the kernel read.  Stops early once the gain per iteration falls
    below ``tol``; ``converged`` reports whether that happened within the
    iteration budget.  ``ancilla_dim`` below 1 raises ``ValueError``.
    """
    rng = _as_rng(seed)
    game = _game_for(config, targets)
    mn = config.m * config.n
    d_a = game.dim_a
    total = _ancilla_total(game, ancilla_dim, "seesaw")

    factors = (2,) * mn + (ancilla_dim,)
    split = (tuple(range(mn)), (mn,))

    # state[b][si]: branch b's column block per outcome; state[2]: M.  stacks[b]
    # holds the padded columns the kernel reads, rebuilt with state[b].
    state = [[], [], _haar_isometry(total, d_a, rng)]
    cuts = [np.cumsum(_rank_profile(d, game.n_out)[:-1]) for d in (d_a, ancilla_dim)]
    for bases in _haar_bases((d_a, ancilla_dim), len(game.s_tuples), rng):
        for b in (0, 1):
            state[b] += [np.split(u, cuts[b], axis=1) for u in bases[b]]
    stacks = [[block_columns(v) for v in blocks] for blocks in state[:2]]

    def assign(kind, value):
        state[kind] = value
        if kind < 2:
            stacks[kind] = [block_columns(v) for v in value]

    def contract(**want):
        return _contract(game, state[2], factors, split, *stacks, **want)

    def propose(kind, out):
        if kind == 2:
            uu, _sv, vh = np.linalg.svd(out[2], full_matrices=False)
            return uu @ vh
        return [_exchange_update(v, x) for v, x in zip(state[kind], out[1])]

    # Each pass that checks an update also yields what the next update
    # needs: branch-1 score factors, then the gradient, then branch-0's.
    wants = ({"scores": 1}, {"grad": True}, {"scores": 0})
    out = contract(scores=0)
    p = out[0]
    trace = [p]
    converged = False
    for _ in range(iterations):
        for kind, want in enumerate(wants):
            backup = state[kind]
            assign(kind, propose(kind, out))
            out = contract(**want)
            if out[0] < p - 1e-12:
                assign(kind, backup)
                out = contract(**want)
            else:
                p = out[0]

        if not p >= trace[-1] - 1e-10:
            raise RuntimeError(f"seesaw trace must be monotone, got {p!r} after {trace[-1]!r}")
        trace.append(p)
        if len(trace) >= 4 and trace[-1] - trace[-4] < tol:
            converged = True
            break

    measurements = {}
    for (si, s), b in itertools.product(enumerate(game.s_tuples), (0, 1)):
        measurements[(b, s)] = ProjectiveMeasurement(state[b][si])
    strategy = Strategy(
        targets=targets,
        ancilla_dims=(ancilla_dim,),
        isometry=state[2],
        split=split,
        measurements=measurements,
        qudit_count=mn,
    )
    return SeesawResult(strategy, p, tuple(trace), converged)


def random_strategy(
    config: DqacmConfig,
    targets: tuple[int, int],
    ancilla_dim: int = 2,
    rng=0,
) -> Strategy:
    """Draw a strategy with Haar isometry, Haar measurements, random split.

    The isometry M is drawn Haar-random (:func:`_haar_isometry`), the law
    of U (I x chi) for a Haar U and any chi.  Half the draws use the
    canonical split (all qudits against the ancilla); the rest scatter the
    qudits over both branches, keeping the ancilla on branch 1 and branch
    0 nonempty.
    ``ancilla_dim`` below 1 raises ``ValueError`` before any draw.
    """
    rng = _as_rng(rng)
    game = _game_for(config, targets)
    mn = config.m * config.n
    total = _ancilla_total(game, ancilla_dim, "strategy")
    factors = (2,) * mn + (ancilla_dim,)
    if rng.random() < 0.5:
        split0 = tuple(range(mn))
    else:
        mask = rng.random(mn) < 0.5
        if not mask.any():
            mask[int(rng.integers(mn))] = True
        split0 = tuple(int(i) for i in np.nonzero(mask)[0])
    split1 = tuple(i for i in range(mn + 1) if i not in split0)
    d0 = math.prod(factors[i] for i in split0)
    d1 = math.prod(factors[i] for i in split1)

    profiles = [_rank_profile(d, game.n_out) for d in (d0, d1)]
    drawn = _haar_measurements(profiles, len(game.s_tuples), rng)
    measurements = {
        (b, s): drawn[b][si] for si, s in enumerate(game.s_tuples) for b in (0, 1)
    }
    return Strategy(
        targets=targets,
        ancilla_dims=(ancilla_dim,),
        isometry=_haar_isometry(total, game.dim_a, rng),
        split=(split0, split1),
        measurements=measurements,
        qudit_count=mn,
    )


def _decode_blocks(config: DqacmConfig, vectors: np.ndarray, s, target: int) -> list[np.ndarray]:
    """Column blocks of the product measurement reading the target row.

    Outcome e projects the decode slot ``s[j][target]`` of round j onto
    ``vectors[e_j]`` (a row of an orthonormal basis) and leaves every
    other slot untouched, so its block is a Kronecker product of that
    vector as a column and identities.
    """
    m, n, l = config.m, config.n, config.l
    eye = np.eye(l, dtype=np.complex128)
    blocks = []
    for e in range(l**n):
        v = np.ones((1, 1), dtype=np.complex128)
        for j in range(n):
            bit = (e >> (n - 1 - j)) & 1
            for pos in range(m):
                v = np.kron(v, vectors[bit][:, None] if pos == s[j][target] else eye)
        blocks.append(v)
    return blocks


def honest_single_branch_strategy(
    config: DqacmConfig, targets: tuple[int, int]
) -> Strategy:
    """Branch 0 decodes honestly; branch 1 holds nothing and guesses 0.

    Its exact cheating probability is ``l**(-n)`` in closed form: the
    honest branch always succeeds while the guess matches a uniform row.
    """
    game = _game_for(config, targets)
    mn = config.m * config.n
    measurements = {}
    guess = ProjectiveMeasurement([np.ones((1, 1))] + [np.zeros((1, 0))] * (game.n_out - 1))
    vectors = config.family.bases[targets[0]]
    for s in game.s_tuples:
        measurements[(0, s)] = ProjectiveMeasurement(
            _decode_blocks(config, vectors, s, targets[0])
        )
        measurements[(1, s)] = guess
    return Strategy(
        targets=targets,
        ancilla_dims=(1,),
        isometry=np.eye(game.dim_a),
        split=(tuple(range(mn)), (mn,)),
        measurements=measurements,
        qudit_count=mn,
    )


def intercept_strategy(config: DqacmConfig, targets: tuple[int, int]) -> Strategy:
    """Copy every slot in the branch-0 target basis, then split.

    Branch 0 keeps the (undisturbed) message qudits and decodes its
    target row exactly; branch 1 keeps the copies and reads the other
    row's decode positions through the copying basis.  For planar
    families this evaluates to ``cos((t1 - t0) / 2) ** (2 n)`` with
    t the two target angles, an independent closed form used in tests.
    """
    game = _game_for(config, targets)
    l0, l1 = targets
    l, mn = config.l, config.m * config.n
    _capped(l ** (2 * mn), "intercept")

    # One copying isometry per slot, sum_r |b_r><b_r| (x) |r>: the qudit
    # stays, and a fresh ancilla qudit records its label in the target
    # basis b.
    b = config.family.bases[l0]
    copy = np.zeros((l * l, l), dtype=np.complex128)
    for r in range(l):
        copy += np.kron(np.outer(b[r], b[r].conj()), np.eye(l)[:, r : r + 1])
    iso = np.eye(1, dtype=np.complex128)
    for _ in range(mn):
        iso = np.kron(iso, copy)
    # The rows above interleave (qudit, ancilla) per slot; reorder them so
    # all qudits come first, as the strategy layout has it.  Adding 0.0
    # clears the sign that the products above leave on some zero
    # imaginary parts: strategy_hash reads bytes, and -0.0 is not +0.0.
    interleaved = [x for k in range(mn) for x in (k, mn + k)]
    iso = _permute_rows(iso, (l,) * (2 * mn), np.argsort(interleaved)) + 0.0

    measurements = {}
    for s in game.s_tuples:
        measurements[(0, s)] = ProjectiveMeasurement(_decode_blocks(config, b, s, l0))
        measurements[(1, s)] = ProjectiveMeasurement(_decode_blocks(config, np.eye(l), s, l1))
    return Strategy(
        targets=targets,
        ancilla_dims=(l,) * mn,
        isometry=iso,
        split=(tuple(range(mn)), tuple(range(mn, 2 * mn))),
        measurements=measurements,
        qudit_count=mn,
    )


@dataclass(frozen=True, eq=False)
class SandwichNormResult:
    omega: int
    bound: float
    sandwich_norm: float
    product_norm: float
    ok: bool


def verify_sandwich_norm(
    config: DqacmConfig,
    s,
    v,
    meas0: ProjectiveMeasurement,
    meas1: ProjectiveMeasurement,
    targets: tuple[int, int] = (0, 1),
    tol: float = 1e-9,
) -> SandwichNormResult:
    """Check the projected-overlap norm bound for one (s, v) on encoding spans.

    On (message register) x (branch 0) x (branch 1), the first projector
    pairs each branch-0 outcome e with the span A_e of the encodings
    under s that decode to e at target l0, the second each branch-1
    outcome e' with the span B_e' under the composed shuffle sv at l1.
    Outcomes are orthogonal, so the product's norm is the largest
    ``||A_e^dagger B_e'||``: over rounds j, the Kronecker product of
    ``R_{s_j}^dagger R_{sv_j}`` (``_Game.rounds``) cut to rows where slot
    ``s[j][l0]`` reads e_j and columns where ``sv[j][l1]`` reads e'_j.
    ``product_norm`` multiplies each round's largest block norm, and the
    sandwich norm (first-second-first), its square, must not exceed lam
    to the power of the aliasing weight of v.  Measurements must be
    rank-1 with ``l**n`` outcomes on an ``l**n``-dimensional branch
    space, as an honest decoder's are; then no outcome is null.
    """
    game = _game_for(config, targets)
    s = tuple(tuple(p) for p in s)
    v = tuple(tuple(p) for p in v)
    l0, l1 = game.targets
    n_out = game.n_out
    if meas0.n_outcomes != n_out or meas1.n_outcomes != n_out:
        raise ValueError("measurements must have l**n outcomes")
    if meas0.dim != n_out or meas1.dim != n_out:
        raise ValueError("branch spaces must have dimension l**n")
    if set(meas0.ranks + meas1.ranks) != {1}:
        raise ValueError("measurements must be rank-1")
    if s not in game.s_tuples:
        raise ValueError(f"{s} is not a shuffle tuple of the game")

    sv = compose_shuffles(s, v)
    omega = omega_weight(v, l0, l1, s)
    m, l = game.m, game.l
    col = np.arange(l**m)
    product = 1.0
    for pi, rho in zip(s, sv):
        if (pi, rho) not in game.cross_norms:
            # The round factors' columns where the decode slot reads each bit.
            a = [game.rounds[pi][:, (col >> (m - 1 - pi[l0])) & 1 == e] for e in range(l)]
            b = [game.rounds[rho][:, (col >> (m - 1 - rho[l1])) & 1 == e] for e in range(l)]
            game.cross_norms[pi, rho] = max(spectral_norm(x.conj().T @ y) for x in a for y in b)
        product *= game.cross_norms[pi, rho]
    sandwich = product * product
    bound = overlap_lambda(config.family) ** omega
    return SandwichNormResult(omega, bound, sandwich, product, sandwich <= bound + tol)


@dataclass(frozen=True, eq=False)
class BranchingStrategy(_SplitSystem):
    """A strategy whose branches act only after a shared branching measurement.

    The branching measurement has one outcome per element of the
    intermediate outcome set, of size ``m**2 (m - 1)``, and acts on the
    split-ordered joint space after the isometry (see
    :class:`Strategy`).  Each outcome g selects one product measurement
    pair for the two branches: ``conditioned``, a read-only map, has
    exactly the keys ``range(intermediate.n_outcomes)``, and all its
    measurements share one outcome count.
    """

    intermediate: ProjectiveMeasurement
    conditioned: Mapping[int, tuple[ProjectiveMeasurement, ProjectiveMeasurement]]
    isometry: np.ndarray
    ancilla_dims: tuple[int, ...]
    split: tuple[tuple[int, ...], tuple[int, ...]]
    qudit_count: int
    local_dim: int = 2

    def __init__(
        self, intermediate, conditioned, isometry, ancilla_dims, split, qudit_count, local_dim=2
    ):
        self._set_layout(ancilla_dims, isometry, split, qudit_count, local_dim)
        self._check_dim("intermediate", intermediate, self.total_dim)
        conditioned = dict(conditioned)
        if sorted(conditioned) != list(range(intermediate.n_outcomes)):
            raise ValueError(
                f"conditioned keys {sorted(conditioned)} are not "
                f"range({intermediate.n_outcomes}), one per intermediate outcome"
            )
        for g, (m0, m1) in conditioned.items():
            self._check_dim(f"outcome {g} branch 0", m0, self.d0)
            self._check_dim(f"outcome {g} branch 1", m1, self.d1)
        counts = {pm.n_outcomes for pair in conditioned.values() for pm in pair}
        if len(counts) > 1:
            raise ValueError(f"conditioned measurements differ in outcome count: {sorted(counts)}")
        object.__setattr__(self, "intermediate", intermediate)
        object.__setattr__(self, "conditioned", types.MappingProxyType(conditioned))


def random_branching_strategy(
    config: DqacmConfig,
    targets: tuple[int, int],
    ancilla_dim: int = 2,
    rng=0,
) -> BranchingStrategy:
    """Haar-random branching strategy over the canonical split.

    The isometry M is a Haar-random isometry, as in :func:`random_strategy`;
    ``ancilla_dim`` below 1 raises ``ValueError`` before any draw.
    """
    rng = _as_rng(rng)
    game = _game_for(config, targets)
    mn = config.m * config.n
    total = _ancilla_total(game, ancilla_dim, "strategy")
    n_gamma = config.m**2 * (config.m - 1)
    profiles = [_rank_profile(d, game.n_out) for d in (game.dim_a, ancilla_dim)]
    conditioned = dict(enumerate(zip(*_haar_measurements(profiles, n_gamma, rng))))
    return BranchingStrategy(
        intermediate=random_measurement(total, n_gamma, rng),
        conditioned=conditioned,
        isometry=_haar_isometry(total, game.dim_a, rng),
        ancilla_dims=(ancilla_dim,),
        split=(tuple(range(mn)), (mn,)),
        qudit_count=mn,
    )


@dataclass(frozen=True, eq=False)
class EquivalenceResult:
    ok: bool
    max_tv: float

    def __bool__(self) -> bool:
        return self.ok


def _register_columns(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """The (E, G d, sum w_g) stacks of ``+_g V_g[e]`` on (register) x (half).

    ``stacks[g]`` is the (E, d, w_g) column stack a branch applies when
    its register reads g; each outcome's stack is block diagonal.
    """
    n_out, d = stacks[0].shape[:2]
    out = np.zeros((n_out, len(stacks) * d, sum(c.shape[2] for c in stacks)), dtype=np.complex128)
    col = 0
    for g, c in enumerate(stacks):
        out[:, g * d : (g + 1) * d, col : col + c.shape[2]] = c
        col += c.shape[2]
    return out


def _write_records(blocks: np.ndarray) -> np.ndarray:
    """``sum_g z_g (x) |g>_R |g>_0 |g>_1`` for the (G, d0, d1) blocks z_g.

    Returned as a (G d0, G, G d1) array: branch 0's register and half,
    the referee's register, branch 1's register and half.
    """
    n_gamma, d0, d1 = blocks.shape
    rec = np.zeros((n_gamma, d0, n_gamma, n_gamma, d1), dtype=np.complex128)
    for g, z in enumerate(blocks):
        rec[g, :, g, g, :] = z
    return rec.reshape(n_gamma * d0, n_gamma, n_gamma * d1)


def verify_procedure_equivalence(
    config: DqacmConfig,
    strategy: BranchingStrategy,
    seed: int = 0,
    n_inputs: int = 10,
) -> EquivalenceResult:
    """Compare destructive branching against coherent record-keeping.

    Procedure 1 applies the branching measurement destructively, leaving
    ``z_g = W_g W_g^dagger psi`` on (half 0) x (half 1); outcome (e0, e1)
    then has probability ``sum_g ||V0_g[e0]^dagger z_g conj(V1_g[e1])||**2``.
    Procedure 2 writes g coherently into the referee's register and one
    register per branch (:func:`_write_records`), and each branch measures
    its half and its own register with the block-diagonal stack
    ``+_g V_g[e]`` (:func:`_register_columns`).  Neither builds a d x d
    projector.  For each of ``n_inputs`` random honest input states the
    two outcome distributions must agree within total variation 1e-9;
    ``n_inputs`` below 1 raises ``ValueError``, since no comparison passes
    vacuously.
    """
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be at least 1, got {n_inputs}")
    rng = _as_rng(seed)
    n_gamma = strategy.intermediate.n_outcomes
    d0, d1 = strategy.d0, strategy.d1
    perm = strategy.split[0] + strategy.split[1]
    branching = strategy.intermediate.columns
    cols = [[strategy.conditioned[g][b].columns for g in range(n_gamma)] for b in (0, 1)]
    reg0, reg1 = (_register_columns(c) for c in cols)
    max_tv = 0.0
    for _ in range(n_inputs):
        inputs = sample_inputs(config, rng)
        base = prepare_product_state(config.family, inputs.r, inputs.s).amplitudes
        y = strategy.isometry @ base
        yp = _permute_rows(y.reshape(-1, 1), strategy.factors, perm)
        blocks = (branching @ (branching.conj().swapaxes(1, 2) @ yp)).reshape(n_gamma, d0, d1)

        p1 = 0.0
        for z, c0, c1 in zip(blocks, *cols):
            w = (c0.conj().swapaxes(1, 2) @ z)[:, None] @ c1.conj()
            p1 = p1 + np.sum(np.abs(w) ** 2, axis=(2, 3))

        rec = _write_records(blocks).reshape(n_gamma * d0, -1)
        t = (reg0.conj().swapaxes(1, 2) @ rec).reshape(len(reg0), -1, n_gamma * d1)
        p2 = np.sum(np.abs(t[:, None] @ reg1.conj()) ** 2, axis=(2, 3))

        max_tv = max(max_tv, 0.5 * float(np.abs(p1 - p2).sum()))
    return EquivalenceResult(max_tv < 1e-9, max_tv)


def strategy_hash(strategy: Strategy) -> str:
    """Stable content hash of a strategy, for report provenance."""
    h = hashlib.sha256()
    h.update(repr(strategy.targets).encode())
    h.update(repr(strategy.ancilla_dims).encode())
    h.update(repr(strategy.split).encode())
    h.update(np.round(strategy.isometry, 12).tobytes())
    for key in sorted(strategy.measurements.keys()):
        h.update(repr(key).encode())
        # One outcome stack at a time: no pile of d x d projectors is kept.
        for p in block_projectors(strategy.measurements[key].columns):
            h.update(np.round(p, 12).tobytes())
    return h.hexdigest()
