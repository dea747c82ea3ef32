"""Utilities shared across test modules.

Lorentz boosts: the library itself never boosts anything; boosts exist
only so the tests can check that the causal predicates are
frame-independent.  A reference cheating-probability evaluator: slow
and plainly correct, it pins the fast contraction kernel in
``scotsim.adversary``; a projector-form exchange pins the see-saw's
column-block exchange, and dense projectors pin the lemma check on
encoding spans.  A faulty record writer for the procedure-equivalence
check, which must then fail.  A runner for snippets in a fresh interpreter,
under ``python -O`` (where ``assert`` statements are stripped, to show
that invariants survive it) or under a chosen environment.
"""

import functools
import itertools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np

from scotsim.adversary import compose_shuffles
from scotsim.dqacm import enumerate_permutations
from scotsim.minkowski import Event
from scotsim.quantum import block_projectors, prepare_product_state


def boost_event(e: Event, velocity) -> Event:
    """Active Lorentz boost of an event, c = 1, |velocity| < 1."""
    v = np.asarray(velocity, dtype=float)
    if v.shape != (e.dim,):
        raise ValueError(f"velocity shape {v.shape} does not match dim {e.dim}")
    speed2 = float(v @ v)
    if speed2 >= 1.0:
        raise ValueError("speed must be below 1")
    if speed2 == 0.0:
        return e
    g = 1.0 / math.sqrt(1.0 - speed2)
    x = np.asarray(e.x, dtype=float)
    t_new = g * (e.t - float(v @ x))
    x_new = x + ((g - 1.0) * float(v @ x) / speed2 - g * e.t) * v
    return Event(t_new, tuple(float(c) for c in x_new))


def random_velocity(rng, dim: int, max_speed: float = 0.9):
    """Uniform direction, speed uniform in (0, max_speed]."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    return direction * (max_speed * (1.0 - rng.random() * 0.999))


def classify(a: Event, b: Event) -> str:
    """Order type of a pair, using the library predicates."""
    from scotsim.minkowski import causally_precedes, spacelike_separated

    fwd = causally_precedes(a, b)
    bwd = causally_precedes(b, a)
    if fwd and bwd:
        return "equal"
    if fwd:
        return "forward"
    if bwd:
        return "backward"
    assert spacelike_separated(a, b)
    return "spacelike"


def reference_cheat_probability(config, strategy, gamma: float = 0.0) -> float:
    """Slow, plainly correct cheating probability of a two-branch strategy.

    Applies the Born rule to every input: for each shuffle tuple s and
    bit matrix r it prepares ``prepare_product_state(r, s)``, applies the
    strategy's isometry M = U (I x chi), reorders the tensor factors into
    (branch 0, branch 1), and adds ``|| (P0[f0] (x) P1[f1]) psi ||**2``
    over every outcome pair the referee accepts, with the joint
    projector built by ``np.kron``.  An outcome is accepted when it
    differs from the target row on at most ``n * gamma`` rounds.
    """
    m, n, l = config.m, config.n, config.l
    l0, l1 = strategy.targets
    n_out = l**n
    order = strategy.split[0] + strategy.split[1]

    def row_value(row) -> int:
        return int(sum(int(b) * l ** (n - 1 - j) for j, b in enumerate(row)))

    def accepted(e: int) -> list[int]:
        return [f for f in range(n_out) if bin(e ^ f).count("1") <= n * gamma]

    total, count = 0.0, 0
    for s in itertools.product(enumerate_permutations(m), repeat=n):
        p0 = block_projectors(strategy.measurements[(0, s)].columns)
        p1 = block_projectors(strategy.measurements[(1, s)].columns)
        joint = {}
        for bits in itertools.product(range(l), repeat=m * n):
            r = np.reshape(bits, (m, n))
            base = prepare_product_state(config.family, r, s).amplitudes
            psi = strategy.isometry @ base
            psi = psi.reshape(strategy.factors).transpose(order).reshape(-1)
            for f0 in accepted(row_value(r[l0])):
                for f1 in accepted(row_value(r[l1])):
                    if (f0, f1) not in joint:
                        joint[f0, f1] = np.kron(p0[f0], p1[f1])
                    total += float(np.linalg.norm(joint[f0, f1] @ psi) ** 2)
            count += 1
    return total / count


def reference_exchange_update(projs, scores, split_tol: float):
    """Projector-form pairwise exchange sweep, the see-saw's plain reference.

    For each outcome pair (a, b) it finds the joint range of ``P_a + P_b``
    by a full ``eigh``, compresses ``S_a - S_b`` onto it, and gives
    ``P_a`` the span of the eigenvectors whose eigenvalue exceeds
    ``split_tol`` times the largest magnitude; ``P_b`` keeps the rest of
    the joint range.  Returns the new (E, d, d) projector stack.
    """
    out = [np.array(p, dtype=np.complex128) for p in projs]
    for a in range(len(out)):
        for b in range(a + 1, len(out)):
            joint = out[a] + out[b]
            w, vec = np.linalg.eigh(joint)
            basis = vec[:, w > 0.5]
            if basis.shape[1] == 0:
                continue
            delta = basis.conj().T @ (scores[a] - scores[b]) @ basis
            w2, v2 = np.linalg.eigh(0.5 * (delta + delta.conj().T))
            pos = basis @ v2[:, w2 > split_tol * np.abs(w2).max()]
            out[a] = pos @ pos.conj().T
            out[b] = joint - out[a]
    return np.stack(out)


def reference_sandwich_norm(config, s, v, meas0, meas1, targets=(0, 1)):
    """Dense projected-overlap norms, the lemma check's plain reference.

    Folds the encoding isometry of s and of the composed shuffle slot by
    slot from the family's bases (qubit families), keeps the columns
    whose decode slots read e at target l0 (l1 for the composed shuffle),
    and builds both projectors on (register) x (branch 0) x (branch 1)
    as dense matrices of side ``l**(m n) * l**(2n)``.  Returns the
    spectral norms ``(sandwich, product)`` of Pi0 Pi1 Pi0 and Pi0 Pi1.
    """
    m, n, l = config.m, config.n, config.l
    n_out = l**n
    col = np.arange(l ** (m * n))
    bases = config.family.bases

    def span(shuffle, target, e):
        b = functools.reduce(np.kron, [bases[i].T for pi in shuffle for i in np.argsort(pi)])
        slots = [j * m + shuffle[j][target] for j in range(n)]
        decoded = sum(((col >> (m * n - 1 - k)) & 1) << (n - 1 - j) for j, k in enumerate(slots))
        c = b[:, decoded == e]
        return c @ c.conj().T

    sv = compose_shuffles(s, v)
    eye = np.eye(n_out)
    proj0 = sum(
        np.kron(span(s, targets[0], e), np.kron(block_projectors(meas0.columns)[e], eye)) for e in range(n_out)
    )
    proj1 = sum(
        np.kron(span(sv, targets[1], e), np.kron(eye, block_projectors(meas1.columns)[e])) for e in range(n_out)
    )
    return np.linalg.norm(proj0 @ proj1 @ proj0, 2), np.linalg.norm(proj0 @ proj1, 2)


def records_without_branch1(blocks):
    """A faulty stand-in for ``adversary._write_records``.

    Writes the branching outcome g into the referee's and branch 0's
    registers only; branch 1's register stays at 0, so branch 1 always
    applies its g = 0 measurement.
    """
    n_gamma, d0, d1 = blocks.shape
    rec = np.zeros((n_gamma, d0, n_gamma, n_gamma, d1), dtype=np.complex128)
    for g, z in enumerate(blocks):
        rec[g, :, g, 0, :] = z
    return rec.reshape(n_gamma * d0, n_gamma, n_gamma * d1)


def run_python(body: str, *flags: str, env=None) -> subprocess.CompletedProcess:
    """Run a Python snippet in a fresh interpreter against this checkout's sources.

    ``flags`` go to the interpreter (``-O``); ``env`` adds or overrides
    environment variables, such as a BLAS thread count.
    """
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    full_env = dict(os.environ, **(env or {}), PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=120,
    )


def run_optimized(body: str) -> subprocess.CompletedProcess:
    """Run a Python snippet under ``python -O``, where ``assert`` is stripped."""
    return run_python(body, "-O")
