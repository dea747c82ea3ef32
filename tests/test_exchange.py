"""The see-saw's column-block exchange against a projector-form reference.

``adversary._exchange_update`` keeps each outcome's projector as a block
of orthonormal columns and diagonalises only the compressed score
difference of a pair.  Here it is pinned against the projector-form
sweep in ``helpers`` (a full ``eigh`` of ``P_a + P_b`` per pair), its
invariants are checked over many sweeps, and the see-saw it drives is
shown to give the same trace whatever the BLAS thread count.
"""

import json

import numpy as np
import pytest

from helpers import reference_exchange_update, run_python
from scotsim import adversary, quantum

E = 4
# (dim, ranks): even splits and profiles with rank-0 outcomes.
PROFILES = [
    (2, None),
    (2, [0, 2, 0, 0]),
    (8, None),
    (8, [3, 0, 5, 0]),
    (64, None),
    (64, [0, 20, 44, 0]),
]


def _random_state(dim, ranks, seed, columns=6):
    rng = np.random.default_rng(seed)
    (unitary,), = next(adversary._haar_bases((dim,), 1, rng))
    blocks = np.split(unitary, np.cumsum(adversary._rank_profile(dim, E, ranks)[:-1]), axis=1)
    x = rng.standard_normal((E, dim, columns)) + 1j * rng.standard_normal((E, dim, columns))
    return blocks, x


def _stacks(x):
    return x @ x.conj().swapaxes(1, 2)


def _objective(blocks, x):
    return sum(np.linalg.norm(v.conj().T @ xe) ** 2 for v, xe in zip(blocks, x))


@pytest.mark.parametrize("dim,ranks", PROFILES)
def test_block_exchange_matches_projector_reference(dim, ranks):
    for seed in range(3):
        blocks, x = _random_state(dim, ranks, seed)
        want = reference_exchange_update(
            quantum.block_projectors(blocks), _stacks(x), adversary._SPLIT_TOL
        )
        got = quantum.block_projectors(adversary._exchange_update(blocks, x))
        assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("dim,ranks", PROFILES)
def test_sweeps_keep_blocks_orthonormal_and_never_lose(dim, ranks):
    blocks, x = _random_state(dim, ranks, seed=7)
    value = _objective(blocks, x)
    for _ in range(50):
        blocks = adversary._exchange_update(blocks, x)
        joint = np.concatenate(blocks, axis=1)
        assert joint.shape == (dim, dim)
        assert np.abs(joint.conj().T @ joint - np.eye(dim)).max() < 1e-10
        new = _objective(blocks, x)
        assert new >= value - 1e-12 * value
        value = new


def test_exchange_diagonalises_only_compressed_pairs(monkeypatch):
    blocks, x = _random_state(64, None, seed=0)
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    adversary._exchange_update(blocks, x)
    assert len(sizes) == E * (E - 1) // 2
    # A score difference has rank at most 2k = 12, the columns of both
    # factors.  A joint range r above max(4k, 16) is diagonalised on those
    # 2k dimensions, as the first pair's 16 + 16 columns of the 64 are,
    # and a smaller one directly: no eigh exceeds max(4k, 16).
    k2 = 2 * x.shape[2]
    assert sizes[0] == (k2, k2)
    assert all(n <= max(2 * k2, 16) for n, _ in sizes)


def test_seesaw_trace_does_not_depend_on_blas_threads():
    body = """
        import json
        from scotsim.adversary import seesaw_optimize
        from scotsim.dqacm import DqacmConfig
        from scotsim.quantum import equal_spaced_family
        cfg = DqacmConfig(m=3, n=2, family=equal_spaced_family(3))
        res = seesaw_optimize(cfg, (0, 1), iterations=2, seed=3, tol=-1)
        print(json.dumps(res.trace))
    """
    traces = []
    for threads in ("1", "2"):
        res = run_python(body, env={"OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        traces.append(json.loads(res.stdout))
    assert len(traces[0]) == len(traces[1]) == 3
    assert np.abs(np.subtract(*traces)).max() < 1e-9
