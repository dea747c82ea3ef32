"""The cheating-game contraction kernel against a plainly correct reference.

``_contract`` evaluates every strategy, scores the see-saw's measurement
updates and gives the gradient in the strategy's isometry.  Here it is
pinned against the Born-rule evaluator in ``helpers``, its score factors
and gradient are checked to reproduce the value, its memory is held under
a stated peak, and the invariants of ``adversary`` are shown to hold
under ``python -O``.
"""

import tracemalloc

import numpy as np
import pytest

from helpers import reference_cheat_probability, run_optimized
from scotsim import adversary, quantum
from scotsim.adversary import (
    Strategy,
    cheat_probability_exact,
    cheat_probability_gamma,
    honest_single_branch_strategy,
    intercept_strategy,
    random_measurement,
    random_strategy,
)
from scotsim.dqacm import DqacmConfig
from scotsim.quantum import block_projectors, equal_spaced_family

PIN = 1e-12
GRID = [(2, 1), (2, 2), (3, 1), (3, 2)]


def _config(m, n):
    return DqacmConfig(m=m, n=n, family=equal_spaced_family(m))


def _strategies(m, n):
    cfg = _config(m, n)
    out = [random_strategy(cfg, (0, 1), rng=seed) for seed in (0, 1)]
    out.append(random_strategy(cfg, (1, 0), rng=2))
    out.append(honest_single_branch_strategy(cfg, (0, 1)))
    # The m=3, n=2 intercept strategy needs a 4096-dim unitary (256 MB).
    if (m, n) != (3, 2):
        out.append(intercept_strategy(cfg, (0, 1)))
    return cfg, out


def _run_kernel(cfg, strat, **want):
    # The kernel reads column stacks; the projector stacks come back for checks.
    game = adversary._game_for(cfg, strat.targets)
    meas = [[strat.measurements[(b, s)] for s in game.s_tuples] for b in (0, 1)]
    cols = [[pm.columns for pm in per_branch] for per_branch in meas]
    args = (game, strat.isometry, strat.factors, strat.split, *cols)
    p0, p1 = ([block_projectors(pm.columns) for pm in per_branch] for per_branch in meas)
    return adversary._contract(*args, **want), p0, p1


@pytest.mark.parametrize("m,n", GRID)
def test_kernel_matches_reference(m, n):
    cfg, strategies = _strategies(m, n)
    for strat in strategies:
        assert cheat_probability_exact(cfg, strat) == pytest.approx(
            reference_cheat_probability(cfg, strat), abs=PIN
        )
        for gamma in (0.1, 0.25, 0.5):
            assert cheat_probability_gamma(cfg, strat, gamma) == pytest.approx(
                reference_cheat_probability(cfg, strat, gamma), abs=PIN
            )


@pytest.mark.parametrize("m,n,ancilla_dim", [(2, 1, 1), (2, 2, 3), (3, 2, 2)])
def test_rank_zero_outcomes_match_reference(m, n, ancilla_dim):
    # Canonical split, so branch 1 holds only the ancilla: d1 < l**n and
    # some branch-1 outcomes have rank-0 projectors.
    cfg = _config(m, n)
    seeds = (
        seed
        for seed in range(50)
        if random_strategy(cfg, (0, 1), ancilla_dim, rng=seed).d1 == ancilla_dim
    )
    strat = random_strategy(cfg, (0, 1), ancilla_dim, rng=next(seeds))
    ranks = [
        np.trace(p).real
        for pm in strat.measurements.values()
        for p in block_projectors(pm.columns)
    ]
    assert min(ranks) == pytest.approx(0.0, abs=1e-12)
    for gamma in (0.0, 0.5):
        assert cheat_probability_gamma(cfg, strat, gamma) == pytest.approx(
            reference_cheat_probability(cfg, strat, gamma), abs=PIN
        )


def test_uneven_widths_match_reference(cfg32):
    # The see-saw leaves branch 0 with ranks [8, 8, 8, 40] and the
    # ancilla branch with [1, 1, 0, 0]: column stacks padded to 40 and 1.
    strat = adversary.seesaw_optimize(cfg32, (0, 1), iterations=1, seed=0).strategy
    ranks = {pm.ranks for pm in strat.measurements.values()}
    assert ranks == {(8, 8, 8, 40), (1, 1, 0, 0)}
    assert cheat_probability_exact(cfg32, strat) == pytest.approx(
        reference_cheat_probability(cfg32, strat), abs=PIN
    )
    assert cheat_probability_gamma(cfg32, strat, 0.5) == pytest.approx(
        reference_cheat_probability(cfg32, strat, 0.5), abs=PIN
    )


@pytest.mark.parametrize("m,n", GRID)
def test_small_gamma_is_the_exact_game(m, n):
    # Below 1/n the ball holds only the decoded value itself.
    cfg = _config(m, n)
    strat = random_strategy(cfg, (0, 1), rng=4)
    assert cheat_probability_gamma(cfg, strat, 0.1) == cheat_probability_exact(cfg, strat)


def test_scoring_builds_no_projectors(cfg32, monkeypatch):
    strat = random_strategy(cfg32, (0, 1), rng=5)

    def refuse(blocks):
        raise AssertionError("scoring built a projector stack")

    monkeypatch.setattr(quantum, "block_projectors", refuse)
    monkeypatch.setattr(adversary, "block_projectors", refuse)
    cheat_probability_exact(cfg32, strat)
    cheat_probability_gamma(cfg32, strat, 0.5)


@pytest.mark.parametrize("m,n", GRID)
def test_scores_and_gradient_reproduce_the_value(m, n):
    cfg, strategies = _strategies(m, n)
    for strat in strategies[:3]:
        (value, _, _), p0, p1 = _run_kernel(cfg, strat)
        game = adversary._game_for(cfg, strat.targets)
        norm = 1.0 / (game.dim_a * len(game.s_tuples))
        k = game.dim_a // game.n_out**2
        for branch, projs, d_other in ((0, p0, strat.d1), (1, p1, strat.d0)):
            (v, factors, _), _, _ = _run_kernel(cfg, strat, scores=branch)
            assert factors[0].shape == projs[0].shape[:2] + (d_other * k,)
            stacks = [norm * (x @ x.conj().swapaxes(1, 2)) for x in factors]
            traced = sum(np.einsum("eab,eba->", p, sc).real for p, sc in zip(projs, stacks))
            assert v == pytest.approx(value, abs=PIN)
            assert traced == pytest.approx(value, abs=PIN)
        (v, _, grad), _, _ = _run_kernel(cfg, strat, grad=True)
        assert grad.shape == (strat.total_dim, game.dim_a)
        assert np.trace(strat.isometry.conj().T @ grad).real == pytest.approx(value, abs=PIN)


def test_local_dimension_mismatch_rejected(cfg21):
    # Two qutrits instead of two qubits: same qudit count, wrong l.
    rng = np.random.default_rng(0)
    game = adversary._game_for(cfg21, (0, 1))
    strat = Strategy(
        targets=(0, 1),
        ancilla_dims=(1,),
        ancilla_state=np.ones(1),
        unitary=np.eye(9),
        split=((0,), (1, 2)),
        measurements={
            (branch, s): random_measurement(3, 2, rng)
            for s in game.s_tuples
            for branch in (0, 1)
        },
        qudit_count=2,
        local_dim=3,
    )
    with pytest.raises(ValueError, match="local dimension"):
        cheat_probability_exact(cfg21, strat)


def test_evaluation_memory_stays_per_shuffle(cfg32):
    # One shuffle's intermediates are about 1 MB at m=3, n=2; batching all
    # 36 shuffles at once would take over 30 MB.
    strat = random_strategy(cfg32, (0, 1), rng=2)
    cheat_probability_exact(cfg32, strat)  # builds and caches the game
    tracemalloc.start()
    try:
        cheat_probability_exact(cfg32, strat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_omega_weight_guard_survives_optimize():
    # A composition that ignores the probe makes the two counts differ.
    res = run_optimized(
        """
        from scotsim import adversary, quantum
        assert False  # stripped under -O
        adversary.compose_shuffles = lambda s, v: tuple((0, 1) for _ in v)
        adversary.omega_weight(((1, 0),), 0, 1, ((0, 1),))
        """
    )
    assert res.returncode != 0
    assert "weight must not depend on the probe shuffle" in res.stderr


def test_seesaw_monotone_guard_survives_optimize():
    # A kernel that turns NaN after the first pass breaks the trace.
    res = run_optimized(
        """
        from scotsim import adversary, quantum
        from scotsim.dqacm import DqacmConfig
        assert False  # stripped under -O
        kernel = adversary._contract
        calls = []
        def broken(*args, **kwargs):
            value, factors, grad = kernel(*args, **kwargs)
            calls.append(value)
            return (value if len(calls) == 1 else float("nan")), factors, grad
        adversary._contract = broken
        cfg = DqacmConfig(2, 1, quantum.bb84_family())
        adversary.seesaw_optimize(cfg, (0, 1), iterations=3)
        """
    )
    assert res.returncode != 0
    assert "seesaw trace must be monotone" in res.stderr
