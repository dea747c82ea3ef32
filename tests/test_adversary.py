import copy
import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from helpers import records_without_branch1, reference_sandwich_norm, run_python
from scotsim import adversary, bounds, quantum
from scotsim.adversary import (
    cheat_probability_exact,
    cheat_probability_gamma,
    compose_shuffles,
    honest_single_branch_strategy,
    intercept_strategy,
    omega_weight,
    random_branching_strategy,
    random_measurement,
    random_strategy,
    seesaw_optimize,
    strategy_hash,
    verify_sandwich_norm,
    verify_procedure_equivalence,
)
from scotsim.dqacm import DqacmConfig, enumerate_permutations
from scotsim.errors import CapacityError
from scotsim.quantum import BasisFamily, bb84_family, equal_spaced_family, planar_basis_family

BOUND_2_1 = 0.853553390593273762200422181052


class TestShuffleAlgebra:
    def test_composition(self):
        s = ((2, 0, 1),)
        v = ((1, 2, 0),)
        assert compose_shuffles(s, v) == ((0, 1, 2),)

    def test_identity_is_neutral(self):
        s = ((1, 0), (0, 1))
        ident = ((0, 1), (0, 1))
        assert compose_shuffles(s, ident) == s

    def test_round_count_must_match(self):
        with pytest.raises(ValueError):
            compose_shuffles(((0, 1),), ((0, 1), (1, 0)))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            compose_shuffles(((0, 1),), ((0, 0),))

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_distinct_v_give_distinct_composites(self, m, n, rng):
        perms = enumerate_permutations(m)
        for _ in range(20):
            s = tuple(tuple(rng.permutation(m).tolist()) for _ in range(n))
            seen = {compose_shuffles(s, v) for v in itertools.product(perms, repeat=n)}
            assert len(seen) == len(perms) ** n


class TestOmegaWeight:
    def test_swap_aliases_every_round(self):
        probe = ((0, 1), (1, 0))
        assert omega_weight(((1, 0), (1, 0)), 0, 1, probe) == 2
        assert omega_weight(((0, 1), (0, 1)), 0, 1, probe) == 0
        assert omega_weight(((1, 0), (0, 1)), 0, 1, probe) == 1

    def test_probe_independence(self):
        v = ((1, 2, 0), (2, 0, 1), (0, 1, 2))
        probes = [
            ((0, 1, 2),) * 3,
            ((2, 1, 0),) * 3,
            ((1, 2, 0), (0, 2, 1), (2, 0, 1)),
        ]
        weights = {omega_weight(v, 0, 2, p) for p in probes}
        assert len(weights) == 1

    def test_weight_distribution_matches_counting(self):
        perms = enumerate_permutations(3)
        probe = (tuple(range(3)),) * 2
        tally: dict[int, int] = {}
        for v in itertools.product(perms, repeat=2):
            w = omega_weight(v, 0, 1, probe)
            tally[w] = tally.get(w, 0) + 1
        assert tally == {w: bounds.count_omega(3, 2, w) for w in (0, 1, 2)}

    def test_equal_targets_rejected(self):
        with pytest.raises(ValueError):
            omega_weight(((0, 1),), 1, 1, ((0, 1),))


class TestClosedFormStrategies:
    @pytest.mark.parametrize(
        "m,n,expect", [(2, 1, 0.5), (2, 2, 0.25), (3, 1, 0.5)]
    )
    def test_honest_single_branch(self, m, n, expect):
        cfg = DqacmConfig(m=m, n=n, family=equal_spaced_family(m))
        strat = honest_single_branch_strategy(cfg, (0, 1))
        assert cheat_probability_exact(cfg, strat) == pytest.approx(expect, abs=1e-12)

    def test_honest_single_branch_gamma_ball(self, bb84):
        # a radius-1 ball around the all-zero guess covers 3 of 4 rows
        cfg = DqacmConfig(m=2, n=2, family=bb84)
        strat = honest_single_branch_strategy(cfg, (0, 1))
        assert cheat_probability_gamma(cfg, strat, 0.5) == pytest.approx(
            0.75, abs=1e-12
        )

    @pytest.mark.parametrize(
        "theta,n",
        [
            (math.pi / 2, 1),
            (math.pi / 3, 1),
            (math.pi / 3, 2),
            # At the 4096-dim cap: cos(pi/6)**4 = 0.5625 and cos(pi/4)**6 = 0.125.
            pytest.param((math.pi / 3, 2 * math.pi / 3), 2, id="m3-equal-spaced-n2"),
            pytest.param(math.pi / 2, 3, id="bb84-n3"),
        ],
    )
    def test_intercept_matches_angle_formula(self, theta, n):
        thetas = np.atleast_1d(theta)
        fam = planar_basis_family(len(thetas) + 1, thetas)
        cfg = DqacmConfig(m=fam.m, n=n, family=fam)
        adversary._game_for(cfg, (0, 1))  # cached first: the peak is the build's alone
        tracemalloc.start()
        try:
            strat = intercept_strategy(cfg, (0, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The isometry alone is 4 MiB at the cap; a 4096-square unitary is 256 MiB.
        assert peak < 64 * 2**20
        expect = math.cos(thetas[0] / 2.0) ** (2 * n)
        assert cheat_probability_exact(cfg, strat) == pytest.approx(expect, abs=1e-9)

    def test_intercept_m3(self, equal3):
        cfg = DqacmConfig(m=3, n=1, family=equal3)
        strat = intercept_strategy(cfg, (0, 2))
        expect = math.cos(math.pi / 3.0) ** 2
        assert cheat_probability_exact(cfg, strat) == pytest.approx(expect, abs=1e-9)

    def test_closed_forms_respect_bound(self, bb84):
        cfg = DqacmConfig(m=2, n=2, family=bb84)
        bound = bounds.epsilon_bob(2, 0.5, 2)
        for strat in (
            honest_single_branch_strategy(cfg, (0, 1)),
            intercept_strategy(cfg, (0, 1)),
        ):
            assert cheat_probability_exact(cfg, strat) <= bound + 1e-9


class TestRandomStrategies:
    def test_deterministic_per_seed(self, cfg21):
        a = random_strategy(cfg21, (0, 1), rng=7)
        b = random_strategy(cfg21, (0, 1), rng=7)
        c = random_strategy(cfg21, (0, 1), rng=8)
        assert strategy_hash(a) == strategy_hash(b)
        assert strategy_hash(a) != strategy_hash(c)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_draws_match_recorded_digests(self, threads):
        # sha256 over strategy_hash of 25 draws per grid shape, recorded
        # once random_strategy drew its isometry by a thin Haar QR (and
        # reproduced from the earlier commit's random_measurement, Strategy
        # and strategy_hash), and over the raw projector bytes of
        # random_measurement draws (rank-0 outcomes at dim < 4), recorded
        # before the see-saw moved to column blocks.  Two BLAS threads must
        # give the same bytes: the thin QR rounds alike with either count.
        res = run_python(
            """
            import hashlib
            import numpy as np
            from scotsim.adversary import random_measurement, random_strategy, strategy_hash
            from scotsim.quantum import block_projectors
            from scotsim.dqacm import DqacmConfig
            from scotsim.quantum import equal_spaced_family
            for m, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
                cfg = DqacmConfig(m=m, n=n, family=equal_spaced_family(m))
                h = hashlib.sha256()
                for seed in range(25):
                    h.update(strategy_hash(random_strategy(cfg, (0, 1), rng=seed)).encode())
                print(h.hexdigest())
            h = hashlib.sha256()
            for dim, n_out in [(2, 4), (3, 2), (8, 4), (64, 4)]:
                for seed in range(3):
                    for p in block_projectors(random_measurement(dim, n_out, seed).columns):
                        h.update(np.asarray(p).tobytes())
            print(h.hexdigest())
            """,
            env={"OPENBLAS_NUM_THREADS": threads},
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == [
            "9b6760c1e4b414754d5948914051ae06e1cf4646e1291ff6b16851a21504b4fc",
            "8fd93b6484d4da302bf9e73d5a8bbe9eabe70cf5a431cc660b1106fc3fbe121e",
            "c98306b1e623960def7e5310d32b8a48e92e6dd602da081e02baf657e17d976b",
            "3014c12a42b148baba0f1eb1923f48e2d3626412222ed12e6462171c5cc3cef3",
            "4445fcb53a464217a12435b77d1b4c0c7808d62d378ea4e362824e53e1730db5",
        ]

    def test_evaluations_stay_sound(self, cfg21):
        bound = bounds.epsilon_bob(2, 0.5, 1)
        for seed in range(30):
            strat = random_strategy(cfg21, (0, 1), rng=seed)
            p = cheat_probability_exact(cfg21, strat)
            assert 0.0 <= p <= bound + 1e-9

    def test_gamma_never_below_exact(self, cfg21, cfg32):
        for cfg, gamma in ((cfg21, 0.5), (cfg32, 0.5), (cfg32, 0.25)):
            for seed in range(5):
                strat = random_strategy(cfg, (0, 1), rng=seed)
                p = cheat_probability_exact(cfg, strat)
                pg = cheat_probability_gamma(cfg, strat, gamma)
                assert pg >= p - 1e-12

    def test_zero_radius_ball_equals_exact(self, cfg21):
        # floor(n * gamma) = 0 keeps only the exact answer in the ball.  A
        # strategy keeps its score per radius, so each side scores its own
        # draw of seed 3.
        strat, twin = (random_strategy(cfg21, (0, 1), rng=3) for _ in range(2))
        p = cheat_probability_exact(cfg21, strat)
        assert cheat_probability_gamma(cfg21, twin, 0.49) == pytest.approx(
            p, abs=1e-12
        )

    def test_targets_recorded(self, cfg32):
        strat = random_strategy(cfg32, (2, 0), rng=0)
        assert strat.targets == (2, 0)


def _haar_moment_misses(draw):
    """Entries of 20,000 (8, 4) draws whose mean misses its Haar value.

    Over Haar-random isometries E M_ij = 0 and E |M_ij|**2 = 1 / rows; a
    miss is a mean more than 5 standard errors away, for the real or the
    imaginary part of M_ij or for |M_ij|**2.
    """
    rows, cols, draws = 8, 4, 20_000
    rng = np.random.default_rng(0)
    sample = np.stack([draw(rows, cols, rng) for _ in range(draws)])
    gram = sample.conj().swapaxes(1, 2) @ sample
    assert np.abs(gram - np.eye(cols)).max() < 1e-12
    misses = []
    for name, x, want in (
        ("Re M", sample.real, 0.0),
        ("Im M", sample.imag, 0.0),
        ("|M|^2", np.abs(sample) ** 2, 1 / rows),
    ):
        z = (x.mean(axis=0) - want) / (x.std(axis=0) / math.sqrt(draws))
        misses += [(name, i, j, float(z[i, j])) for i, j in zip(*np.nonzero(np.abs(z) > 5))]
    return misses


class TestHaarIsometry:
    def test_moments_are_haar(self):
        assert _haar_moment_misses(adversary._haar_isometry) == []

    def test_moments_catch_a_missing_phase_fix(self):
        # The bare thin QR: Q inherits LAPACK's sign convention for R's
        # diagonal, which biases its entries (E M_00 is about -0.20).
        def bare_qr(rows, cols, rng):
            z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            return np.linalg.qr(z)[0]

        misses = _haar_moment_misses(bare_qr)
        assert ("Re M", 0, 0) in {m[:3] for m in misses}


# Dimensions drawn together, in this interleaved order; 1, 2 and 3 lie
# below the four outcomes, so their profiles have rank-0 outcomes.
STACKED_DIMS = (8, 1, 64, 3, 2)


def _one_draw_at_a_time(count, seed):
    """The unitaries of ``count`` rounds of one QR per d in STACKED_DIMS.

    Each is the thin QR of a complex Gaussian, real part first, with each
    column of Q times the phase of R's diagonal entry: the law the moment
    test checks, written out apart from the library's code.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        for d in STACKED_DIMS:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(z)
            out.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    return out


class TestStackedHaarDraws:
    # One batch, one draw per batch, and batches of two with one left over.
    @pytest.mark.parametrize("batches", [1, 5, 3])
    @pytest.mark.parametrize("count", [1, 5])
    def test_bytes_are_one_draw_at_a_time(self, count, batches, monkeypatch):
        per_draw = 16 * sum(d * d for d in STACKED_DIMS)
        monkeypatch.setattr(adversary, "_HAAR_BATCH_BYTES", per_draw * -(-count // batches))
        want = _one_draw_at_a_time(count, seed=11)
        rng = np.random.default_rng(11)
        loop = [adversary._haar_isometry(d, d, rng) for _ in range(count) for d in STACKED_DIMS]
        assert [u.tobytes() for u in loop] == [u.tobytes() for u in want]

        chunks = list(adversary._haar_bases(STACKED_DIMS, count, np.random.default_rng(11)))
        assert len(chunks) == min(batches, count)
        stacks = [np.concatenate(per_dim) for per_dim in zip(*chunks)]
        got = [stacks[k][i] for i in range(count) for k in range(len(STACKED_DIMS))]
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]

        profiles = [adversary._rank_profile(d, 4) for d in STACKED_DIMS]
        drawn = adversary._haar_measurements(profiles, count, np.random.default_rng(11))
        for k, ranks in enumerate(profiles):
            assert len(drawn[k]) == count
            for i, pm in enumerate(drawn[k]):
                u = want[i * len(STACKED_DIMS) + k]
                one = quantum.ProjectiveMeasurement(np.split(u, np.cumsum(ranks[:-1]), axis=1))
                assert pm.ranks == one.ranks == ranks
                assert pm.columns.tobytes() == one.columns.tobytes()
                assert not pm.columns.flags.writeable

    def test_random_measurement_keeps_its_rank_checks(self):
        assert random_measurement(2, 4, 0).ranks == (1, 1, 0, 0)
        assert random_measurement(8, 4, 0, ranks=[3, 0, 5, 0]).ranks == (3, 0, 5, 0)
        for ranks in ([3, 0, 4, 0], [3, 0, 5], [9, -1, 0, 0]):
            with pytest.raises(ValueError, match="does not resolve dimension 8"):
                random_measurement(8, 4, 0, ranks=ranks)


def _rebuilt(draw, cfg, **changes):
    """A valid strategy from ``draw`` and a copy of it with some fields changed."""
    good = draw(cfg, (0, 1), rng=0)
    fields = {f.name: getattr(good, f.name) for f in dataclasses.fields(good)}
    return good, type(good)(**{**fields, **changes})


class TestStrategyValidation:
    @pytest.fixture(
        params=[random_strategy, random_branching_strategy], ids=["strategy", "branching"]
    )
    def rebuilt(self, request, cfg21):
        return lambda **changes: _rebuilt(request.param, cfg21, **changes)

    @staticmethod
    def _isometry(unitary, ancilla_state):
        """M = U (I x chi), the ancilla as the last tensor factor."""
        d_anc = len(ancilla_state)
        return unitary.reshape(len(unitary), -1, d_anc) @ ancilla_state

    def test_bad_state_norm(self, rebuilt):
        good, _ = rebuilt()
        eye = np.eye(good.total_dim)
        d_anc = good.total_dim // good.isometry.shape[1]
        chi = np.zeros(d_anc)
        chi[0] = 1.0
        rebuilt(isometry=self._isometry(eye, chi))
        with pytest.raises(ValueError, match="M\\^dagger M = I"):
            rebuilt(isometry=self._isometry(eye, 2 * chi))

    def test_non_unitary_rejected(self, rebuilt):
        good, _ = rebuilt()
        d_anc = good.total_dim // good.isometry.shape[1]
        chi = np.zeros(d_anc)
        chi[0] = 1.0
        ones = np.ones((good.total_dim, good.total_dim))
        with pytest.raises(ValueError, match="M\\^dagger M = I"):
            rebuilt(isometry=self._isometry(ones, chi))

    def test_non_isometry_rejected(self, rebuilt):
        good, _ = rebuilt()
        with pytest.raises(ValueError, match="M\\^dagger M = I"):
            rebuilt(isometry=2 * good.isometry)
        # A unitary on all factors has the wrong shape: (8, 8), not (8, 4).
        with pytest.raises(ValueError, match="isometry shape"):
            rebuilt(isometry=np.eye(good.total_dim))

    @pytest.mark.parametrize("draw", [random_strategy, random_branching_strategy, seesaw_optimize])
    def test_ancilla_below_one_rejected_before_any_draw(self, draw, cfg21):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="ancilla_dim must be at least 1, got 0"):
            draw(cfg21, (0, 1), 0, rng)
        assert rng.bit_generator.state == before

    def test_split_must_partition(self, rebuilt):
        good, _ = rebuilt()
        with pytest.raises(ValueError):
            rebuilt(split=(good.split[0], ()))

    def test_nan_isometry_is_refused(self, rebuilt):
        good, _ = rebuilt()
        iso = good.isometry.copy()
        iso[1, 0] = np.nan
        with pytest.raises(ValueError, match="M\\^dagger M = I"):
            rebuilt(isometry=iso)

    def test_measurement_dims_must_match(self, cfg21):
        good, _ = _rebuilt(random_strategy, cfg21)
        swapped = {(1 - branch, s): pm for (branch, s), pm in good.measurements.items()}
        want = f"branch 1 measurement has dim {good.d0}, want {good.d1}"
        with pytest.raises(ValueError, match=want):
            _rebuilt(random_strategy, cfg21, measurements=swapped)
        good, _ = _rebuilt(random_branching_strategy, cfg21)
        with pytest.raises(ValueError, match="intermediate measurement has dim 4, want 8"):
            _rebuilt(random_branching_strategy, cfg21, intermediate=good.conditioned[0][0])
        swapped = {**good.conditioned, 3: good.conditioned[3][::-1]}
        with pytest.raises(ValueError, match="outcome 3 branch 0 measurement has dim 2, want 4"):
            _rebuilt(random_branching_strategy, cfg21, conditioned=swapped)
        # An intermediate outcome without a pair, and pairs that differ in
        # outcome count: the equivalence check could not run on either.
        missing = {g: pair for g, pair in good.conditioned.items() if g != 3}
        with pytest.raises(ValueError, match="not range\\(4\\)"):
            _rebuilt(random_branching_strategy, cfg21, conditioned=missing)
        rng = np.random.default_rng(0)
        four = (random_measurement(4, 4, rng), random_measurement(2, 4, rng))
        wider = {**good.conditioned, 3: four}
        with pytest.raises(ValueError, match="differ in outcome count: \\[2, 4\\]"):
            _rebuilt(random_branching_strategy, cfg21, conditioned=wider)

    def test_strategy_owns_its_isometry(self, rebuilt, cfg21):
        good, _ = rebuilt()
        # A complex128 array is copied: the caller's array stays writable.
        mine = good.isometry.copy()
        _, built = rebuilt(isometry=mine)
        mine[0, 0] = 2
        assert not built.isometry.flags.writeable
        assert built.isometry.tobytes() == good.isometry.tobytes()
        # So is a view: a write to its base leaves the strategy as it was.
        d_a = good.isometry.shape[1]
        base = np.concatenate((good.isometry, good.isometry), axis=1)
        _, built = rebuilt(isometry=base[:, :d_a])
        base[:, :d_a] = good.isometry[::-1]
        assert built.isometry.tobytes() == good.isometry.tobytes()
        if isinstance(good, adversary.Strategy):
            # That write keeps M^dagger M = I but would have moved the value.
            moved = dataclasses.replace(good, isometry=good.isometry[::-1])
            assert cheat_probability_exact(cfg21, moved) != cheat_probability_exact(cfg21, good)

    def test_pickle_and_copy_rebuild_the_strategy(self, rebuilt, cfg21):
        good, _ = rebuilt()

        def stacks(branching):
            pms = [pm for g in sorted(branching.conditioned) for pm in branching.conditioned[g]]
            return [pm.columns.tobytes() for pm in pms + [branching.intermediate]]

        for copied in (pickle.loads(pickle.dumps(good)), copy.deepcopy(good)):
            assert type(copied) is type(good)
            assert copied.isometry.tobytes() == good.isometry.tobytes()
            assert not copied.isometry.flags.writeable
            if isinstance(good, adversary.Strategy):
                assert strategy_hash(copied) == strategy_hash(good)
                score = cheat_probability_exact(cfg21, good)
                assert cheat_probability_exact(cfg21, copied) == score
            else:
                assert stacks(copied) == stacks(good)

    def test_maps_are_read_only(self, cfg21):
        # Assignment would bypass the dimension checks and stale the scores.
        strat = random_strategy(cfg21, (0, 1), rng=0)
        key = next(iter(strat.measurements))
        with pytest.raises(TypeError):
            strat.measurements[key] = strat.measurements[key]
        branching = random_branching_strategy(cfg21, (0, 1), rng=0)
        with pytest.raises(TypeError):
            branching.conditioned[0] = branching.conditioned[1]
        # A copy of either map builds the same strategy again.
        same = {k: pm for k, pm in strat.measurements.items()}
        _, again = _rebuilt(random_strategy, cfg21, measurements=same)
        assert strategy_hash(again) == strategy_hash(strat)
        same = {g: pair for g, pair in branching.conditioned.items()}
        _, again = _rebuilt(random_branching_strategy, cfg21, conditioned=same)
        assert dict(again.conditioned) == same

    def test_capacity_cap(self, cfg21, bb84):
        with pytest.raises(CapacityError):
            random_strategy(cfg21, (0, 1), ancilla_dim=2048, rng=0)
        # 64 * 128 dimensions: refused before any Haar draw
        cfg23 = DqacmConfig(m=2, n=3, family=bb84)
        with pytest.raises(CapacityError, match="8192"):
            random_branching_strategy(cfg23, (0, 1), ancilla_dim=128, rng=0)

    def test_round_cap(self, bb84):
        cfg = DqacmConfig(m=2, n=4, family=bb84)
        with pytest.raises(CapacityError):
            honest_single_branch_strategy(cfg, (0, 1))

    def test_basis_count_cap(self):
        cfg = DqacmConfig(m=4, n=1, family=equal_spaced_family(4))
        with pytest.raises(CapacityError):
            honest_single_branch_strategy(cfg, (0, 1))

    def test_qutrit_family_rejected(self, cfg21):
        # DqacmConfig accepts any local dimension; the cheating game is for qubits.
        qutrit = BasisFamily(np.stack([np.eye(3), np.eye(3)[::-1]]).astype(complex))
        cfg = DqacmConfig(m=2, n=1, family=qutrit)
        qubit_strategy = random_strategy(cfg21, (0, 1), rng=0)
        calls = [
            lambda: random_strategy(cfg, (0, 1), rng=0),
            lambda: seesaw_optimize(cfg, (0, 1), iterations=1),
            lambda: cheat_probability_exact(cfg, qubit_strategy),
        ]
        for call in calls:
            with pytest.raises(CapacityError, match="qubit families only, got l=3"):
                call()


class TestSeesaw:
    def test_reaches_known_optimum(self, cfg21):
        best = 0.0
        for seed in range(4):
            res = seesaw_optimize(cfg21, (0, 1), iterations=60, seed=seed)
            assert res.trace == tuple(sorted(res.trace))
            best = max(best, res.p_exact)
        assert best == pytest.approx(BOUND_2_1, abs=1e-6)

    def test_result_strategy_is_consistent(self, cfg21):
        res = seesaw_optimize(cfg21, (0, 1), iterations=40, seed=1)
        again = cheat_probability_exact(cfg21, res.strategy)
        assert again == pytest.approx(res.p_exact, abs=1e-12)

    @pytest.mark.parametrize("ancilla_dim", [1, 2, 8])
    def test_result_strategy_is_consistent_m3n2(self, cfg32, ancilla_dim, monkeypatch):
        # The see-saw keeps the isometry M, and the result's strategy holds
        # the M of the last kernel pass as it stands.
        kernel, seen = adversary._contract, []

        def recording(game, iso, *args, **kwargs):
            seen.append(iso)
            return kernel(game, iso, *args, **kwargs)

        monkeypatch.setattr(adversary, "_contract", recording)
        res = seesaw_optimize(cfg32, (0, 1), ancilla_dim, iterations=2, seed=0, tol=-1)
        final = seen[-1]
        again = cheat_probability_exact(cfg32, res.strategy)
        assert again == pytest.approx(res.p_exact, abs=1e-12)
        assert final.shape == (64 * ancilla_dim, 64)
        assert res.strategy.isometry.tobytes() == final.tobytes()

    def test_ancilla_64_at_the_cap(self, cfg32):
        # 64 x 64 = 4096 dims, MAX_TOTAL_DIM: the start is a thin (4096, 64)
        # Haar isometry, not a 4096-square unitary (256 MiB alone).
        adversary._game_for(cfg32, (0, 1))  # cached first: the peak is the see-saw's alone
        tracemalloc.start()
        try:
            res = seesaw_optimize(cfg32, (0, 1), ancilla_dim=64, iterations=1, seed=0, tol=-1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        assert len(res.trace) == 2 and res.trace[1] >= res.trace[0]
        assert res.strategy.isometry.shape == (4096, 64)

    def test_deterministic_per_seed(self, cfg21):
        a = seesaw_optimize(cfg21, (0, 1), iterations=25, seed=5)
        b = seesaw_optimize(cfg21, (0, 1), iterations=25, seed=5)
        assert a.p_exact == b.p_exact
        assert strategy_hash(a.strategy) == strategy_hash(b.strategy)

    def test_monotone_on_m3(self, equal3):
        cfg = DqacmConfig(m=3, n=1, family=equal3)
        res = seesaw_optimize(cfg, (0, 1), iterations=25, seed=0)
        assert res.trace == tuple(sorted(res.trace))
        lam = quantum.overlap_lambda(equal3)
        assert res.p_exact <= bounds.epsilon_bob(3, lam, 1) + 1e-9


class TestScoreMemo:
    """A strategy scores each game at each radius floor(n * gamma) in one pass."""

    @pytest.fixture
    def passes(self, monkeypatch):
        kernel, seen = adversary._contract, []

        def counting(*args, **kwargs):
            seen.append(None)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(adversary, "_contract", counting)
        return seen

    @pytest.mark.parametrize("m", [2, 3])
    def test_n2_scores_in_one_pass_per_radius(self, m, passes):
        cfg = DqacmConfig(m=m, n=2, family=equal_spaced_family(m))
        strat = random_strategy(cfg, (0, 1), rng=0)
        # exact, gamma 0.1 and gamma 0.25 are all radius 0 at n = 2
        exact = cheat_probability_exact(cfg, strat)
        assert [cheat_probability_gamma(cfg, strat, g) for g in (0.1, 0.25)] == [exact] * 2
        assert len(passes) == 1
        wide = cheat_probability_gamma(cfg, strat, 0.5)
        assert len(passes) == 2
        assert cheat_probability_gamma(cfg, strat, 0.5) == wide
        assert cheat_probability_exact(cfg, strat) == exact
        assert len(passes) == 2

    def test_n3_scores_in_one_pass_per_radius(self, bb84, passes):
        cfg = DqacmConfig(m=2, n=3, family=bb84)
        strat = random_strategy(cfg, (0, 1), rng=0)
        # gamma 0.34 and 0.5 are both radius 1 at n = 3
        narrow = cheat_probability_gamma(cfg, strat, 0.34)
        assert cheat_probability_gamma(cfg, strat, 0.5) == narrow
        assert len(passes) == 1
        # Radius 2 needs gamma >= 2/3, outside [0, 0.5]: refused before any pass.
        with pytest.raises(ValueError, match="outside"):
            cheat_probability_gamma(cfg, strat, 0.67)
        assert len(passes) == 1
        assert cheat_probability_gamma(cfg, strat, 0.2) == cheat_probability_exact(cfg, strat)
        assert len(passes) == 2

    def test_scores_are_kept_per_family(self, cfg21, passes):
        # The random draw reads no basis, so one seed draws one strategy
        # under either family; the key must still tell the games apart.
        planar = DqacmConfig(m=2, n=1, family=planar_basis_family(2, (math.pi / 3,)))
        strat = random_strategy(cfg21, (0, 1), rng=0)
        scores = {cfg: cheat_probability_exact(cfg, strat) for cfg in (cfg21, planar)}
        assert len(passes) == 2
        assert scores[cfg21] != scores[planar]
        for cfg, p in scores.items():
            assert cheat_probability_exact(cfg, random_strategy(cfg, (0, 1), rng=0)) == p

    def test_seesaw_result_scores_in_one_pass(self, cfg21, passes):
        # The see-saw leaves its result unscored: its own trace seeds nothing.
        res = seesaw_optimize(cfg21, (0, 1), iterations=5, seed=0, tol=-1)
        del passes[:]
        values = [cheat_probability_exact(cfg21, res.strategy)] + [
            cheat_probability_gamma(cfg21, res.strategy, g) for g in (0.1, 0.25)
        ]
        assert len(passes) == 1
        assert values == [pytest.approx(res.p_exact, abs=1e-12)] * 3


class TestLowerGates:
    """The see-saw must reach known optima, so "attack <= bound" can fail.

    A see-saw that skips its polar step stays well below every gate.
    """

    @pytest.mark.parametrize("n", [1, 2])
    def test_bb84_meets_the_bound(self, bb84, n):
        # Product strategies are optimal for BB84 (Tomamichel, Fehr,
        # Kaniewski and Wehner, NJP 15, 103002 (2013)), and the bound is
        # ((1 + sqrt(1/2)) / 2)**n; ancilla 4 reaches it at n <= 2.
        cfg = DqacmConfig(m=2, n=n, family=bb84)
        runs = (
            seesaw_optimize(cfg, (0, 1), ancilla_dim=4, iterations=40, seed=seed, tol=1e-12)
            for seed in range(4)
        )
        best = max(res.p_exact for res in runs)
        assert abs(best - bounds.epsilon_bob(2, 0.5, n)) < 1e-9

    def test_m3_equal_spaced_reaches_cos4(self, equal3):
        # Not a figure of the paper: a numerical finding that at n = 1 with
        # the ancilla a full copy of the register (8 dims) the see-saw
        # reaches ((1 + sqrt(3/4)) / 2)**2 = cos(pi/12)**4, below the
        # paper's bound of 0.955.
        cfg = DqacmConfig(m=3, n=1, family=equal3)
        res = seesaw_optimize(cfg, (0, 1), ancilla_dim=8, iterations=200, seed=0, tol=1e-13)
        assert res.p_exact >= math.cos(math.pi / 12) ** 4 - 1e-9


class TestSandwichNormLemma:
    def test_all_v_at_n1(self, cfg21, rng):
        s = ((0, 1),)
        for v in (((0, 1),), ((1, 0),)):
            for _ in range(5):
                res = verify_sandwich_norm(
                    cfg21,
                    s,
                    v,
                    random_measurement(2, 2, rng),
                    random_measurement(2, 2, rng),
                )
                assert res.ok
                assert res.omega == (1 if v[0] == (1, 0) else 0)
                assert res.sandwich_norm <= res.bound + 1e-9
                assert res.product_norm**2 == pytest.approx(res.sandwich_norm, abs=1e-8)

    def test_n2_spot_check(self, bb84, rng):
        cfg = DqacmConfig(m=2, n=2, family=bb84)
        s = ((1, 0), (0, 1))
        v = ((1, 0), (1, 0))
        res = verify_sandwich_norm(
            cfg, s, v, random_measurement(4, 4, rng), random_measurement(4, 4, rng)
        )
        assert res.ok and res.omega == 2
        assert res.bound == pytest.approx(0.25)

    def test_requires_rank_one_measurements(self, cfg21, rng):
        # two outcomes on two dimensions, one of rank 2 and one of rank 0
        coarse = random_measurement(2, 2, rng, ranks=[2, 0])
        with pytest.raises(ValueError, match="rank-1"):
            verify_sandwich_norm(cfg21, ((0, 1),), ((0, 1),), coarse, coarse)


def _phased_basis(theta, phi):
    c, s, w = math.cos(theta / 2), math.sin(theta / 2), np.exp(1j * phi)
    return [[c, w * s], [s, -w * c]]


# The lemma check's families: two per m, one of them at m=3 with unequal
# pairwise overlaps, so that a pair's own overlap differs from lambda, and
# a complex one, where a conjugation missed in the cross-Gram shows.
LEMMA_FAMILIES = {
    "bb84": (2, bb84_family),
    "planar(pi/3)": (2, lambda: planar_basis_family(2, (math.pi / 3,))),
    "equal-spaced(3)": (3, lambda: equal_spaced_family(3)),
    "planar(0.4,2.0)": (3, lambda: planar_basis_family(3, (0.4, 2.0))),
    "phased(3)": (
        3, lambda: BasisFamily([np.eye(2), _phased_basis(0.9, 0.5), _phased_basis(2.1, 2.0)])
    ),
}


def _shuffle_pairs(m, n):
    return itertools.product(itertools.product(enumerate_permutations(m), repeat=n), repeat=2)


def _pair_overlap(family, l0, l1):
    return float(np.abs(family.bases[l0].conj() @ family.bases[l1].T).max() ** 2)


def _basis_measurement(n_out):
    return quantum.ProjectiveMeasurement([np.eye(n_out)[:, [e]] for e in range(n_out)])


class TestSandwichNormEquality:
    @pytest.mark.parametrize("name", LEMMA_FAMILIES)
    def test_equals_pair_overlap_to_the_weight(self, name):
        # Every (s, v) and every ordered target pair: the norm is exactly
        # lam_{l0 l1}**omega, so the check fails on either side.
        m, make = LEMMA_FAMILIES[name]
        family = make()
        for n in (1, 2, 3) if m == 2 else (1, 2):
            cfg = DqacmConfig(m=m, n=n, family=family)
            meas = _basis_measurement(2**n)
            for l0, l1 in itertools.permutations(range(m), 2):
                lam = _pair_overlap(family, l0, l1)
                for s, v in _shuffle_pairs(m, n):
                    res = verify_sandwich_norm(cfg, s, v, meas, meas, targets=(l0, l1))
                    assert abs(res.sandwich_norm - lam**res.omega) <= 1e-12, (n, l0, l1, s, v)
                    assert res.ok

    @pytest.mark.parametrize("name", [k for k, (m, _) in LEMMA_FAMILIES.items() if m == 3])
    def test_equals_pair_overlap_at_m3_n3(self, name):
        # 216**2 (s, v) pairs are too many to enumerate; a seeded sample
        # of 50 per ordered target pair covers every weight 0 to 3.
        family = LEMMA_FAMILIES[name][1]()
        cfg = DqacmConfig(m=3, n=3, family=family)
        meas = _basis_measurement(8)
        tuples = list(itertools.product(enumerate_permutations(3), repeat=3))
        rng = np.random.default_rng(33)
        weights = set()
        for l0, l1 in itertools.permutations(range(3), 2):
            lam = _pair_overlap(family, l0, l1)
            for i, k in rng.integers(len(tuples), size=(50, 2)):
                s, v = tuples[i], tuples[k]
                res = verify_sandwich_norm(cfg, s, v, meas, meas, targets=(l0, l1))
                assert abs(res.sandwich_norm - lam**res.omega) <= 1e-12, (l0, l1, s, v)
                assert res.ok
                weights.add(res.omega)
        assert weights == {0, 1, 2, 3}

    def test_pair_overlap_can_sit_below_lambda(self):
        family = LEMMA_FAMILIES["planar(0.4,2.0)"][1]()
        cfg = DqacmConfig(m=3, n=1, family=family)
        lam = _pair_overlap(family, 0, 2)
        assert lam < quantum.overlap_lambda(family) - 0.2
        meas = _basis_measurement(2)
        res = verify_sandwich_norm(cfg, ((0, 1, 2),), ((2, 1, 0),), meas, meas, targets=(0, 2))
        assert res.omega == 1 and res.sandwich_norm == pytest.approx(lam, abs=1e-12)
        assert res.sandwich_norm < res.bound - 0.2

    @pytest.mark.parametrize(
        "n,name", [(1, "planar(pi/3)"), (2, "planar(pi/3)"), (1, "planar(0.4,2.0)"), (1, "phased(3)")]
    )
    def test_matches_dense_reference(self, n, name, rng):
        m, make = LEMMA_FAMILIES[name]
        cfg = DqacmConfig(m=m, n=n, family=make())
        n_out = 2**n
        for targets in itertools.permutations(range(m), 2):
            for s, v in _shuffle_pairs(m, n):
                meas = [random_measurement(n_out, n_out, rng) for _ in (0, 1)]
                res = verify_sandwich_norm(cfg, s, v, *meas, targets=targets)
                sandwich, product = reference_sandwich_norm(cfg, s, v, *meas, targets=targets)
                assert res.sandwich_norm == pytest.approx(sandwich, abs=1e-12)
                assert res.product_norm == pytest.approx(product, abs=1e-12)


class TestGradient:
    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_directional_difference(self, m, n):
        # The value is exactly quadratic in the isometry M, so for any
        # direction D the central difference p(M + tD) - p(M - tD) is
        # 4t Re tr(D^dagger h): this tests all of h, not only its component
        # along M.  The computational, circular and diagonal bases make the
        # encoding complex, so a conjugation missed in undoing it shows.
        h = 1 / math.sqrt(2)
        mub = [np.eye(2), [[h, 1j * h], [h, -1j * h]], [[h, h], [h, -h]]]
        cfg = DqacmConfig(m=m, n=n, family=BasisFamily(mub[:m]))
        game = adversary._game_for(cfg, (0, 1))
        canonical = tuple(range(m * n))
        strategies = {}
        for seed in range(50):
            strat = random_strategy(cfg, (0, 1), rng=seed)
            strategies.setdefault(strat.split[0] == canonical, (seed, strat))
        assert len(strategies) == 2
        for seed, strat in strategies.values():
            cols = [[strat.measurements[(b, s)].columns for s in game.s_tuples] for b in (0, 1)]
            layout = (strat.factors, strat.split, *cols)
            grad = adversary._contract(game, strat.isometry, *layout, grad=True)[2]
            rng = np.random.default_rng(seed)
            delta = rng.standard_normal(grad.shape) + 1j * rng.standard_normal(grad.shape)
            delta /= np.linalg.norm(delta)
            t = 0.1
            plus, minus = (
                adversary._contract(game, strat.isometry + sign * t * delta, *layout)[0]
                for sign in (1, -1)
            )
            want = 4 * t * np.vdot(delta, grad).real
            assert plus - minus == pytest.approx(want, rel=1e-10, abs=0)


def test_game_keeps_no_dense_encoding(monkeypatch):
    # 216 shuffle tuples of 512 x 512 encoders would keep 864 MiB.
    cfg = DqacmConfig(m=3, n=3, family=equal_spaced_family(3))
    monkeypatch.setattr(adversary, "_GAME_CACHE", {})
    tracemalloc.start()
    try:
        game = adversary._game_for(cfg, (0, 1))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(game.s_tuples) == 216
    assert kept < 16e6


class TestProcedureEquivalence:
    def test_random_branching_strategies_agree(self, cfg21):
        for seed in range(3):
            strat = random_branching_strategy(cfg21, (0, 1), rng=seed)
            res = verify_procedure_equivalence(cfg21, strat, seed=seed, n_inputs=4)
            assert res.ok
            assert res.max_tv < 1e-9

    def test_branch_count(self, cfg21):
        strat = random_branching_strategy(cfg21, (0, 1), rng=0)
        # m * m * (m - 1) intermediate outcomes
        assert strat.intermediate.n_outcomes == 4
        assert set(strat.conditioned) == set(range(4))

    def test_result_is_truthy(self, cfg21):
        strat = random_branching_strategy(cfg21, (0, 1), rng=1)
        assert bool(verify_procedure_equivalence(cfg21, strat, n_inputs=2))

    def test_zero_inputs_rejected(self, cfg21):
        strat = random_branching_strategy(cfg21, (0, 1), rng=0)
        with pytest.raises(ValueError, match="n_inputs"):
            verify_procedure_equivalence(cfg21, strat, n_inputs=0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_record_missing_from_branch_1_fails(self, m, monkeypatch):
        cfg = DqacmConfig(m=m, n=1, family=equal_spaced_family(m))
        strat = random_branching_strategy(cfg, (0, 1), rng=0)
        assert verify_procedure_equivalence(cfg, strat, n_inputs=2).ok
        monkeypatch.setattr(adversary, "_write_records", records_without_branch1)
        res = verify_procedure_equivalence(cfg, strat, n_inputs=2)
        assert not res.ok
        assert res.max_tv > 1e-9
