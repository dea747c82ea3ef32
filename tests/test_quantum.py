import math

import numpy as np
import pytest

from helpers import run_optimized
from scotsim.errors import CapacityError
from scotsim.quantum import (
    BasisFamily,
    ProjectiveMeasurement,
    PureState,
    bb84_family,
    block_projectors,
    equal_spaced_family,
    full_distribution,
    measure,
    overlap_lambda,
    planar_basis_family,
    prepare_product_state,
    spectral_norm,
)

RT2 = 1.0 / math.sqrt(2.0)


def _basis_measurement(family, i, subsystems=None):
    """Rank-1 measurement in basis ``i`` of the family."""
    return ProjectiveMeasurement([v[:, None] for v in family.bases[i]], subsystems)


class TestFamilies:
    def test_bb84_vectors(self, bb84):
        assert np.allclose(bb84.bases[0], np.eye(2))
        assert np.allclose(bb84.bases[1], [[RT2, RT2], [RT2, -RT2]])

    def test_bb84_lambda(self, bb84):
        assert overlap_lambda(bb84) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_equal_spaced_lambda(self, m):
        fam = equal_spaced_family(m)
        assert fam.m == m
        expect = math.cos(math.pi / (2 * m)) ** 2
        assert overlap_lambda(fam) == pytest.approx(expect, abs=1e-12)

    def test_planar_skewed_angle(self):
        fam = planar_basis_family(2, (math.pi / 3,))
        # below pi/2 the larger overlap comes from the cosine component
        assert overlap_lambda(fam) == pytest.approx(0.75, abs=1e-12)

    def test_shared_entangled_state_is_exact(self):
        for m in (2, 3, 5):
            fam = equal_spaced_family(m)
            target = np.array([1.0, 0, 0, 1.0])
            for i in range(m):
                acc = sum(
                    np.kron(fam.bases[i, r].conj(), fam.bases[i, r]) for r in range(2)
                )
                assert np.allclose(acc, target, atol=1e-12)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            planar_basis_family(3, (0.5,))  # wrong count
        with pytest.raises(ValueError):
            planar_basis_family(3, (1.0, 0.5))  # not increasing
        with pytest.raises(ValueError):
            planar_basis_family(2, (math.pi,))  # boundary excluded
        with pytest.raises(ValueError):
            planar_basis_family(2, (0.0,))

    def test_orthonormality_enforced(self):
        bad = np.stack([np.eye(2), [[1.0, 0.0], [1.0, 0.0]]]).astype(complex)
        with pytest.raises(ValueError):
            BasisFamily(bad)

    def test_family_arrays_read_only(self, bb84):
        with pytest.raises(ValueError):
            bb84.bases[0, 0, 0] = 2.0

    def test_vector_accessor(self, bb84):
        assert np.allclose(bb84.vector(1, 1), [RT2, -RT2])

    def test_shared_state_guard_survives_optimize(self):
        # Doubling every Kronecker product breaks |00> + |11> and nothing else.
        res = run_optimized(
            """
            import numpy as np
            from scotsim import quantum
            assert False  # stripped under -O
            kron = np.kron
            np.kron = lambda a, b: 2 * kron(a, b)
            quantum.planar_basis_family(2, (1.0,))
            """
        )
        assert res.returncode != 0
        assert "basis 0 does not share the entangled state" in res.stderr


class TestStates:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]), (2,))

    def test_dims_must_resolve_length(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 0.0, 0.0, 0.0]), (2,))

    def test_product_state_matches_manual_kron(self, bb84):
        r = np.array([[1], [0]])
        s = ((1, 0),)  # basis 0 goes to slot 1, basis 1 to slot 0
        state = prepare_product_state(bb84, r, s)
        manual = np.kron(bb84.bases[1, 0], bb84.bases[0, 1])
        assert np.allclose(state.amplitudes, manual)
        assert state.dims == (2, 2)

    def test_product_state_two_rounds(self, bb84):
        r = np.array([[1, 0], [0, 1]])
        s = ((0, 1), (1, 0))
        state = prepare_product_state(bb84, r, s)
        manual = np.kron(
            np.kron(bb84.bases[0, 1], bb84.bases[1, 0]),
            np.kron(bb84.bases[1, 1], bb84.bases[0, 0]),
        )
        assert np.allclose(state.amplitudes, manual)

    def test_product_state_validation(self, bb84):
        with pytest.raises(ValueError):
            prepare_product_state(bb84, np.array([[2], [0]]), ((0, 1),))
        with pytest.raises(ValueError):
            prepare_product_state(bb84, np.array([[0], [0]]), ((0, 0),))

    def test_capacity_cap(self, bb84):
        r = np.zeros((2, 7), dtype=np.int64)
        s = tuple(((0, 1),) * 7)
        with pytest.raises(CapacityError):
            prepare_product_state(bb84, r, s)  # 2**14 amplitudes


class TestMeasurements:
    def test_projector_validation(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            ProjectiveMeasurement([eye * 0.5])  # columns not normalised
        assert ProjectiveMeasurement([eye]).n_outcomes == 1  # trivial but complete
        with pytest.raises(ValueError):
            ProjectiveMeasurement([eye[:, :1], eye[:, :1]])  # one column twice

    @pytest.mark.parametrize("d", [2, 40])
    def test_each_check_names_the_failing_projector(self, d, rng):
        # Outcome 0 takes the first half of a random unitary's columns.
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = np.linalg.qr(z)[0]
        v0, v1 = u[:, : d // 2], u[:, d // 2 :]
        with pytest.raises(ValueError, match="block 1 is not orthonormal"):
            ProjectiveMeasurement([v0, 2.0 * v1])
        overlapping = np.concatenate((v0[:, :1], v1[:, 1:]), axis=1)
        with pytest.raises(ValueError, match="blocks 0 and 1 overlap"):
            ProjectiveMeasurement([v0, overlapping])
        with pytest.raises(ValueError, match=f"blocks have {d // 2} columns in all, need {d}"):
            ProjectiveMeasurement([v0])
        with pytest.raises(ValueError, match=f"block 1 has {d - 1} rows, block 0 has {d}"):
            ProjectiveMeasurement([v0, v1[1:]])
        meas = ProjectiveMeasurement([v0, np.zeros((d, 0)), v1])  # a rank-0 outcome
        assert meas.ranks == (d // 2, 0, d - d // 2)
        projectors = block_projectors(meas.columns)
        assert not projectors[1].any()
        assert np.abs(projectors.sum(axis=0) - np.eye(d)).max() < 1e-12

    @pytest.mark.parametrize("k", [0, 3])
    def test_stacked_check_names_the_basis_and_outcomes(self, k, rng):
        # Five bases of dimension 6; columns 0-1 are block 0, 2-4 block 2
        # and 5 block 3, while block 1 has rank 0.
        n_bases, d, ranks = 5, 6, (2, 0, 3, 1)
        z = rng.standard_normal((n_bases, d, d)) + 1j * rng.standard_normal((n_bases, d, d))
        bases = np.linalg.qr(z)[0]
        pms = ProjectiveMeasurement.stack(bases, ranks)
        for pm, u in zip(pms, bases):
            one = ProjectiveMeasurement(np.split(u, [2, 2, 5], axis=1))
            assert pm.columns.tobytes() == one.columns.tobytes()
            assert pm.ranks == one.ranks == ranks
            assert pm.columns.base is pms[0].columns.base
            assert not pm.columns.flags.writeable
        scaled = bases.copy()
        scaled[k, :, 3] *= 2.0
        with pytest.raises(ValueError, match=f"^basis {k}: block 2 is not orthonormal$"):
            ProjectiveMeasurement.stack(scaled, ranks)
        overlapping = bases.copy()
        overlapping[k, :, 5] = overlapping[k, :, 0]
        with pytest.raises(ValueError, match=f"^basis {k}: blocks 0 and 3 overlap$"):
            ProjectiveMeasurement.stack(overlapping, ranks)
        # A NaN entry fails the check too, in a stack and on its own.
        broken = bases.copy()
        broken[k, 1, 1] = np.nan
        with pytest.raises(ValueError, match=f"^basis {k}: block 0 is not orthonormal$"):
            ProjectiveMeasurement.stack(broken, ranks)
        with pytest.raises(ValueError, match="^block 0 is not orthonormal$"):
            ProjectiveMeasurement(np.split(broken[k], [2, 2, 5], axis=1))
        with pytest.raises(ValueError, match="rank profile \\[2, 0, 3\\] does not resolve"):
            ProjectiveMeasurement.stack(bases, ranks[:-1])

    def test_block_check_survives_optimize(self):
        res = run_optimized(
            """
            import numpy as np
            from scotsim.quantum import ProjectiveMeasurement
            assert False  # stripped under -O
            eye = np.eye(2)
            ProjectiveMeasurement([eye[:, :1], 2.0 * eye[:, 1:]])
            """
        )
        assert res.returncode != 0
        assert "block 1 is not orthonormal" in res.stderr

    def test_identity_partition_is_valid(self):
        eye = np.eye(2, dtype=complex)
        meas = ProjectiveMeasurement([eye[:, :1], eye[:, 1:]])
        assert meas.n_outcomes == 2
        assert meas.dim == 2
        assert meas.ranks == (1, 1)
        assert np.array_equal(block_projectors(meas.columns), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert not meas.columns.flags.writeable
        assert not hasattr(meas, "projectors")

    def test_full_distribution_plus_state(self, bb84):
        plus = PureState(np.array([RT2, RT2]), (2,))
        probs = full_distribution(plus, _basis_measurement(bb84, 0))
        assert np.allclose(probs, [0.5, 0.5])
        probs = full_distribution(plus, _basis_measurement(bb84, 1))
        assert np.allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_measure_is_deterministic_per_seed(self, bb84):
        plus = PureState(np.array([RT2, RT2]), (2,))
        meas = _basis_measurement(bb84, 0)
        first = [measure(plus, meas, np.random.default_rng(s)).outcome for s in range(20)]
        second = [measure(plus, meas, np.random.default_rng(s)).outcome for s in range(20)]
        assert first == second
        assert set(first) == {0, 1}

    def test_collapse_is_idempotent(self, bb84, rng):
        plus = PureState(np.array([RT2, RT2]), (2,))
        meas = _basis_measurement(bb84, 0)
        res = measure(plus, meas, rng)
        again = measure(res.post_state, meas, rng)
        assert again.outcome == res.outcome
        assert again.probability == pytest.approx(1.0)

    def test_subsystem_measurement_marginal(self, bb84):
        r = np.array([[1], [0]])
        state = prepare_product_state(bb84, r, ((0, 1),))
        # slot 0 carries basis-0 bit 1: measuring it computationally is certain
        meas = _basis_measurement(bb84, 0, subsystems=(0,))
        probs = full_distribution(state, meas)
        assert np.allclose(probs, [0.0, 1.0], atol=1e-12)
        res = measure(state, meas, np.random.default_rng(0))
        assert res.outcome == 1
        assert res.post_state.dims == state.dims

    def test_statistics_match_born_rule(self, bb84):
        theta = math.pi / 3
        fam = planar_basis_family(2, (theta,))
        state = PureState(fam.bases[1, 0].copy(), (2,))
        meas = _basis_measurement(bb84, 0)
        rng = np.random.default_rng(5)
        hits = sum(measure(state, meas, rng).outcome == 0 for _ in range(4000))
        assert hits / 4000 == pytest.approx(math.cos(theta / 2) ** 2, abs=0.03)


class TestSpectralNorm:
    def test_matches_singular_value(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert spectral_norm(a) == pytest.approx(np.linalg.svd(a)[1].max())

    def test_projector_norm_is_one(self, bb84):
        p = np.outer(bb84.bases[1, 0], bb84.bases[1, 0].conj())
        assert spectral_norm(p) == pytest.approx(1.0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            spectral_norm(np.zeros((2**13, 1)))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros(4))
