import itertools
import math

import numpy as np
import pytest

from scotsim import dqacm
from scotsim.dqacm import (
    AliceInputs,
    DqacmConfig,
    decode,
    enumerate_permutations,
    sample_inputs,
    stage1_honest,
)
from scotsim.quantum import (
    BasisFamily,
    ProjectiveMeasurement,
    PureState,
    bb84_family,
    equal_spaced_family,
    full_distribution,
    planar_basis_family,
)

SLOT_FAMILIES = {
    "bb84": bb84_family,
    "equal-spaced(3)": lambda: equal_spaced_family(3),
    "planar(pi/3)": lambda: planar_basis_family(2, (math.pi / 3,)),
    "planar(0.4,2.0)": lambda: planar_basis_family(3, (0.4, 2.0)),
}


class TestConfig:
    def test_family_mismatch(self, bb84):
        with pytest.raises(ValueError):
            DqacmConfig(m=3, n=2, family=bb84)

    def test_parameter_ranges(self, bb84):
        with pytest.raises(ValueError):
            DqacmConfig(m=2, n=0, family=bb84)
        with pytest.raises(ValueError):
            DqacmConfig(m=2, n=1, family=bb84, gamma=0.6)

    def test_slot_cdf_shape_and_cache(self, cfg21):
        cdf = cfg21.slot_cdf()
        assert cdf.shape == (2, 2, 2, 2)
        assert cfg21.slot_cdf() is cdf
        assert np.allclose(cdf[..., -1], 1.0)
        # same-basis slots are deterministic: cdf jumps at the encoded bit
        assert np.allclose(cdf[0, 0, 0], [1.0, 1.0])
        assert np.allclose(cdf[0, 0, 1], [0.0, 1.0])
        # cross-basis BB84 slots are unbiased
        assert np.allclose(cdf[0, 1, 0], [0.5, 1.0])

    @pytest.mark.parametrize("name", SLOT_FAMILIES)
    def test_slot_cdf_matches_the_born_rule(self, name):
        family = SLOT_FAMILIES[name]()
        cdf = DqacmConfig(m=family.m, n=1, family=family).slot_cdf()
        assert cdf.flags.c_contiguous and cdf.dtype == np.float64
        assert (cdf[..., -1] == 1.0).all()
        for c in range(family.m):
            meas = ProjectiveMeasurement([v[:, None] for v in family.bases[c]])
            for i, r in itertools.product(range(family.m), range(family.l)):
                born = full_distribution(PureState(family.bases[i, r], (family.l,)), meas)
                assert np.abs(cdf[c, i, r] - np.cumsum(born)).max() < 1e-15

    def test_slot_table_is_not_an_argument(self, bb84):
        table = np.ones((2, 2, 2, 2))
        with pytest.raises(TypeError):
            DqacmConfig(2, 4, bb84, 0.0, table)
        with pytest.raises(TypeError):
            DqacmConfig(m=2, n=4, family=bb84, _slot_cdf=table)


class _TopDraw:
    """A generator stub whose every uniform draw is the largest double below 1."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


class TestSampleSlots:
    @pytest.mark.parametrize("name", SLOT_FAMILIES)
    def test_top_draw_stays_below_l(self, name):
        # A table ending a rounding step below 1.0 would turn this draw
        # into outcome l.
        family = SLOT_FAMILIES[name]()
        m, l = family.m, family.l
        cfg = DqacmConfig(m=m, n=1, family=family)
        grid = np.array(list(itertools.product(range(m), range(m), range(l))))
        c, occupant, bits = grid.T
        d = dqacm.sample_slots(cfg, c, occupant, bits, _TopDraw())
        assert ((0 <= d) & (d < l)).all()
        cross = occupant != c
        assert (d[cross] == l - 1).all()


class TestPermutations:
    def test_lexicographic(self):
        assert enumerate_permutations(3) == (
            (0, 1, 2),
            (0, 2, 1),
            (1, 0, 2),
            (1, 2, 0),
            (2, 0, 1),
            (2, 1, 0),
        )

    def test_count(self):
        assert len(enumerate_permutations(4)) == 24

    def test_domain(self):
        with pytest.raises(ValueError):
            enumerate_permutations(0)


class TestInputs:
    def test_shapes(self, cfg32, rng):
        inputs = sample_inputs(cfg32, rng)
        assert inputs.r.shape == (3, 2)
        assert len(inputs.s) == 2
        for perm in inputs.s:
            assert sorted(perm) == [0, 1, 2]

    def test_deterministic_per_seed(self, cfg32):
        a = sample_inputs(cfg32, np.random.default_rng(4))
        b = sample_inputs(cfg32, np.random.default_rng(4))
        assert np.array_equal(a.r, b.r)
        assert a.s == b.s

    def test_r_is_read_only(self, cfg21, rng):
        inputs = sample_inputs(cfg21, rng)
        with pytest.raises(ValueError):
            inputs.r[0, 0] = 1


class TestStage1:
    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3)])
    def test_decode_recovers_chosen_row(self, m, n, rng):
        fam = equal_spaced_family(m)
        cfg = DqacmConfig(m=m, n=n, family=fam)
        for _ in range(20):
            inputs = sample_inputs(cfg, rng)
            for c in range(m):
                rec = stage1_honest(cfg, inputs, c, rng)
                assert rec.c == c
                assert np.array_equal(
                    decode(cfg, c, rec.d, inputs.s), inputs.r[c]
                )

    def test_other_rows_stay_uncertain(self, cfg21):
        # decoding the wrong row from a basis-0 record must err at the
        # cross-basis rate, 1/2 for the pi/2 family
        rng = np.random.default_rng(99)
        wrong = 0
        total = 0
        for _ in range(300):
            inputs = sample_inputs(cfg21, rng)
            rec = stage1_honest(cfg21, inputs, 0, rng)
            guess = decode(cfg21, 1, rec.d, inputs.s)
            wrong += int(guess[0] != inputs.r[1, 0])
            total += 1
        assert wrong / total == pytest.approx(0.5, abs=0.1)

    def test_outcome_statistics_follow_born_rule(self):
        fam = equal_spaced_family(3)
        cfg = DqacmConfig(m=3, n=1, family=fam)
        inputs = AliceInputs(np.array([[0], [0], [0]]), ((0, 1, 2),))
        rng = np.random.default_rng(17)
        runs = 4000
        hits = np.zeros(3)
        for _ in range(runs):
            rec = stage1_honest(cfg, inputs, 0, rng)
            hits += rec.d[:, 0]
        # basis-i bit 0 measured computationally reads 1 with sin^2(theta_i/2)
        for i in (1, 2):
            expect = math.sin(i * math.pi / 6) ** 2
            assert hits[i] / runs == pytest.approx(expect, abs=0.03)
        assert hits[0] == 0

    def test_flip_rate_statistics(self, cfg21):
        rng = np.random.default_rng(3)
        flips = 0
        total = 0
        for _ in range(2000):
            inputs = sample_inputs(cfg21, rng)
            rec = stage1_honest(cfg21, inputs, 0, rng, flip_rate=0.1)
            flips += int(decode(cfg21, 0, rec.d, inputs.s)[0] != inputs.r[0, 0])
            total += 1
        assert flips / total == pytest.approx(0.1, abs=0.03)

    def test_flip_rate_validation(self, cfg21, rng):
        inputs = sample_inputs(cfg21, rng)
        with pytest.raises(ValueError):
            stage1_honest(cfg21, inputs, 0, rng, flip_rate=1.0)

    def test_flip_rate_needs_binary_outcomes(self, rng):
        qutrit = BasisFamily(np.stack([np.eye(3), np.eye(3)]).astype(complex))
        cfg = DqacmConfig(m=2, n=1, family=qutrit)
        inputs = AliceInputs(np.array([[2], [1]]), ((0, 1),))
        rec = stage1_honest(cfg, inputs, 0, rng)  # trit outcomes are fine
        assert rec.d.shape == (2, 1)
        with pytest.raises(ValueError):
            stage1_honest(cfg, inputs, 0, rng, flip_rate=0.1)

    def test_input_validation(self, cfg21, rng):
        good = sample_inputs(cfg21, rng)
        with pytest.raises(ValueError):
            stage1_honest(cfg21, good, 2, rng)
        bad_r = AliceInputs(np.zeros((3, 1), dtype=np.int64), good.s)
        with pytest.raises(ValueError):
            stage1_honest(cfg21, bad_r, 0, rng)
        bad_s = AliceInputs(good.r, ((0, 0),))
        with pytest.raises(ValueError):
            stage1_honest(cfg21, bad_s, 0, rng)


class TestDecode:
    def test_reads_committed_positions(self, cfg32):
        d = np.arange(6).reshape(3, 2)
        s = ((2, 0, 1), (0, 1, 2))
        # basis 1 sits at position 0 in round 0 and position 1 in round 1
        assert np.array_equal(decode(cfg32, 1, d, s), [d[0, 0], d[1, 1]])

    def test_validation(self, cfg32):
        d = np.zeros((3, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            decode(cfg32, 3, d, ((0, 1, 2), (0, 1, 2)))
        with pytest.raises(ValueError):
            decode(cfg32, 0, d, ((0, 1, 2),))
