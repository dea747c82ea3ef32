"""Closed-form bound checks against independently computed references.

The frozen decimal constants below were produced with 50-digit mpmath
arithmetic and rounded once; the tests compare binary64 results against
them at tolerances far above the double-rounding error.
"""

import itertools
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import run_optimized
from scotsim.bounds import (
    BoundReport,
    binary_entropy,
    bound_report,
    count_omega,
    epsilon_bob,
    epsilon_bob_gamma,
    gamma_threshold,
)
from scotsim.quantum import equal_spaced_family, overlap_lambda

# high-precision references (50-digit arithmetic, rounded once)
H_011 = 0.49991595816452799564049959413
EPS_2_HALF_1 = 0.853553390593273762200422181052
EPS_2_HALF_2 = 0.728553390593273762200422181052
EPS_3_EQSP_1 = 0.955341801261479548921241056918
EPS_3_EQSP_2 = 0.912677957237528287450543631446
EPS_2_PI3_2 = 0.870512701892219323381861585376
EPSG_2_HALF_10_001 = 0.629115036487116484100109741613
EPSG_2_HALF_1_01 = 1.63528771764520998152610901874
GAMMA_2_HALF = 0.0153093009897998004745900551145
GAMMA_EQSP = {
    3: 0.0034217182738306197823,
    4: 0.0012502658806306987769,
    5: 0.00058217299859768730525,
    6: 0.00031411113341187275663,
}


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self):
        assert binary_entropy(0.11) == pytest.approx(H_011, abs=1e-14)

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0 + 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestExactBound:
    def test_frozen_values(self):
        assert epsilon_bob(2, 0.5, 1) == pytest.approx(EPS_2_HALF_1, abs=1e-15)
        assert epsilon_bob(2, 0.5, 2) == pytest.approx(EPS_2_HALF_2, abs=1e-15)
        assert epsilon_bob(2, 0.75, 2) == pytest.approx(EPS_2_PI3_2, abs=1e-15)

    def test_frozen_values_m3(self):
        lam = overlap_lambda(equal_spaced_family(3))
        assert epsilon_bob(3, lam, 1) == pytest.approx(EPS_3_EQSP_1, abs=1e-14)
        assert epsilon_bob(3, lam, 2) == pytest.approx(EPS_3_EQSP_2, abs=1e-14)

    def test_decreases_exponentially_in_n(self):
        vals = [epsilon_bob(2, 0.5, n) for n in range(1, 12)]
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        assert all(r == pytest.approx(EPS_2_HALF_1, abs=1e-12) for r in ratios)

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=1e-6, max_value=1.0),
        st.integers(min_value=1, max_value=50),
    )
    def test_stays_inside_unit_interval(self, m, lam, n):
        val = epsilon_bob(m, lam, n)
        assert 0.0 < val <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_bob(1, 0.5, 1)
        with pytest.raises(ValueError):
            epsilon_bob(2, 0.0, 1)
        with pytest.raises(ValueError):
            epsilon_bob(2, 1.5, 1)
        with pytest.raises(ValueError):
            epsilon_bob(2, 0.5, 0)


class TestTolerantBound:
    def test_frozen_values(self):
        assert epsilon_bob_gamma(2, 0.5, 10, 0.01) == pytest.approx(
            EPSG_2_HALF_10_001, abs=1e-14
        )
        assert epsilon_bob_gamma(2, 0.5, 1, 0.1) == pytest.approx(
            EPSG_2_HALF_1_01, abs=1e-13
        )

    def test_gamma_zero_collapses_to_exact(self):
        for m, lam, n in ((2, 0.5, 3), (3, 0.75, 2)):
            assert epsilon_bob_gamma(m, lam, n, 0.0) == epsilon_bob(m, lam, n)

    def test_monotone_in_gamma(self):
        grid = [0.0, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5]
        vals = [epsilon_bob_gamma(2, 0.5, 4, g) for g in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_raw_value_may_exceed_one(self):
        # the bound turns vacuous above the threshold but stays reportable
        assert epsilon_bob_gamma(2, 0.5, 2, 0.25) > 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_bob_gamma(2, 0.5, 1, 0.6)
        with pytest.raises(ValueError):
            epsilon_bob_gamma(2, 0.5, 1, -0.1)


class TestGammaThreshold:
    def test_frozen_value_and_window(self):
        g = gamma_threshold(2, 0.5)
        assert 0.0145 <= g <= 0.0155
        assert g == pytest.approx(GAMMA_2_HALF, abs=1e-11)

    def test_residual(self):
        g = gamma_threshold(2, 0.5)
        per_round = 2.0 ** (2.0 * binary_entropy(g)) * (1.0 + math.sqrt(0.5)) / 2.0
        assert abs(per_round - 1.0) < 1e-10

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_equal_spaced_values(self, m):
        lam = overlap_lambda(equal_spaced_family(m))
        g = gamma_threshold(m, lam)
        assert g == pytest.approx(GAMMA_EQSP[m], rel=1e-8)
        assert g <= 0.5

    def test_threshold_separates_regimes(self):
        g = gamma_threshold(2, 0.5)
        assert epsilon_bob_gamma(2, 0.5, 1, g * 0.9) < 1.0
        assert epsilon_bob_gamma(2, 0.5, 1, min(0.5, g * 1.1)) > 1.0

    def test_degenerate_lambda_rejected(self):
        with pytest.raises(ValueError):
            gamma_threshold(2, 1.0)


def _brute_count(m: int, n: int) -> dict[int, int]:
    """Collision counts by direct enumeration, for targets (0, 1)."""
    perms = list(itertools.permutations(range(m)))
    counts: dict[int, int] = {}
    for v in itertools.product(perms, repeat=n):
        # round j collides when v_j sends row 1 to where row 0 sits
        w = sum(1 for vj in v if vj[1] == 0)
        counts[w] = counts.get(w, 0) + 1
    return counts


class TestCounting:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, m, n):
        brute = _brute_count(m, n)
        for w in range(n + 1):
            assert count_omega(m, n, w) == brute.get(w, 0)

    def test_known_m3_n2(self):
        assert [count_omega(3, 2, w) for w in (0, 1, 2)] == [16, 16, 4]

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=5))
    def test_total_is_all_tuples(self, m, n):
        total = sum(count_omega(m, n, w) for w in range(n + 1))
        assert total == math.factorial(m) ** n

    def test_domain(self):
        with pytest.raises(ValueError):
            count_omega(2, 2, 3)
        with pytest.raises(ValueError):
            count_omega(2, 2, -1)


class TestReport:
    def test_fields_consistent(self):
        rep = bound_report(2, 4, 0.5, 0.01)
        assert isinstance(rep, BoundReport)
        assert rep.epsilon_exact == epsilon_bob(2, 0.5, 4)
        assert rep.epsilon_gamma == epsilon_bob_gamma(2, 0.5, 4, 0.01)
        assert rep.epsilon_gamma >= rep.epsilon_exact

    def test_gamma_defaults_to_exact(self):
        rep = bound_report(3, 2, 0.75)
        assert rep.epsilon_gamma == rep.epsilon_exact

    @pytest.mark.parametrize(
        "exact, tolerant, message",
        [(0.0, 0.5, "epsilon_exact=0.0 outside (0, 1]"),
         (1.5, 1.5, "epsilon_exact=1.5 outside (0, 1]"),
         (0.5, 0.25, "epsilon_gamma=0.25 below epsilon_exact=0.5")],
    )
    def test_rejects_inconsistent_rows(self, exact, tolerant, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BoundReport(2, 1, 0.5, 0.0, exact, tolerant, 0.1)

    def test_checks_survive_optimize(self):
        res = run_optimized(
            """
            from scotsim.bounds import BoundReport
            assert False  # stripped under -O
            BoundReport(2, 1, 0.5, 0.0, 0.5, 0.25, 0.1)
            """
        )
        assert res.returncode != 0
        assert "epsilon_gamma=0.25 below epsilon_exact=0.5" in res.stderr
