"""Closed-form security bounds and counting helpers.

All quantities are elementary functions of the basis count m, the round
count n, the worst-case squared overlap lam of the basis family, and an
error-tolerance fraction gamma.  Everything here is scalar math in
binary64; the heavy lifting happens elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "binary_entropy",
    "epsilon_bob",
    "epsilon_bob_gamma",
    "gamma_threshold",
    "count_omega",
    "BoundReport",
    "bound_report",
]


def _check_m_lam(m: int, lam: float) -> None:
    if m < 2:
        raise ValueError("m must be at least 2")
    if not 0.0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with bias ``p``, in bits.

    Defined on [0, 1] with the continuous extension h(0) = h(1) = 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _base(m: int, lam: float) -> float:
    return (m - 1 + math.sqrt(lam)) / m


def epsilon_bob(m: int, lam: float, n: int) -> float:
    """Exact-game cheating bound ``((m - 1 + sqrt(lam)) / m) ** n``."""
    _check_m_lam(m, lam)
    if n < 1:
        raise ValueError("n must be at least 1")
    return _base(m, lam) ** n


def epsilon_bob_gamma(m: int, lam: float, n: int, gamma: float) -> float:
    """Error-tolerant cheating bound with per-round slack ``2**(2 h(gamma))``.

    Meaningful (below 1) only for gamma under :func:`gamma_threshold`;
    the raw value is returned either way so callers can see it cross 1.
    """
    _check_m_lam(m, lam)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= gamma <= 0.5:
        raise ValueError(f"gamma={gamma} outside [0, 0.5]")
    return (2.0 ** (2.0 * binary_entropy(gamma)) * _base(m, lam)) ** n


def gamma_threshold(m: int, lam: float, residual_tol: float = 1e-10) -> float:
    """Largest tolerable error fraction: the root of ``2**(2 h(g)) * base = 1``.

    ``base = (m - 1 + sqrt(lam)) / m`` is below 1 for any valid family,
    and ``2 h(g)`` climbs from 0 past ``-log2(base)`` before g reaches
    1/2 (base is always above 1/4), so a unique root lies in (0, 1/2).
    Found by bisection; the returned g satisfies
    ``|2**(2 h(g)) * base - 1| < residual_tol``.
    """
    _check_m_lam(m, lam)
    if lam == 1.0:
        raise ValueError("lam=1 admits no positive threshold")
    target = -math.log2(_base(m, lam))

    def f(g: float) -> float:
        return 2.0 * binary_entropy(g) - target

    lo, hi = 1e-12, 0.5
    if f(lo) > 0.0 or f(hi) < 0.0:
        raise ValueError("threshold bracket failed; lam too close to 1")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-17:
            break
    g = 0.5 * (lo + hi)
    residual = abs(2.0 ** (2.0 * binary_entropy(g)) * _base(m, lam) - 1.0)
    if residual >= residual_tol:
        raise ArithmeticError(f"bisection residual {residual} above {residual_tol}")
    return g


def count_omega(m: int, n: int, omega: int) -> int:
    """Number of n-tuples of permutations of range(m) with weight ``omega``.

    The weight of a tuple v counts the rounds whose permutation maps one
    fixed point to another fixed point (any ordered pair of distinct
    points gives the same count).  Per round there are (m-1)! matching
    permutations and m! - (m-1)! others, hence
    ``C(n, omega) * ((m-1)!)**omega * (m! - (m-1)!)**(n - omega)``.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= omega <= n:
        raise ValueError(f"omega={omega} outside 0..{n}")
    hit = math.factorial(m - 1)
    miss = math.factorial(m) - hit
    return math.comb(n, omega) * hit**omega * miss ** (n - omega)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated row of the bound sweep."""

    m: int
    n: int
    lam: float
    gamma: float
    epsilon_exact: float
    epsilon_gamma: float
    gamma_threshold: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon_exact <= 1.0:
            raise ValueError(f"epsilon_exact={self.epsilon_exact} outside (0, 1]")
        if not self.epsilon_gamma >= self.epsilon_exact - 1e-15:
            raise ValueError(
                f"epsilon_gamma={self.epsilon_gamma} below epsilon_exact={self.epsilon_exact}"
            )


def bound_report(m: int, n: int, lam: float, gamma: float = 0.0) -> BoundReport:
    """Evaluate every bound for one parameter point."""
    return BoundReport(
        m=m,
        n=n,
        lam=lam,
        gamma=gamma,
        epsilon_exact=epsilon_bob(m, lam, n),
        epsilon_gamma=epsilon_bob_gamma(m, lam, n, gamma),
        gamma_threshold=gamma_threshold(m, lam),
    )
