"""Shared fixtures.

Heavy objects (families, configs, layouts) are function-independent and
cheap to build, so most fixtures are plain session-scoped constructors.
Anything expensive enough to matter lives next to the tests that need it.
"""

import math

import numpy as np
import pytest

from scotsim import dqacm, protocol, quantum
from scotsim.minkowski import Event, Layout, box_region, validate_layout


@pytest.fixture(scope="session")
def bb84():
    return quantum.bb84_family()


@pytest.fixture(scope="session")
def equal3():
    return quantum.equal_spaced_family(3)


@pytest.fixture(scope="session")
def layout2():
    return protocol.standard_layout(2)


@pytest.fixture(scope="session")
def layout3():
    return protocol.standard_layout(3)


@pytest.fixture(scope="session")
def edge_layout():
    """A 2-D, m=2 layout whose central agents sit on the light-cone edge.

    A and B rest at the origin and the handover points are Q_i = (T, x_i)
    with T one ulp below |x_0| as ``math.dist`` (and so the causal
    predicates) rounds it; ``np.linalg.norm(x_0)`` rounds to T itself.
    So the origin at t=0 is just outside the common past G, and no
    vertex of A (ticks 0..25) is in it.  The local agents also tick at T
    to reach their Q points.
    """
    x0 = np.array([14.296, -18.657])
    xs = (x0, -x0)
    t_q = math.nextafter(math.dist((0.0, 0.0), x0), 0.0)
    q_points = [Event(t_q, x) for x in xs]
    regions = [
        box_region(Event(t_q - 1, x - 1), Event(t_q + 1, x + 1), interior=(q,))
        for x, q in zip(xs, q_points)
    ]
    ticks = [float(t) for t in range(26)]
    local = sorted(ticks + [t_q])
    worldlines = {agent: [Event(t, (0.0, 0.0)) for t in ticks] for agent in ("A", "B")}
    for i, x in enumerate(xs):
        worldlines[f"A{i}"] = worldlines[f"B{i}"] = [Event(t, x) for t in local]
    return validate_layout(Layout(regions, q_points, worldlines))


@pytest.fixture(scope="session")
def cfg21(bb84):
    return dqacm.DqacmConfig(m=2, n=1, family=bb84)


@pytest.fixture(scope="session")
def cfg32(equal3):
    return dqacm.DqacmConfig(m=3, n=2, family=equal3)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
