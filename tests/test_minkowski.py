import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import boost_event, classify, random_velocity
from scotsim.errors import LayoutError
from scotsim.minkowski import (
    Event,
    Layout,
    Region,
    ValidatedLayout,
    box_region,
    causally_precedes,
    check_layout,
    in_region_g,
    interval_squared,
    layout_from_json,
    layout_to_json,
    spacelike_separated,
    validate_layout,
)

coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def events(dim):
    return st.builds(
        lambda t, xs: Event(t, tuple(xs)),
        coord,
        st.lists(coord, min_size=dim, max_size=dim),
    )


class TestEvent:
    def test_scalar_position_becomes_1d(self):
        e = Event(1.5, 2.0)
        assert e.x == (2.0,)
        assert e.dim == 1

    def test_dim_range(self):
        assert Event(0.0, (1.0, 2.0, 3.0)).dim == 3
        with pytest.raises(ValueError):
            Event(0.0, ())
        with pytest.raises(ValueError):
            Event(0.0, (1.0, 2.0, 3.0, 4.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Event(math.nan, 0.0)
        with pytest.raises(ValueError):
            Event(0.0, (math.inf,))

    def test_spatial_distance(self):
        a = Event(0.0, (0.0, 0.0))
        b = Event(5.0, (3.0, 4.0))
        assert a.spatial_distance(b) == pytest.approx(5.0)

    def test_mixed_dims_rejected(self):
        a, b = Event(0.0, 0.0), Event(1.0, (0.0, 0.0))
        for check in (causally_precedes, spacelike_separated, Event.spatial_distance):
            with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
                check(a, b)


class TestPredicates:
    def test_reflexive(self):
        e = Event(3.0, (1.0, -2.0))
        assert causally_precedes(e, e)
        assert not spacelike_separated(e, e)

    def test_lightlike_boundary_counts_as_causal(self):
        a, b = Event(0.0, 0.0), Event(1.0, 1.0)
        assert causally_precedes(a, b)
        assert not causally_precedes(b, a)
        assert not spacelike_separated(a, b)

    def test_timelike_and_spacelike(self):
        a = Event(0.0, 0.0)
        assert causally_precedes(a, Event(2.0, 1.0))
        assert spacelike_separated(a, Event(1.0, 2.0))
        assert spacelike_separated(a, Event(-1.0, 2.0))

    def test_eps_widens_cone(self):
        a, b = Event(0.0, 0.0), Event(1.0, 1.5)
        assert not causally_precedes(a, b)
        assert causally_precedes(a, b, eps=0.6)
        # for spacelike, eps demands a margin instead
        assert spacelike_separated(a, b)
        assert not spacelike_separated(a, b, eps=0.6)

    def test_interval_sign_convention(self):
        a = Event(0.0, 0.0)
        assert interval_squared(a, Event(2.0, 1.0)) > 0  # timelike
        assert interval_squared(a, Event(1.0, 2.0)) < 0  # spacelike
        assert interval_squared(a, Event(1.0, 1.0)) == pytest.approx(0.0)

    def test_interval_is_symmetric(self):
        a, b = Event(0.3, (1.0, 2.0)), Event(-1.0, (0.5, 4.0))
        assert interval_squared(a, b) == pytest.approx(interval_squared(b, a))

    @given(events(2), events(2))
    def test_antisymmetry(self, a, b):
        if causally_precedes(a, b) and causally_precedes(b, a):
            assert a.t == b.t and a.x == b.x

    @given(events(1), events(1), events(1))
    def test_transitivity_1d(self, a, b, c):
        if causally_precedes(a, b) and causally_precedes(b, c):
            # exact in reals by the triangle inequality; float slack only
            assert causally_precedes(a, c, eps=1e-9)

    @given(events(3), events(3))
    def test_trichotomy(self, a, b):
        kinds = [
            causally_precedes(a, b) and not causally_precedes(b, a),
            causally_precedes(b, a) and not causally_precedes(a, b),
            causally_precedes(a, b) and causally_precedes(b, a),
            spacelike_separated(a, b),
        ]
        assert sum(kinds) == 1

    def test_bulk_trichotomy_and_transitivity(self):
        # the same invariants at volume, with a fixed seed
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3):
            pts = [
                Event(t, tuple(x))
                for t, x in zip(
                    rng.uniform(-10, 10, 3000), rng.uniform(-10, 10, (3000, dim))
                )
            ]
            for a, b, c in zip(pts[0::3], pts[1::3], pts[2::3]):
                assert (
                    sum(
                        (
                            causally_precedes(a, b),
                            causally_precedes(b, a),
                            spacelike_separated(a, b),
                        )
                    )
                    == 1
                )
                if causally_precedes(a, b) and causally_precedes(b, c):
                    assert causally_precedes(a, c, eps=1e-9)


class TestBoostInvariance:
    def test_classification_survives_boosts(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            dim = int(rng.integers(1, 4))
            a = Event(rng.uniform(-5, 5), tuple(rng.uniform(-5, 5, dim)))
            b = Event(rng.uniform(-5, 5), tuple(rng.uniform(-5, 5, dim)))
            # stay clear of the cone so rounding cannot flip the class
            if abs(abs(b.t - a.t) - a.spatial_distance(b)) < 1e-6:
                continue
            kind = classify(a, b)
            v = random_velocity(rng, dim)
            assert classify(boost_event(a, v), boost_event(b, v)) == kind
            checked += 1

    def test_interval_is_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            a = Event(rng.uniform(-5, 5), tuple(rng.uniform(-5, 5, dim)))
            b = Event(rng.uniform(-5, 5), tuple(rng.uniform(-5, 5, dim)))
            v = random_velocity(rng, dim)
            before = interval_squared(a, b)
            after = interval_squared(boost_event(a, v), boost_event(b, v))
            assert after == pytest.approx(before, abs=1e-8)


class TestRegionG:
    def test_membership(self):
        qs = (Event(10.0, 0.0), Event(10.0, 5.0))
        assert in_region_g(Event(0.0, 2.0), qs)
        assert not in_region_g(Event(9.9, 0.0), qs)  # cannot reach the far point
        assert not in_region_g(Event(11.0, 0.0), qs)

    def test_empty_q_points_rejected(self):
        with pytest.raises(ValueError):
            in_region_g(Event(0.0, 0.0), ())


class TestRegions:
    def test_box_corners(self):
        r = box_region(Event(0.0, (0.0, 0.0)), Event(1.0, (2.0, 3.0)))
        assert len(r.events) == 8
        assert r.bounds() == ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))

    def test_degenerate_box_dedupes(self):
        r = box_region(Event(0.0, 1.0), Event(0.0, 2.0))
        assert len(r.events) == 2

    def test_interior_events_recorded(self):
        q = Event(0.5, 0.5)
        r = box_region(Event(0.0, 0.0), Event(1.0, 1.0), interior=(q,))
        assert q in r.events
        with pytest.raises(ValueError):
            box_region(Event(0.0, 0.0), Event(1.0, 1.0), interior=(Event(2.0, 0.0),))

    def test_contains_with_eps(self):
        r = box_region(Event(0.0, 0.0), Event(1.0, 1.0))
        assert r.contains(Event(0.5, 0.5))
        assert not r.contains(Event(1.1, 0.5))
        assert r.contains(Event(1.1, 0.5), eps=0.2)

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            box_region(Event(1.0, 0.0), Event(0.0, 0.0))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            Region(())


def _distant_boxes():
    r0 = box_region(Event(-1.0, -1.0), Event(1.0, 1.0), interior=(Event(0.0, 0.0),))
    r1 = box_region(Event(-1.0, 99.0), Event(1.0, 101.0), interior=(Event(0.0, 100.0),))
    return r0, r1


def _good_layout():
    r0, r1 = _distant_boxes()
    qs = (Event(0.0, 0.0), Event(0.0, 100.0))
    lines = {
        "A": (Event(-60.0, 50.0), Event(-10.0, 50.0)),
        "B0": (Event(-60.0, 0.0), Event(0.0, 0.0)),
    }
    return Layout((r0, r1), qs, lines)


class TestLayoutChecks:
    def test_good_layout_validates(self):
        v = validate_layout(_good_layout())
        assert isinstance(v, ValidatedLayout)
        assert v.m == 2
        assert check_layout(_good_layout()) == []

    def test_too_few_regions(self):
        r0, _ = _distant_boxes()
        bad = Layout((r0,), (Event(0.0, 0.0),), {"A": (Event(0.0, 0.0),)})
        kinds = {v["kind"] for v in check_layout(bad)}
        assert "too_few_regions" in kinds

    def test_q_point_count_mismatch(self):
        r0, r1 = _distant_boxes()
        bad = Layout((r0, r1), (Event(0.0, 0.0),), {"A": (Event(0.0, 0.0),)})
        kinds = {v["kind"] for v in check_layout(bad)}
        assert "q_point_count" in kinds

    def test_regions_not_spacelike(self):
        r0 = box_region(Event(-1.0, -1.0), Event(1.0, 1.0))
        r1 = box_region(Event(4.0, -1.0), Event(6.0, 1.0))  # timelike future of r0
        bad = Layout(
            (r0, r1),
            (Event(0.0, 0.0), Event(5.0, 0.0)),
            {"A": (Event(0.0, 0.0),)},
        )
        kinds = {v["kind"] for v in check_layout(bad)}
        assert "regions_not_spacelike" in kinds

    def test_q_point_outside_region(self):
        r0, r1 = _distant_boxes()
        bad = Layout(
            (r0, r1),
            (Event(0.0, 0.0), Event(0.0, 55.0)),
            {"A": (Event(0.0, 0.0),)},
        )
        kinds = {v["kind"] for v in check_layout(bad)}
        assert "q_point_outside_region" in kinds

    def test_worldline_must_be_causal_and_forward(self):
        r0, r1 = _distant_boxes()
        qs = (Event(0.0, 0.0), Event(0.0, 100.0))
        going_back = Layout((r0, r1), qs, {"A": (Event(1.0, 0.0), Event(0.0, 0.0))})
        too_fast = Layout((r0, r1), qs, {"A": (Event(0.0, 0.0), Event(1.0, 50.0))})
        for bad in (going_back, too_fast):
            kinds = {v["kind"] for v in check_layout(bad)}
            assert "worldline_not_causal" in kinds

    def test_empty_worldline(self):
        r0, r1 = _distant_boxes()
        qs = (Event(0.0, 0.0), Event(0.0, 100.0))
        bad = Layout((r0, r1), qs, {"A": ()})
        kinds = {v["kind"] for v in check_layout(bad)}
        assert "empty_worldline" in kinds

    def test_dim_mismatch(self):
        r0, r1 = _distant_boxes()
        bad = Layout(
            (r0, r1),
            (Event(0.0, (0.0, 0.0)), Event(0.0, (100.0, 0.0))),
            {"A": (Event(0.0, 0.0),)},
        )
        kinds = {v["kind"] for v in check_layout(bad)}
        assert "dim_mismatch" in kinds

    def test_validate_raises_with_kinds_in_message(self):
        r0, _ = _distant_boxes()
        bad = Layout((r0,), (Event(0.0, 0.0),), {"A": (Event(0.0, 0.0),)})
        with pytest.raises(LayoutError) as err:
            validate_layout(bad)
        assert "too_few_regions" in str(err.value)
        assert err.value.violations


class TestLayoutJson:
    def test_round_trip(self):
        lay = _good_layout()
        doc = layout_to_json(lay)
        back = layout_from_json(doc)
        assert back.m == lay.m
        assert back.q_points == lay.q_points
        assert back.agents == lay.agents
        for name in lay.agents:
            assert back.worldline(name) == lay.worldline(name)
        for r_in, r_out in zip(lay.regions, back.regions):
            assert set(r_in.events) == set(r_out.events)

    def test_declared_dim_checked(self):
        doc = layout_to_json(_good_layout())
        doc["dim"] = 2
        with pytest.raises(ValueError):
            layout_from_json(doc)
