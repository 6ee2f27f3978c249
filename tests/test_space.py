"""Domain geometry and growth-constant tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freedyn.functions import TestFunction
from freedyn.space import Domain, ball_volume, in_box


def test_fullspace_distance_is_euclidean():
    d = Domain.fullspace((-10.0, -10.0), (10.0, 10.0))
    assert d.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_torus_distance_wraps():
    d = Domain.torus(1, 10.0)
    assert d.distance(np.array([0.5]), np.array([9.5])) == pytest.approx(1.0)
    # no shortcut through the seam when points are close
    assert d.distance(np.array([4.0]), np.array([6.0])) == pytest.approx(2.0)


def test_torus_wrap_into_cell():
    d = Domain.torus(1, 10.0)
    out = d.wrap(np.array([10.2, -0.3, 5.0]))
    assert np.allclose(out, [0.2, 9.7, 5.0])


@st.composite
def _box_and_points(draw):
    """A box in 1-3 dimensions and points on its faces, inside, outside,
    NaN and +-inf, coordinate by coordinate."""
    dim = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=dim,
                                max_size=dim)))
    hi = lo + np.array(draw(st.lists(st.floats(1e-3, 5.0), min_size=dim,
                                     max_size=dim)))
    coords = [st.sampled_from([lo[c], hi[c], np.nan, np.inf, -np.inf,
                               np.nextafter(lo[c], -np.inf),
                               np.nextafter(hi[c], np.inf)])
              | st.floats(-12.0, 12.0) for c in range(dim)]
    rows = draw(st.lists(st.tuples(*coords), min_size=0, max_size=12))
    return lo, hi, np.array(rows, dtype=float).reshape(-1, dim)


@given(case=_box_and_points())
@settings(max_examples=300, deadline=None)
def test_in_box_matches_the_axis_reduce(case):
    lo, hi, pts = case
    with np.errstate(invalid="ignore"):
        half_open = np.all((pts >= lo) & (pts < hi), axis=1)
        closed = np.all((pts >= lo) & (pts <= hi), axis=1)
        assert np.array_equal(in_box(pts, lo, hi), half_open)
        assert np.array_equal(in_box(pts, lo, hi, closed=True), closed)
        # a caller: a box test function
        box = TestFunction.box(-0.5, lo, hi)
        assert np.array_equal(box(pts), np.where(half_open, -0.5, 0.0))


def test_in_box_refuses_a_dimension_mismatch():
    with pytest.raises(ValueError):
        in_box(np.zeros((3, 2)), np.zeros(3), np.ones(3))


def test_window_volume():
    assert Domain.torus(2, 4.0).window_volume == pytest.approx(16.0)
    assert Domain.fullspace((-1.0, 0.0), (1.0, 3.0)).window_volume == pytest.approx(6.0)


def test_dict_roundtrip():
    for d in (Domain.torus(2, 7.5), Domain.fullspace((-2.0,), (3.0,))):
        d2 = Domain.from_dict(d.to_dict())
        assert d2 == d


def test_ball_volume_low_dims():
    assert ball_volume(1, 2.0) == pytest.approx(4.0)
    assert ball_volume(2, 1.0) == pytest.approx(math.pi)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0)


def test_ball_volume_doubles_with_exponent_dim_and_constant_one():
    # vol(B(beta r)) = beta**dim * vol(B(r)): exponent dim, constant 1
    for beta in (2.0, 3.5):
        assert ball_volume(1, beta * 1.5) == pytest.approx(beta * ball_volume(1, 1.5))


def test_torus_min_image_reaches_half_the_side():
    # on a torus the Euclidean balls are faithful up to radius side / 2:
    # no min-image coordinate displacement exceeds it
    domain = Domain.torus(2, 10.0)
    pts = np.random.default_rng(0).random((500, 2)) * 10.0
    delta = domain.displacement(pts, np.zeros(2))
    assert np.max(np.abs(delta)) <= 5.0
    assert ball_volume(2, 2.0 * 5.0) == pytest.approx(4.0 * ball_volume(2, 5.0))


@given(
    side=st.floats(min_value=0.5, max_value=50.0),
    x=st.floats(min_value=-100.0, max_value=100.0),
    y=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_torus_distance_properties(side, x, y):
    d = Domain.torus(1, side)
    a = d.wrap(np.array([x]))
    b = d.wrap(np.array([y]))
    dist = d.distance(a, b)
    assert 0.0 <= dist <= side / 2.0 + 1e-9
    assert dist == pytest.approx(d.distance(b, a))
    # invariance under translation around the circle
    shift = side / 3.0
    assert d.distance(d.wrap(a + shift), d.wrap(b + shift)) == pytest.approx(dist, abs=1e-9)


@given(x=st.floats(min_value=-1e4, max_value=1e4), side=st.floats(min_value=0.1, max_value=99.0))
@settings(max_examples=200, deadline=None)
def test_wrap_idempotent(x, side):
    d = Domain.torus(1, side)
    once = d.wrap(np.array([x]))
    assert 0.0 <= once[0] < side
    assert np.allclose(d.wrap(once), once)
