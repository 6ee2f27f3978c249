"""Test-function families, quadrature, Gaussian smoothing."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtr, roots_legendre

import freedyn
from freedyn import functions
from freedyn.functions import (
    TestFunction,
    box_quad,
    bump_shape_integral,
    gauss_smooth,
    gauss_smooth_box_torus,
    integrate_function,
)


def test_box_values_half_open():
    f = TestFunction.box(-0.5, (0.0,), (1.0,))
    vals = f(np.array([[0.0], [0.5], [1.0], [1.5]]))
    assert np.allclose(vals, [-0.5, -0.5, 0.0, 0.0])


def test_box_integral_closed_form():
    f = TestFunction.box(-0.25, (0.0, 1.0), (2.0, 3.0))
    assert f.integral() == pytest.approx(-0.25 * 4.0)


def test_level_constraint():
    # admissible levels are -1 < level <= 0
    with pytest.raises(ValueError):
        TestFunction.box(0.5, (0.0,), (1.0,))
    with pytest.raises(ValueError):
        TestFunction.box(-1.0, (0.0,), (1.0,))
    TestFunction.box(0.0, (0.0,), (1.0,))  # boundary level allowed


def test_bump_peak_and_support():
    f = TestFunction.bump(-0.5, (1.0,), 2.0)
    assert f(np.array([[1.0]]))[0] == pytest.approx(-0.5)
    assert f(np.array([[3.0], [-1.0], [5.0]])) == pytest.approx([0.0, 0.0, 0.0])


def test_bump_integral_frozen():
    f = TestFunction.bump(-0.5, (0.0,), 1.0)
    assert f.integral() == pytest.approx(-0.6034501612189381, abs=1e-12)
    # independent check by vectorized trapezoid on a fine grid
    xs = np.linspace(-1.0, 1.0, 200001)
    grid = np.trapezoid(f(xs[:, None]), xs)
    assert grid == pytest.approx(f.integral(), abs=1e-8)


def test_bump_gradient_matches_finite_difference():
    f = TestFunction.bump(-0.5, (0.0, 0.0), 1.5)
    pts = np.array([[0.3, -0.4], [0.9, 0.2]])
    g = f.gradient(pts)
    h = 1e-6
    for k in range(2):
        shift = np.zeros(2)
        shift[k] = h
        fd = (f(pts + shift) - f(pts - shift)) / (2 * h)
        assert np.allclose(g[:, k], fd, atol=1e-5)


def test_bump_laplacian_matches_finite_difference():
    f = TestFunction.bump(-0.5, (0.0,), 1.5)
    pts = np.array([[0.3], [0.7]])
    h = 1e-4
    fd = (f(pts + h) - 2 * f(pts) + f(pts - h)) / h**2
    assert np.allclose(f.laplacian(pts), fd, atol=1e-4)


def test_product_integral():
    a = TestFunction.box(-0.5, (0.0,), (1.0,))
    b = TestFunction.box(-0.6, (0.5,), (2.0,))
    # overlap [0.5, 1.0), product level 0.3
    assert a.product(b).integral() == pytest.approx(0.15)
    assert integrate_function(a.product(b)) == pytest.approx(0.15)
    # a bump times a box covering its support is a numeric product
    bump = TestFunction.bump(-0.5, (1.2,), 0.5)
    assert integrate_function(bump.product(b)) == pytest.approx(
        -0.6 * bump.integral(), abs=1e-10)


def test_box_quad_matches_quadrature():
    f = TestFunction.bump(-0.5, (0.0,), 1.0)
    val, err = box_quad(lambda pts: f(pts) ** 2, np.array([-1.0]),
                        np.array([1.0]))
    xs = np.linspace(-1.0, 1.0, 100001)
    assert val == pytest.approx(np.trapezoid(f(xs[:, None]) ** 2, xs), abs=1e-7)
    assert 0.0 <= err <= 1e-10


@pytest.mark.parametrize("dim, tol", [(1, 1e-10), (2, 1e-10), (3, 1e-6)])
def test_box_quad_closed_forms_in_any_dimension(dim, tol):
    lo, hi = -np.arange(1.0, dim + 1.0), np.full(dim, 2.0)
    sd = 0.7

    def gauss(pts):
        return np.exp(-np.sum(np.square(pts), axis=1) / (2 * sd * sd)) / \
            (2 * math.pi * sd * sd) ** (dim / 2)

    bump = TestFunction.bump(-0.5, np.full(dim, 0.3), 1.2)
    cases = [
        (lambda pts: np.ones(len(pts)), lo, hi, float(np.prod(hi - lo))),
        (gauss, lo, hi, float(np.prod(ndtr(hi / sd) - ndtr(lo / sd)))),
        (bump, bump.support_lo, bump.support_hi, bump.integral()),
    ]
    for func, a, b, exact in cases:
        val, err = box_quad(func, a, b, tol)
        assert abs(val - exact) <= tol * (1.0 + abs(exact))
        assert abs(val - exact) <= err + 1e-14


def test_box_quad_array_output_matches_columns():
    centers = np.array([[-0.5, 0.0], [0.2, 0.3], [1.0, -0.4]])
    lo, hi = np.array([-1.0, -1.0]), np.array([1.5, 1.0])

    def column(c):
        return lambda pts: np.exp(-np.sum(np.square(pts - c), axis=1))

    def stacked(pts):
        return np.column_stack([column(c)(pts) for c in centers])

    vals, errs = box_quad(stacked, lo, hi, 1e-10)
    assert vals.shape == errs.shape == (len(centers),)
    for c, val in zip(centers, vals):
        assert val == pytest.approx(box_quad(column(c), lo, hi, 1e-10)[0],
                                    abs=1e-10)


def test_box_quad_raises_when_tolerance_not_reached():
    # 1/x is not integrable at 0: the estimate overflows on refinement
    with np.errstate(divide="ignore", over="ignore"):
        with pytest.raises(RuntimeError, match="did not reach tolerance"):
            box_quad(lambda pts: 1.0 / pts[:, 0], 0.0, 1.0)
    with pytest.raises(RuntimeError, match="did not reach tolerance"):
        box_quad(lambda pts: np.full(len(pts), np.nan), 0.0, 1.0)


def cubature_box_quad(func, lo, hi, tol=1e-10):
    """The engine box_quad replaced: scipy's adaptive product GK21."""
    res = integrate.cubature(func, np.atleast_1d(np.asarray(lo, float)),
                             np.atleast_1d(np.asarray(hi, float)),
                             rtol=tol, atol=tol)
    assert res.status == "converged"
    return res.estimate, res.error


def _gauss_nd(pts):
    return np.exp(-np.sum(np.square(pts - 0.2), axis=1) / 0.7)


def _bump_nd(pts):
    dim = pts.shape[1]
    return TestFunction.bump(-0.5, np.full(dim, 0.3), 1.2)(pts)


def _array_valued(pts):
    # (n, 2, 3): six integrands sharing the nodes
    k = np.arange(1.0, 7.0).reshape(2, 3)
    return np.cos(k * pts[:, 0, None, None]) * np.exp(-pts[:, -1, None, None])


@pytest.mark.parametrize("func, lo, hi, tol", [
    (_gauss_nd, [-1.0], [2.0], 1e-10),
    (_bump_nd, [-0.9], [1.5], 1e-12),
    (lambda pts: np.sqrt(np.abs(pts[:, 0] - 0.3)), [0.0], [1.0], 1e-10),
    (_gauss_nd, [-1.0, -2.0], [2.0, 1.0], 1e-10),
    (_bump_nd, [-0.9, -0.9], [1.5, 1.5], 1e-10),
    (_gauss_nd, [-1.0, 0.0, -0.5], [1.0, 1.0, 0.5], 1e-8),
    (_bump_nd, [-0.9, -0.9, -0.9], [1.5, 1.5, 1.5], 1e-5),
    (_array_valued, [0.0], [3.0], 1e-10),
    (_array_valued, [0.0, 0.0], [3.0, 1.0], 1e-10),
])
def test_box_quad_matches_scipy_cubature(func, lo, hi, tol):
    val, err = box_quad(func, lo, hi, tol)
    ref, _ = cubature_box_quad(func, lo, hi, tol)
    assert np.shape(val) == np.shape(err) == np.shape(ref)
    assert np.all(np.abs(val - ref) <= tol * (1.0 + np.abs(ref)))
    assert np.all(np.asarray(err) <= tol * (1.0 + np.abs(val)))


@pytest.mark.parametrize("dim", [1, 2])
def test_gauss_smooth_bump_matches_scipy_cubature(dim, monkeypatch):
    # the array-valued bump integrand of gauss_smooth, through both engines
    f = TestFunction.bump(-0.7, np.full(dim, 0.4), 1.3)
    pts = np.random.default_rng(5).uniform(-2.0, 3.0, size=(9, dim))
    var, weights = np.array([0.1, 0.3, 0.9]), np.array([0.2, 0.5, 0.3])
    ours = gauss_smooth(f, var, pts, weights)
    monkeypatch.setattr(functions, "box_quad", cubature_box_quad)
    ref = gauss_smooth(f, var, pts, weights)
    assert np.all(np.abs(ours - ref) <= 1e-11 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bump_shape_integral_matches_scipy_cubature(dim, monkeypatch):
    ours = bump_shape_integral(dim)
    monkeypatch.setattr(functions, "box_quad", cubature_box_quad)
    assert ours == pytest.approx(bump_shape_integral(dim), rel=2e-13)


def test_box_quad_subdivision_cap():
    # noise never settles: the cap of 10 000 splits stops the refinement
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="after 10000 subdivisions"):
        box_quad(lambda pts: rng.random(len(pts)), 0.0, 1.0)


@pytest.mark.parametrize("lo, hi", [
    (1.0, 0.0),
    ([0.0, 1.0], [1.0, 0.5]),
    (np.nan, 1.0),
    (0.0, np.inf),
    (-np.inf, 0.0),
    ([0.0, 0.0], [1.0]),
])
def test_box_quad_refuses_bad_limits(lo, hi):
    with pytest.raises(ValueError, match="finite limits with lo <= hi"):
        box_quad(lambda pts: np.ones(len(pts)), lo, hi)


def test_box_quad_zero_width_box_is_zero():
    assert box_quad(lambda pts: np.ones(len(pts)), [0.0, 1.0],
                    [2.0, 1.0]) == (0.0, 0.0)


def test_gk21_rule_constants():
    # the Gauss nodes are the odd-indexed Kronrod nodes; both rules
    # integrate polynomials of their degree (19 and 31) exactly
    x, w = roots_legendre(10)
    assert np.allclose(functions.GK21_NODES[1::2][::-1], x, rtol=0,
                       atol=2e-16)
    assert np.allclose(functions.G10_WEIGHTS, w, rtol=0, atol=2e-15)
    for deg in range(32):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        nodes = functions.GK21_NODES
        assert functions.GK21_WEIGHTS @ nodes ** deg == pytest.approx(
            exact, abs=1e-15)
        if deg < 20:
            assert functions.G10_WEIGHTS @ nodes[1::2] ** deg == \
                pytest.approx(exact, abs=1e-15)


def test_only_functions_imports_scipy_integrate():
    # the quadrature decision lives in one module
    package = Path(freedyn.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "functions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "") + "." + a.name for a in node.names]
                names.append(node.module or "")
            else:
                continue
            if any(n == "scipy.integrate" or n.startswith("scipy.integrate.")
                   for n in names):
                offenders.append(path.name)
    assert offenders == []


def test_integrate_function_agrees_with_integral():
    for f in (
        TestFunction.box(-0.3, (0.0, 0.0), (1.0, 2.0)),
        TestFunction.bump(-0.9, (0.5,), 0.7),
    ):
        assert integrate_function(f) == pytest.approx(f.integral(), abs=1e-9)


def test_gauss_smooth_box_closed_form():
    f = TestFunction.box(-0.5, (0.0,), (2.0,))
    pts = np.array([[0.0], [1.0], [2.5]])
    var = 0.49
    sm = gauss_smooth(f, var, pts)
    s = np.sqrt(var)
    expected = -0.5 * (ndtr((2.0 - pts[:, 0]) / s) - ndtr((0.0 - pts[:, 0]) / s))
    assert np.allclose(sm, expected, atol=1e-12)


def test_gauss_smooth_bump_against_numeric_convolution():
    f = TestFunction.bump(-0.5, (0.0,), 1.0)
    var = 0.25
    pts = np.array([[0.0], [0.8], [1.6]])
    sm = gauss_smooth(f, var, pts)
    ys = np.linspace(-1.0, 1.0, 20001)
    fy = f(ys[:, None])
    for row, x in zip(sm, pts[:, 0]):
        kern = np.exp(-((x - ys) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert row == pytest.approx(np.trapezoid(fy * kern, ys), abs=1e-6)


def test_gauss_smooth_bump_matches_pointwise_quad():
    # one array-valued quadrature against a per-point scalar reference
    f = TestFunction.bump(-0.7, (0.4,), 1.3)
    var = 0.3
    pts = np.linspace(-2.5, 3.5, 49)[:, None]
    sm = gauss_smooth(f, var, pts)
    norm = 1.0 / math.sqrt(2 * math.pi * var)
    for row, x in zip(sm, pts[:, 0]):
        ref, _ = integrate.quad(
            lambda y: float(f(np.array([[y]]))[0])
            * norm * math.exp(-(x - y) ** 2 / (2 * var)),
            f.support_lo[0], f.support_hi[0], epsabs=1e-13, epsrel=1e-13,
            limit=200)
        assert row == pytest.approx(ref, abs=1e-10)


def test_gauss_smooth_torus_image_sum():
    side = 5.0
    f = TestFunction.box(-0.5, (1.0,), (2.0,))
    pts = np.array([[0.2], [4.9]])
    var = 1.0
    sm = gauss_smooth_box_torus(f, var, pts, side)
    s = np.sqrt(var)
    # direct image sum over many copies of the box
    expected = np.zeros(2)
    for k in range(-40, 41):
        lo, hi = 1.0 + k * side, 2.0 + k * side
        expected += -0.5 * (ndtr((hi - pts[:, 0]) / s) - ndtr((lo - pts[:, 0]) / s))
    assert np.allclose(sm, expected, atol=1e-12)
    # smoothing conserves mass on the torus: integral over the cell
    xs = np.linspace(0.0, side, 40001)
    total = np.trapezoid(gauss_smooth_box_torus(f, var, xs[:, None], side), xs)
    assert total == pytest.approx(f.integral(), abs=1e-8)


def test_ndtr_matches_scipy():
    # both branches, |x| < 1 through erf and the rest through erfc
    x = np.linspace(-8.0, 8.0, 160001)
    got = functions.ndtr(x)
    assert np.max(np.abs(got / ndtr(x) - 1.0)) <= 1e-14
    grid = x[:-1].reshape(400, 400)
    assert np.array_equal(functions.ndtr(grid), got[:-1].reshape(400, 400))
    edges = functions.ndtr(np.array([-np.inf, -40.0, 0.0, np.inf, np.nan]))
    assert np.array_equal(edges[:4], [0.0, ndtr(-40.0), 0.5, 1.0])
    assert np.isnan(edges[4])


def test_ndtr_as_accurate_as_scipy():
    # against 40 digits, over the range where the cdf is a normal double;
    # the lower tail's error grows like x**2 from the rounding of
    # x / sqrt(2), in both
    mpmath = pytest.importorskip("mpmath")
    x = np.linspace(-37.5, 8.5, 2301)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.ncdf(v)) for v in x])

    def worst_ulps(y):
        return float(np.max(np.abs(y - ref) / np.spacing(ref)))

    assert worst_ulps(functions.ndtr(x)) <= worst_ulps(ndtr(x))


@given(
    level=st.floats(min_value=-0.99, max_value=0.0),
    lo=st.floats(min_value=-5.0, max_value=4.0),
    width=st.floats(min_value=0.01, max_value=3.0),
)
@settings(max_examples=100, deadline=None)
def test_box_integral_property(level, lo, width):
    f = TestFunction.box(level, (lo,), (lo + width,))
    assert f.integral() == pytest.approx(level * width, rel=1e-12, abs=1e-12)


@given(
    level=st.floats(min_value=-0.9, max_value=-0.01),
    radius=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=50, deadline=None)
def test_bump_class_d_property(level, radius):
    f = TestFunction.bump(level, (0.0,), radius)
    xs = np.linspace(-radius, radius, 501)[:, None]
    vals = f(xs)
    assert np.all(vals <= 0.0) and np.all(vals > -1.0)
    assert abs(f.integral()) <= abs(level) * 2 * radius


@st.composite
def _function_and_points_outside(draw):
    """A box or bump in dim 1-3 and points off its closed support box: one
    coordinate of each lies below support_lo or above support_hi, by up to
    100 or by a single ulp."""
    dim = draw(st.integers(1, 3))

    def vec(elements):
        return st.lists(elements, min_size=dim, max_size=dim).map(np.array)

    level = draw(st.floats(-1.0, 0.0, exclude_min=True))
    if draw(st.booleans()):
        lo = draw(vec(st.floats(-50.0, 50.0)))
        phi = TestFunction.box(level, lo,
                               lo + draw(vec(st.floats(1e-6, 20.0))))
    else:
        phi = TestFunction.bump(level, draw(vec(st.floats(-50.0, 50.0))),
                                draw(st.floats(1e-6, 20.0)))
    lo, hi = phi.support_lo, phi.support_hi
    pts = []
    for _ in range(draw(st.integers(1, 8))):
        x = lo + draw(vec(st.floats(0.0, 1.0))) * (hi - lo)
        axis = draw(st.integers(0, dim - 1))
        gap = draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
        if draw(st.booleans()):
            x[axis] = np.nextafter(lo[axis] - gap, -np.inf)
        else:
            x[axis] = np.nextafter(hi[axis] + gap, np.inf)
        pts.append(x)
    return phi, np.array(pts)


@given(case=_function_and_points_outside())
@settings(max_examples=300, deadline=None)
def test_test_functions_vanish_off_their_support_box(case):
    # the scaling experiment evaluates each observable only inside its
    # closed support box: it must be exactly 0 everywhere else
    phi, pts = case
    off = (pts < phi.support_lo) | (pts > phi.support_hi)
    assert np.all(np.any(off, axis=1))
    assert np.all(phi(pts) == 0.0)
