import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prionpde.errors import BadBounds, NonFiniteSample, TooFewCells
from prionpde.grid import GridFunction, build_grid, moment, project


def test_geometric_edges_constant_ratio():
    g = build_grid(1.0, 200.0, 400, "geometric")
    r = g.edges[1:] / g.edges[:-1]
    assert np.allclose(r, r[0], rtol=1e-12)
    assert g.edges[0] == 1.0 and g.edges[-1] == 200.0
    assert np.all(np.diff(g.edges) > 0)


def test_uniform_widths_equal():
    g = build_grid(1.0, 129.0, 64, "uniform")
    assert np.allclose(g.widths, 2.0, rtol=1e-13)
    assert np.allclose(g.centers, 2.0 + 2.0 * np.arange(64), rtol=1e-13)


def test_bad_bounds_rejected():
    with pytest.raises(BadBounds):
        build_grid(0.0, 10.0, 8)
    with pytest.raises(BadBounds):
        build_grid(5.0, 5.0, 8)
    with pytest.raises(BadBounds):
        build_grid(1.0, np.inf, 8)
    with pytest.raises(TooFewCells):
        build_grid(1.0, 10.0, 3)


def test_moment_of_ones():
    # order 0: exact area.  order 1: midpoint rule integrates y exactly,
    # so the discrete first moment of u=1 is (ymax^2 - y0^2)/2 to roundoff.
    g = build_grid(1.0, 200.0, 173, "geometric")
    u = np.ones(g.n)
    assert moment(g, u, 0) == pytest.approx(199.0, rel=1e-13)
    assert moment(g, u, 1) == pytest.approx((200.0**2 - 1.0) / 2.0, rel=1e-13)


def test_project_cellmean_exact_for_quadratic():
    g = build_grid(2.0, 37.0, 29, "geometric")
    u = project(lambda y: y**2, g, rule="cellmean")
    exact = (g.edges[1:] ** 3 - g.edges[:-1] ** 3) / (3.0 * g.widths)
    assert np.allclose(u.values, exact, rtol=1e-13)


def test_project_midpoint_samples_centers():
    g = build_grid(1.0, 10.0, 16, "uniform")
    u = project(np.exp, g, rule="midpoint")
    assert np.allclose(u.values, np.exp(g.centers), rtol=1e-15)
    v = project(np.exp, g, rule="cellmean")
    assert not np.allclose(u.values, v.values, rtol=1e-10)


def test_project_rejects_nonfinite():
    g = build_grid(1.0, 10.0, 8, "uniform")
    with pytest.raises(NonFiniteSample):
        project(lambda y: np.where(y > 5.0, np.nan, 1.0), g)


def test_grid_function_arithmetic():
    g = build_grid(1.0, 5.0, 4, "uniform")
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(5))


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
    order=st.integers(0, 3),
)
def test_moment_linearity(a, b, seed, order):
    g = build_grid(1.0, 50.0, 32, "geometric")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(g.n)
    v = rng.standard_normal(g.n)
    lhs = moment(g, a * u + b * v, order)
    rhs = a * moment(g, u, order) + b * moment(g, v, order)
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))
