"""The projected first-order workhorse and the exact box-quadratic oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detector_forge.optimize import maximize_box_quadratic, minimize_projected


def test_huge_gradient_takes_a_step_without_overflow():
    # the squared norm of a 1e200 gradient overflows; the step size must not
    def fun(x):
        return 1e200 * float(x[0]), np.array([1e200])

    start = fun(np.array([0.5]))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = minimize_projected(fun, np.array([0.5]),
                                 lambda x: np.clip(x, 0.0, 1.0))
    assert res.value <= start


@pytest.mark.parametrize("box", [True, False])
def test_smooth_quadratic_stops_soon_after_it_settles(box):
    # the descent stops a few steps after its decrease settles, at the
    # minimizer: (1, -1) on the box [-1, 1]^2, c over the whole space
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([3.0, -2.0])

    def fun(x):
        return 0.5 * (x - c) @ A @ (x - c), A @ (x - c)

    def project(x):
        return np.clip(x, -1.0, 1.0) if box else np.asarray(x, dtype=float)

    x_star = np.array([1.0, -1.0]) if box else c
    res = minimize_projected(fun, np.zeros(2), project)
    assert res.converged
    assert res.iterations <= 20
    assert np.linalg.norm(res.x - x_star) <= 1e-5


def _curvature(kind, n, rng):
    B = rng.standard_normal((n, n))
    if kind == "convex":
        return B @ B.T
    if kind == "concave":
        return -B @ B.T
    # indefinite: eigenvalues of both signs once n >= 2
    V, _ = np.linalg.qr(B)
    w = rng.uniform(0.2, 3.0, n) * np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    return (V * w) @ V.T


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3),
       kind=st.sampled_from(["convex", "concave", "indefinite"]),
       seed=st.integers(0, 2**32 - 1))
def test_box_quadratic_maximum_is_attained_and_dominates(n, kind, seed):
    rng = np.random.default_rng(seed)
    T = _curvature(kind, n, rng)
    g = 2.0 * rng.standard_normal(n)
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.1, 3.0, n)

    def q(X):
        return 0.5 * np.einsum("...i,ij,...j->...", X, T, X) + X @ g

    x, value = maximize_box_quadratic(T, g, lo, hi)
    assert np.all(x >= lo) and np.all(x <= hi)
    assert abs(value - q(x)) <= 1e-12 * max(1.0, abs(value))
    corners = np.where(np.indices((2,) * n).reshape(n, -1).T == 1, hi, lo)
    inside = lo + (hi - lo) * rng.uniform(size=(400, n))
    assert value >= q(np.vstack([corners, inside])).max() - 1e-12


def test_box_quadratic_declines_past_the_candidate_cap():
    # 2^17 corners, and 3^11 candidates of a concave quadratic, exceed 2^16
    assert maximize_box_quadratic(np.eye(17), np.ones(17), -np.ones(17),
                                  np.ones(17)) is None
    assert maximize_box_quadratic(-np.eye(11), np.ones(11), -np.ones(11),
                                  np.ones(11)) is None
    x, value = maximize_box_quadratic(-np.eye(2), np.array([0.5, 3.0]),
                                      -np.ones(2), np.ones(2))
    assert np.allclose(x, [0.5, 1.0], rtol=0.0, atol=1e-15)
    assert value == 0.125 + 2.5
