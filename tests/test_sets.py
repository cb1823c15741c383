import warnings

import numpy as np
import pytest

from detector_forge import sets


def sort_simplex_projection(y):
    """Reference projection onto the probability simplex (sort + threshold)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, y.size + 1)
    cond = u - (css - 1.0) / ks > 0
    k = ks[cond][-1]
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(y - tau, 0.0)


def vi_holds(cset, y, x, n_probe, rng, tol=1e-7):
    """First-order optimality of x = proj(y): (x - y)'(z - x) >= 0 on the set."""
    for _ in range(n_probe):
        z = cset.project(rng.normal(scale=3.0, size=cset.dim))
        if (x - y) @ (z - x) < -tol * (1.0 + np.linalg.norm(y)):
            return False
    return True


def test_box_ball_singleton_projection():
    b = sets.box([-1.0, 0.0], [1.0, 2.0])
    assert np.allclose(b.project(np.array([5.0, -3.0])), [1.0, 0.0])
    assert b.contains(np.array([0.5, 1.0]))
    assert not b.contains(np.array([1.5, 1.0]))

    s = sets.ball([1.0, 0.0], 2.0)
    p = s.project(np.array([5.0, 0.0]))
    assert np.allclose(p, [3.0, 0.0])
    assert s.contains(np.array([1.0, 1.9]))

    pt = sets.singleton([3.0, 4.0])
    assert np.allclose(pt.project(np.zeros(2)), [3.0, 4.0])
    assert pt.bound_radius == pytest.approx(5.0)


def test_ball_projection_of_huge_point_does_not_overflow():
    # the squared norm of this offset overflows; the projection must not
    b = sets.ball([0.0, 0.0], 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = b.project(np.array([3e200, -4e200]))
    assert np.allclose(p, [600.0, -800.0], rtol=1e-15)


def test_simplex_projection_matches_sort_reference():
    rng = np.random.default_rng(11)
    sx = sets.simplex(6)
    for _ in range(200):
        y = rng.normal(scale=2.0, size=6)
        assert np.allclose(sx.project(y), sort_simplex_projection(y), atol=1e-9)


def test_simplex_with_bounds_projection_is_optimal():
    rng = np.random.default_rng(12)
    sx = sets.simplex(5, lo=np.full(5, 0.05), hi=np.full(5, 0.6))
    for _ in range(50):
        y = rng.normal(scale=2.0, size=5)
        x = sx.project(y)
        assert abs(x.sum() - 1.0) < 1e-9
        assert np.all(x >= 0.05 - 1e-9) and np.all(x <= 0.6 + 1e-9)
        assert vi_holds(sx, y, x, 30, rng)


def test_simplex_infeasible_bounds_rejected():
    with pytest.raises(ValueError):
        sets.simplex(3, hi=np.full(3, 0.2))


def test_support_functions_dominate_sampled_points():
    rng = np.random.default_rng(13)
    cases = [
        sets.box([-1.0, -2.0], [3.0, 0.5]),
        sets.ball([0.5, -0.5], 1.5),
        sets.simplex(2),
        sets.simplex(2, lo=[0.2, 0.1], hi=[0.9, 0.8]),
    ]
    for cs in cases:
        for _ in range(40):
            g = rng.normal(size=cs.dim)
            val, arg = cs.support(g)
            assert cs.contains(arg, tol=1e-7)
            assert abs(g @ arg - val) < 1e-9
            z = cs.project(rng.normal(scale=2.0, size=cs.dim))
            assert g @ z <= val + 1e-9


def test_halfspaces_projection():
    hs = sets.halfspaces(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    p = hs.project(np.array([3.0, 0.0]))
    assert np.allclose(p, [1.0, 0.0], atol=1e-9)
    rng = np.random.default_rng(14)
    poly = sets.halfspaces(np.array([[1.0, 1.0], [-1.0, 2.0]]), np.array([1.0, 0.5]))
    for _ in range(30):
        y = rng.normal(scale=2.0, size=2)
        x = poly.project(y)
        assert np.all(np.array([[1.0, 1.0], [-1.0, 2.0]]) @ x <= np.array([1.0, 0.5]) + 1e-8)
        assert vi_holds(poly, y, x, 20, rng)


def test_intersection_box_ball():
    rng = np.random.default_rng(15)
    cs = sets.intersection([sets.box([-0.5, -0.5], [0.5, 0.5]), sets.ball([0.0, 0.0], 0.6)])
    for _ in range(30):
        y = rng.normal(scale=2.0, size=2)
        x = cs.project(y)
        assert np.all(np.abs(x) <= 0.5 + 1e-8)
        assert np.linalg.norm(x) <= 0.6 + 1e-8
        assert vi_holds(cs, y, x, 20, rng)


def test_product_and_scale():
    p = sets.product([sets.box([0.0], [1.0]), sets.ball([0.0, 0.0], 1.0)])
    x = p.project(np.array([2.0, 3.0, 4.0]))
    assert np.allclose(x[0], 1.0)
    assert np.linalg.norm(x[1:]) <= 1.0 + 1e-12
    assert p.bound_radius == pytest.approx(np.sqrt(2.0))

    s = sets.scale(sets.ball([0.0, 0.0], 1.0), 3.0)
    assert np.allclose(s.project(np.array([6.0, 0.0])), [3.0, 0.0])
    v, a = s.support(np.array([1.0, 0.0]))
    assert v == pytest.approx(3.0)
    assert np.allclose(a, [3.0, 0.0])


def test_linear_preimage_projection():
    rng = np.random.default_rng(16)
    base = sets.ball([0.0, 0.0], 1.0)
    M = rng.normal(size=(2, 3))
    pre = sets.linear_preimage(base, M)
    for _ in range(20):
        y = rng.normal(scale=2.0, size=3)
        x = pre.project(y)
        assert np.linalg.norm(M @ x) <= 1.0 + 1e-7
        for _ in range(20):
            z = rng.normal(scale=2.0, size=3)
            z = z - M.T @ np.linalg.lstsq(M @ M.T, M @ z, rcond=None)[0]  # in ker M
            zc = x + 0.1 * z
            if np.linalg.norm(M @ zc) <= 1.0:
                assert (x - y) @ (zc - x) >= -1e-6

    assert sets.linear_preimage(sets.full_space(2), M).meta["kind"] == "full_space"


def test_psd_interval_commuting_case():
    lo = 0.5 * np.eye(3)
    hi = 2.0 * np.eye(3)
    cs = sets.psd_interval(lo, hi)
    rng = np.random.default_rng(17)
    X = rng.normal(size=(3, 3))
    X = 0.5 * (X + X.T)
    got = sets.sym_unflatten(cs.project(sets.sym_flatten(X)))
    want = sets.eig_clip(X, 0.5, 2.0)  # exact projection when bounds are multiples of I
    assert np.allclose(got, want, atol=1e-8)
    w = np.linalg.eigvalsh(got)
    assert w.min() >= 0.5 - 1e-8 and w.max() <= 2.0 + 1e-8


def test_psd_interval_rejects_bad_interval():
    with pytest.raises(ValueError):
        sets.psd_interval(2.0 * np.eye(2), np.eye(2))


def test_sym_flatten_roundtrip():
    rng = np.random.default_rng(18)
    M = rng.normal(size=(4, 4))
    M = 0.5 * (M + M.T)
    assert np.allclose(sets.sym_unflatten(sets.sym_flatten(M)), M)
