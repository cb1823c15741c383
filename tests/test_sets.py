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
    # finite and infinite upper bounds mixed: the KKT conditions hold to
    # rounding.  Some t has y - x = t on the free coordinates, y - x <= t
    # where x sits at lo and y - x >= t where it sits at hi
    lo = np.array([0.0, 0.1, 0.0, 0.2, 0.05, 0.0])
    hi = np.array([0.3, np.inf, 0.25, np.inf, 0.4, 0.15])
    sx = sets.simplex(6, lo=lo, hi=hi)
    for _ in range(200):
        y = rng.normal(scale=rng.choice([0.1, 1.0, 5.0]), size=6)
        x = sx.project(y)
        assert abs(x.sum() - 1.0) <= 1e-12
        assert np.all(x >= lo) and np.all(x <= hi)
        r, at_lo, at_hi = y - x, x == lo, x == hi
        free = ~(at_lo | at_hi)
        t_least = np.max(r[at_lo | free], initial=-np.inf)
        t_most = np.min(r[at_hi | free], initial=np.inf)
        assert t_least <= t_most + 1e-12


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


def test_product_projection():
    p = sets.product([sets.box([0.0], [1.0]), sets.ball([0.0, 0.0], 1.0)])
    x = p.project(np.array([2.0, 3.0, 4.0]))
    assert np.allclose(x[0], 1.0)
    assert np.linalg.norm(x[1:]) <= 1.0 + 1e-12
    assert p.bound_radius == pytest.approx(np.sqrt(2.0))


def test_product_of_polytopes_keeps_its_polytope():
    # quadlift's affine slice maps U x {1}; with a polytope on the product
    # its image projects by the oracle, not by projected gradient
    p = sets.product([sets.box([-1.0, 0.0], [1.0, 2.0]),
                      sets.singleton([1.0])])
    assert p.polytope is not None
    assert sets.product([sets.box([0.0], [1.0]),
                         sets.ball([0.0], 1.0)]).polytope is None
    M = np.array([[1.0, 0.5, 0.2], [0.3, 1.0, -0.1], [0.0, 0.4, 0.8]])
    img = sets.linear_image(p, M)
    assert img.project == img.polytope.nearest
    # the same set without a polytope projects by projected gradient
    bare = sets.ConvexSet(p.dim, p.project, p.support, p.bound_radius)
    descent = sets.linear_image(bare, M)
    rng = np.random.default_rng(5)
    for y in rng.normal(scale=3.0, size=(10, 3)):
        assert np.max(np.abs(img.project(y) - descent.project(y))) <= 1e-12


def test_linear_image_of_a_ball_projects_by_projected_gradient():
    # a ball has no polytope, so the image projection descends over it; the
    # reference solves min ||M z - y|| over ||z - c|| <= r through its
    # multiplier: z(lam) = (M'M + lam I)^-1 (M'y + lam c), with lam
    # bisected until z(lam) meets the sphere
    rng = np.random.default_rng(3)
    c, r = np.array([0.4, -0.2, 0.1]), 1.3

    def reference(M, y):
        MtM, Mty = M.T @ M, M.T @ y

        def z(lam):
            return np.linalg.solve(MtM + lam * np.eye(3), Mty + lam * c)

        if np.linalg.norm(z(0.0) - c) <= r:
            return z(0.0)
        lo, hi = 0.0, 1.0
        while np.linalg.norm(z(hi) - c) > r:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.linalg.norm(z(mid) - c) > r else (lo, mid)
        return z(hi)

    for _ in range(10):
        M = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        img = sets.linear_image(sets.ball(c, r), M)
        assert img.polytope is None
        y = 2.0 * M @ rng.normal(size=3)
        x = img.project(y)
        assert np.linalg.norm(np.linalg.solve(M, x) - c) <= r * (1.0 + 1e-12)
        want = np.linalg.norm(M @ reference(M, y) - y)
        assert abs(np.linalg.norm(x - y) - want) <= 1e-9


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


def test_linear_image_of_box_projects_exactly_without_a_solve(monkeypatch):
    from detector_forge import optimize

    calls = []
    solve = optimize.minimize_projected

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(optimize, "minimize_projected", counted)
    rng = np.random.default_rng(21)
    lo, hi = np.array([-1.0, 0.0, -0.5]), np.array([1.0, 2.0, 0.5])
    base = sets.box(lo, hi)
    M = rng.normal(size=(3, 3))
    img = sets.linear_image(base, M)
    wide = sets.linear_image(base, rng.normal(size=(2, 3)))
    for _ in range(40):
        y = rng.normal(scale=3.0, size=3)
        x = img.project(y)
        # box KKT of min ||M z - y||^2 / 2 at z = M^{-1} x: the gradient
        # vanishes on free coordinates and points inward at active bounds
        z = np.linalg.solve(M, x)
        tol = 1e-9 * (1.0 + np.linalg.norm(y))
        assert np.all(z >= lo - tol) and np.all(z <= hi + tol)
        r = M.T @ (x - y)
        at_lo, at_hi = z <= lo + tol, z >= hi - tol
        assert np.all(r[at_lo] >= -tol) and np.all(r[at_hi] <= tol)
        assert np.all(np.abs(r[~at_lo & ~at_hi]) <= tol)
        # a wide map has a singular Gram matrix; its image projection must
        # still satisfy the variational inequality over the whole image
        y2 = rng.normal(scale=3.0, size=2)
        x2 = wide.project(y2)
        assert wide.support(y2 - x2)[0] <= (y2 - x2) @ x2 + tol
        assert wide.project(x2) == pytest.approx(x2, abs=1e-12)
    assert calls == []


def test_linear_image_of_simplex_projects_exactly_without_a_solve(monkeypatch):
    from detector_forge import optimize

    rng = np.random.default_rng(22)
    cases = [sets.simplex(3),
             sets.simplex(3, lo=[0.1, 0.0, 0.2], hi=[0.6, 0.7, 0.5])]
    maps = [rng.normal(size=(3, 3)) for _ in range(3)]
    # points near the image plane mostly project inside its faces and edges;
    # the reference is the projected-gradient projection the exact one
    # replaced
    points, reference = {}, {}
    for i, base in enumerate(cases):
        for j, M in enumerate(maps):
            for k in range(4):
                w = base.project(rng.dirichlet(np.ones(3)))
                y = points[i, j, k] = M @ w + 0.5 * rng.normal(size=3)

                def obj(z, M=M, y=y):
                    r = M @ z - y
                    return 0.5 * float(r @ r), lambda: M.T @ r

                res = optimize.minimize_projected(
                    obj, base.project(np.zeros(3)), base.project, rtol=1e-14)
                reference[i, j, k] = M @ res.x

    calls = []
    solve = optimize.minimize_projected

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(optimize, "minimize_projected", counted)
    for i, base in enumerate(cases):
        for j, M in enumerate(maps):
            img = sets.linear_image(base, M)
            for k in range(4):
                y = points[i, j, k]
                x = img.project(y)
                z = np.linalg.solve(M, x)
                assert abs(z.sum() - 1.0) <= 1e-9
                assert np.all(z >= base.meta["lo"] - 1e-9)
                assert np.all(z <= base.meta["hi"] + 1e-9)
                dist = np.linalg.norm(x - y)
                ref = np.linalg.norm(reference[i, j, k] - y)
                assert dist <= ref + 1e-12 and ref - dist <= 1e-9
    assert calls == []


def test_halfspaces_over_a_box_projects_to_the_oracles_slack():
    # two rows cutting a thin box: Dykstra, capped at 2000 rounds, left a
    # row violated by up to 0.0137 on points drawn like these.  The oracle
    # meets each row only to its slack, so that a point on a row passes
    # despite rounding; a candidate leaving the row free may pass too, so
    # the projection is not held to the rows with no slack
    from detector_forge.optimize import _row_slack

    lo = np.array([-0.72352668, -1.50626434, -0.88130624])
    hi = np.array([-0.47601243, 1.14089627, -0.71386998])
    C = np.array([[1.3345678, -0.17675931, 0.91972998],
                  [0.82254001, 0.16631819, 0.41788588]])
    d = np.array([-1.52357483, -0.28702389])
    poly = sets.halfspaces(C, d, base=sets.box(lo, hi))
    slack = _row_slack(lo, hi, C, d)
    rng = np.random.default_rng(753)
    inside = lo + (hi - lo) * rng.uniform(size=(4000, 3))
    inside = inside[np.all(inside @ C.T <= d, axis=1)]
    assert len(inside) >= 20
    for y in rng.normal(scale=10.0, size=(200, 3)):
        p = poly.project(y)
        assert np.all(p >= lo) and np.all(p <= hi)
        assert np.all(C @ p <= d + slack)
        assert np.all((inside - p) @ (y - p) <= 1e-9)


def test_empty_halfspaces_over_a_box_raises_instead_of_projecting():
    # x + y <= -5 misses the unit box; a Dykstra fallback ran all its
    # rounds and returned the corner (-1, -1), which contains() accepted
    from detector_forge.errors import InfeasibleError

    empty = sets.halfspaces([[1.0, 1.0]], [-5.0],
                            base=sets.box([-1.0, -1.0], [1.0, 1.0]))
    with pytest.raises(InfeasibleError):
        empty.project(np.array([0.3, 0.2]))
    with pytest.raises(InfeasibleError):
        empty.contains(np.array([-1.0, -1.0]))
    with pytest.raises(InfeasibleError):
        sets.linear_image(empty, np.array([[2.0, 0.0], [1.0, 1.0]])).project(
            np.zeros(2))


@pytest.mark.parametrize("n, m", [(7, 2), (7, 3), (8, 1)])
def test_every_polytope_base_projects_by_the_oracle(n, m):
    # halfspaces and linear_image over a base with a polytope project by
    # Polytope.nearest and have a support function, whatever the shape;
    # these shapes have more active sets than an enumeration of them could
    # afford, and once fell back to Dykstra and to projected gradient
    from detector_forge.optimize import _row_slack

    rng = np.random.default_rng(10 * n + m)
    A = rng.normal(size=(m, n))
    cell = sets.halfspaces(A, np.ones(m), base=sets.box(-np.ones(n),
                                                        np.ones(n)))
    img = sets.linear_image(cell, np.eye(n) + 0.1 * rng.normal(size=(n, n)))
    for s in (cell, img):
        assert s.project == s.polytope.nearest
        assert s.support is not None
    y = 3.0 * rng.normal(size=n)
    x = cell.project(y)
    assert np.all(np.abs(x) <= 1.0)
    assert np.all(A @ x <= 1.0 + _row_slack(-np.ones(n), np.ones(n), A,
                                            np.ones(m)))
    inside = rng.uniform(-1.0, 1.0, size=(4000, n))
    inside = inside[np.all(inside @ A.T <= 1.0, axis=1)]
    assert len(inside) >= 20
    assert np.all((inside - x) @ (y - x) <= 1e-9)
    for s in (cell, img):
        g = rng.normal(size=n)
        val, arg = s.support(g)
        assert val == pytest.approx(g @ arg, rel=1e-12, abs=1e-12)
        pts = inside if s is cell else inside @ img.polytope.G.T
        assert np.all(pts @ g <= val + 1e-9)
