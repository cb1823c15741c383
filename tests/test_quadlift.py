import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detector_forge import detectors, optimize, quadlift
from detector_forge.families import sub_gaussian_family
from detector_forge.optimize import maximize_box_quadratic
from detector_forge.quadlift import (QuadLiftSpec, lift_gaussian,
                                     lift_observation, solve_quad_detector,
                                     special_case_affine)
from detector_forge.saddle import SaddleProblem, best_response
from detector_forge.sets import (ball, box, full_space, halfspaces,
                                 psd_interval, singleton, sym_flatten,
                                 sym_unflatten)


def exact_quad_mgf(h, H, w, Theta):
    # ln E exp(h'z + z'Hz/2) for z ~ N(w, Theta), arranged through the
    # completed square rather than the scaled eigenbasis
    d = len(w)
    M = np.linalg.inv(Theta) - H
    b = h + np.linalg.solve(Theta, w)
    sign, logdet = np.linalg.slogdet(np.eye(d) - Theta @ H)
    assert sign > 0
    return (-0.5 * logdet - 0.5 * w @ np.linalg.solve(Theta, w)
            + 0.5 * b @ np.linalg.solve(M, b))


def banded_H(rng, spec, scale=0.5):
    raw = rng.standard_normal((spec.dim, spec.dim))
    raw = 0.5 * (raw + raw.T)
    w, V = np.linalg.eigh(spec.root @ raw @ spec.root)
    Ht = (V * np.clip(w, -scale * spec.gamma, scale * spec.gamma)) @ V.T
    return spec.iroot @ Ht @ spec.iroot


def lifted(s1, s2):
    return SaddleProblem(lift_gaussian(s1), lift_gaussian(s2))


def singleton_spec(d=2, u0=None, Theta=None, gamma=0.99):
    Theta = np.eye(d) if Theta is None else np.asarray(Theta, dtype=float)
    u0 = np.zeros(1) if u0 is None else np.atleast_1d(u0)
    m = u0.size
    A = np.zeros((d, m + 1))
    return QuadLiftSpec(A=A, U=singleton(u0), Ucov=singleton(sym_flatten(Theta)),
                        Theta_star=Theta, gamma=gamma)


def test_phi_equals_exact_mgf_at_reference():
    # singleton mean and covariance: every piece except the exact log-MGF
    # vanishes, so the bound must be an identity
    rng = np.random.default_rng(11)
    d = 3
    A = np.column_stack([rng.standard_normal((d, 2)), rng.standard_normal(d)])
    u0 = rng.standard_normal(2)
    Q = rng.standard_normal((d, d))
    Theta = Q @ Q.T + 0.5 * np.eye(d)
    spec = QuadLiftSpec(A=A, U=singleton(u0), Ucov=singleton(sym_flatten(Theta)),
                        Theta_star=Theta)
    data = lift_gaussian(spec)
    w_mean = A @ np.concatenate([u0, [1.0]])
    mu = sym_flatten(Theta)
    for _ in range(5):
        h = rng.standard_normal(d)
        H = banded_H(rng, spec)
        x = np.concatenate([h, sym_flatten(H)])
        want = exact_quad_mgf(h, H, w_mean, Theta)
        assert data.phi(x, mu) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_phi_dominates_mgf_with_covariance_slack():
    # covariance interval below the reference: the bound may be loose but
    # must stay above the exact log-MGF everywhere on a grid
    rng = np.random.default_rng(4)
    d = 2
    A = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, -0.2]])
    U = box([-1.0, -1.0], [1.0, 1.0])
    Ucov = psd_interval(0.5 * np.eye(d), np.eye(d))
    spec = QuadLiftSpec(A=A, U=U, Ucov=Ucov, Theta_star=np.eye(d))
    data = lift_gaussian(spec)
    thetas = [0.5 * np.eye(d), 0.75 * np.eye(d), np.eye(d)]
    us = [np.array([a, b]) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.5)]
    for _ in range(4):
        h = rng.standard_normal(d)
        H = banded_H(rng, spec, scale=0.4)
        x = np.concatenate([h, sym_flatten(H)])
        for Th in thetas:
            val = data.phi(x, sym_flatten(Th))
            for u in us:
                w_mean = A @ np.concatenate([u, [1.0]])
                assert val >= exact_quad_mgf(h, H, w_mean, Th) - 1e-12


def test_zero_detector_zero_bound():
    spec = singleton_spec()
    data = lift_gaussian(spec)
    x = np.zeros(2 + 4)
    assert data.phi(x, sym_flatten(np.eye(2))) == pytest.approx(0.0, abs=1e-14)


def test_affine_slice_matches_subgaussian_form():
    # H = 0 must reduce to the worst-case mean term plus the reference
    # quadratic, computed here by direct vertex enumeration
    rng = np.random.default_rng(7)
    d, m = 2, 2
    A = np.column_stack([rng.standard_normal((d, m)), rng.standard_normal(d)])
    U = box([-1.0, 0.5], [2.0, 1.5])
    Theta = np.array([[2.0, 0.3], [0.3, 1.0]])
    spec = QuadLiftSpec(A=A, U=U, Ucov=singleton(sym_flatten(Theta)),
                        Theta_star=Theta)
    data = lift_gaussian(spec)
    verts = np.array([[a, b] for a in (-1.0, 2.0) for b in (0.5, 1.5)])
    for _ in range(6):
        h = rng.standard_normal(d)
        x = np.concatenate([h, np.zeros(d * d)])
        means = verts @ A[:, :m].T + A[:, m]
        want = float(np.max(means @ h)) + 0.5 * h @ Theta @ h
        assert data.phi(x, sym_flatten(Theta)) == pytest.approx(want, rel=1e-10)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    d = 2
    A = np.array([[0.8, -0.4, 0.1], [0.2, 1.1, -0.3]])
    spec = QuadLiftSpec(A=A, U=box([-1.0, -2.0], [1.5, 0.5]),
                        Ucov=psd_interval(0.5 * np.eye(d), np.eye(d)),
                        Theta_star=np.eye(d))
    data = lift_gaussian(spec)
    mu = sym_flatten(0.8 * np.eye(d))
    x = np.concatenate([rng.standard_normal(d),
                        sym_flatten(banded_H(rng, spec, scale=0.3))])
    g = data.grad_h(x, mu)
    eps = 1e-6
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = eps
        fd = (data.phi(x + e, mu) - data.phi(x - e, mu)) / (2 * eps)
        assert fd == pytest.approx(g[k], rel=5e-4, abs=5e-6)
    gm = data.grad_mu(x, mu)
    for k in range(mu.size):
        e = np.zeros(mu.size)
        e[k] = eps
        fd = (data.phi(x, mu + e) - data.phi(x, mu - e)) / (2 * eps)
        assert fd == pytest.approx(gm[k], rel=1e-6, abs=1e-9)


def test_phi_convex_in_detector_and_coercive():
    rng = np.random.default_rng(5)
    spec = singleton_spec(d=2, u0=np.array([0.7]), Theta=1.5 * np.eye(2))
    data = lift_gaussian(spec)
    mu = sym_flatten(1.5 * np.eye(2))
    proj = data.h_set.project
    for _ in range(20):
        x = proj(np.concatenate([rng.standard_normal(2),
                                 0.4 * rng.standard_normal(4)]))
        y = proj(np.concatenate([rng.standard_normal(2),
                                 0.4 * rng.standard_normal(4)]))
        mid = 0.5 * (x + y)
        assert data.phi(mid, mu) <= 0.5 * (data.phi(x, mu) + data.phi(y, mu)) + 1e-9
    h = np.array([1.0, -0.5])
    ray = [data.phi(np.concatenate([t * h, np.zeros(4)]), mu) for t in (1, 4, 16)]
    assert ray[0] < ray[1] < ray[2]


def test_projection_clips_eigenvalues_exactly():
    rng = np.random.default_rng(9)
    Theta = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = singleton_spec(d=2, Theta=Theta, gamma=0.3)
    data = lift_gaussian(spec)
    raw = rng.standard_normal((2, 2))
    x = np.concatenate([rng.standard_normal(2), sym_flatten(raw + raw.T)])
    p = data.h_set.project(x)
    H = sym_unflatten(p[2:])
    eigs = np.linalg.eigvalsh(spec.root @ H @ spec.root)
    assert np.all(np.abs(eigs) <= 0.3 + 1e-12)
    assert data.h_set.project(p) == pytest.approx(p, abs=1e-12)
    inside = np.concatenate([x[:2], sym_flatten(banded_H(rng, spec, scale=0.9))])
    assert data.h_set.project(inside) == pytest.approx(inside, abs=1e-12)


def test_phi_rejects_out_of_band_matrix():
    spec = singleton_spec(d=2)
    data = lift_gaussian(spec)
    x = np.concatenate([np.zeros(2), sym_flatten(1.5 * np.eye(2))])
    with pytest.raises(ValueError, match="spectral band"):
        data.phi(x, sym_flatten(np.eye(2)))


def _rotation(rng, d):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), m=st.integers(1, 3), edge=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_lifted_bound_dominates_exact_mgf_below_the_reference(d, m, edge,
                                                              seed):
    # Theta = root C root with 0 < C <= I in a random eigenbasis, so Theta
    # <= Theta_star without commuting with it; H anywhere in the gamma band
    # and the means A [u; 1] anywhere in the box.  edge puts eigenvalues of
    # C at 1 and of the scaled H at the band's ends
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, d))
    Theta_star = B @ B.T + 0.2 * np.eye(d)
    A = rng.standard_normal((d, m + 1))
    lo = rng.uniform(-1.5, 0.0, m)
    hi = lo + rng.uniform(0.1, 2.0, m)
    gamma = float(rng.uniform(0.3, 0.99))
    root, iroot = quadlift._sqrt_pd(Theta_star)
    c = rng.uniform(0.05, 1.0, d)
    g = rng.uniform(-gamma, gamma, d)
    if edge:
        c[rng.random(d) < 0.5] = 1.0
        g = np.where(rng.random(d) < 0.5, gamma * np.sign(g), g)
    V, W = _rotation(rng, d), _rotation(rng, d)
    Theta = root @ (V * c) @ V.T @ root
    Theta = 0.5 * (Theta + Theta.T)
    H = iroot @ (W * g) @ W.T @ iroot
    H = 0.5 * (H + H.T)
    h = 2.0 * rng.standard_normal(d)
    spec = QuadLiftSpec(A=A, U=box(lo, hi),
                        Ucov=psd_interval(Theta, Theta_star),
                        Theta_star=Theta_star, gamma=gamma)
    bound = quadlift._lifted_value(spec, h, H, Theta)[0]
    corners = np.where(np.indices((2,) * m).reshape(m, -1).T == 1, hi, lo)
    us = np.vstack([corners, rng.uniform(lo, hi, size=(20, m))])
    for u in us:
        exact = exact_quad_mgf(h, H, A @ np.append(u, 1.0), Theta)
        assert exact <= bound + 1e-9 * max(1.0, abs(bound))


def test_undominated_covariance_set_is_refused():
    # a box of covariances has no known top: accepted before, its folded
    # bound at H = 0.2 read 0.41 against a true log-MGF of 0.80
    with pytest.raises(ValueError, match="singleton or a psd_interval"):
        QuadLiftSpec(A=np.zeros((1, 2)), U=singleton([0.0]),
                     Ucov=box([4.0], [4.0]), Theta_star=np.eye(1))
    # a top 4 or 50 times the reference is refused at any scale, also where
    # it exceeds the reference by only 5e-9; the reference itself passes
    for T in (1.0, 1e-10):
        for top in (4.0 * T, 50.0 * T):
            with pytest.raises(ValueError, match="dominate"):
                QuadLiftSpec(A=np.zeros((1, 2)), U=singleton([0.0]),
                             Ucov=singleton([top]), Theta_star=[[T]])
        QuadLiftSpec(A=np.zeros((1, 2)), U=singleton([0.0]),
                     Ucov=psd_interval([[0.5 * T]], [[T]]), Theta_star=[[T]])


def test_statistic_matches_lifted_inner_product():
    rng = np.random.default_rng(2)
    from detector_forge.quadlift import QuadDetector
    H = rng.standard_normal((3, 3))
    det = QuadDetector(h=rng.standard_normal(3), H=0.5 * (H + H.T),
                       a=0.7, risk=1.0)
    for _ in range(4):
        z = rng.standard_normal(3)
        want = float(det.as_vector() @ lift_observation(z)) + det.a
        assert det.statistic(z) == pytest.approx(want, rel=1e-12)
    batch = rng.standard_normal((5, 3))
    lifted = lift_observation(batch)
    assert lifted.shape == (5, 12)
    assert lifted[2] == pytest.approx(lift_observation(batch[2]))


def test_identical_hypotheses_risk_one():
    spec = singleton_spec(d=2, u0=np.array([0.4]))
    det = solve_quad_detector(spec, spec)
    assert det.risk == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(det.h) <= 1e-6
    assert np.linalg.norm(det.H) <= 1e-6


def test_variance_pair_matches_scalar_reduction():
    # N(0, I) vs N(0, 16 I) in two dimensions: by symmetry and coordinate
    # separability the optimum is H = -a I inside the joint spectral band,
    # so a one-dimensional grid over the exact formula gives the truth
    d = 2
    s1 = singleton_spec(d=d, Theta=np.eye(d))
    s2 = singleton_spec(d=d, Theta=16.0 * np.eye(d))
    det = solve_quad_detector(s1, s2)
    a_grid = np.linspace(0.0, s1.gamma / 16.0, 20001)
    # each side contributes -(d/2) log per coordinate and the objective
    # averages the two sides
    vals = -(d / 4.0) * (np.log(1.0 - a_grid) + np.log(1.0 + 16.0 * a_grid))
    want = float(np.exp(vals.min()))
    assert det.risk == pytest.approx(want, rel=1e-4)
    assert np.linalg.norm(det.h) <= 1e-5
    off = det.H - np.trace(det.H) / d * np.eye(d)
    assert np.linalg.norm(off) <= 1e-4


def test_solver_side_values_are_lifted_bound_at_support_point():
    # the folded bound of each side is lift_gaussian's phi at the support
    # point of the covariance interval, and dominates phi elsewhere on it
    rng = np.random.default_rng(17)
    d = 2
    lo1, hi1 = 0.5 * np.eye(d), np.eye(d)
    lo2, hi2 = np.array([[1.5, 0.2], [0.2, 1.0]]), 2.0 * np.eye(d)
    s1 = QuadLiftSpec(A=np.array([[1.0, 0.0], [0.0, -0.5]]),
                      U=box([-0.5], [0.5]), Ucov=psd_interval(lo1, hi1),
                      Theta_star=hi1)
    s2 = QuadLiftSpec(A=np.array([[0.0, 1.0], [0.0, 0.5]]),
                      U=singleton(np.zeros(1)), Ucov=psd_interval(lo2, hi2),
                      Theta_star=hi2)
    det = solve_quad_detector(s1, s2)
    # the pair solve is the saddle's descent over the two lifted families,
    # and its side values are those its own evaluation bounded at the
    # returned (h, H): a fresh best response there repeats them bit for bit
    x = np.concatenate([det.h, sym_flatten(det.H)])
    assert det.meta["side_values"] == best_response(lifted(s1, s2), x)[2:4]
    for spec, sign, value in ((s1, -1.0, det.meta["side_values"][0]),
                              (s2, 1.0, det.meta["side_values"][1])):
        h, H = sign * det.h, sign * det.H
        x = np.concatenate([h, sym_flatten(H)])
        phi = lift_gaussian(spec).phi
        _, top = spec.Ucov.support(0.5 * sym_flatten(H))
        assert value == phi(x, top)
        lo, hi = spec.Ucov.meta["lo"], spec.Ucov.meta["hi"]
        w, V = np.linalg.eigh(hi - lo)
        root = (V * np.sqrt(w)) @ V.T
        for _ in range(20):
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            S = (Q * rng.uniform(0.0, 1.0, d)) @ Q.T
            assert value >= phi(x, sym_flatten(lo + root @ S @ root)) - 1e-12


def test_reference_floor_is_relative_so_a_rescaled_pair_is_accepted():
    # N(0, t) vs N(0.5, 16 t): its lifted bound is scale-free, so the
    # detector solved at t = 1, carried to t = 1e-10 and to t = 1e-13 (a
    # least eigenvalue the absolute floor of 1e-12 refused), certifies the
    # same risk
    def pair(t):
        return [QuadLiftSpec(A=np.array([[0.0, m * np.sqrt(t)]]),
                             U=singleton([0.0]), Ucov=singleton([v * t]),
                             Theta_star=np.array([[v * t]]))
                for v, m in ((1.0, 0.0), (16.0, 0.5))]

    det = solve_quad_detector(*pair(1.0))
    assert det.risk < 0.9
    for t in (1e-10, 1e-13):
        x = np.concatenate([det.h / np.sqrt(t), sym_flatten(det.H / t)])
        _, _, v1, v2, _ = best_response(lifted(*pair(t)), x)
        assert detectors._certificate(v1, v2)[2] == pytest.approx(det.risk,
                                                                  rel=1e-9)


def test_ill_conditioned_reference_at_unit_scale_is_accepted():
    # condition number 1e13: only a least eigenvalue at rounding level
    # relative to the largest is refused
    theta = np.diag([1e6, 1e-7])
    spec = QuadLiftSpec(A=np.zeros((2, 2)), U=singleton([0.0]),
                        Ucov=singleton(sym_flatten(theta)), Theta_star=theta)
    assert np.allclose(spec.root @ spec.root, theta)
    with pytest.raises(ValueError, match="positive definite"):
        QuadLiftSpec(A=np.zeros((2, 2)), U=singleton([0.0]),
                     Ucov=singleton(sym_flatten(np.diag([1e6, 1e-12]))),
                     Theta_star=np.diag([1e6, 1e-12]))


def test_affine_cannot_separate_equal_means():
    s1 = singleton_spec(d=2, Theta=np.eye(2))
    s2 = singleton_spec(d=2, Theta=16.0 * np.eye(2))
    aff = special_case_affine(s1, s2)
    quad = solve_quad_detector(s1, s2)
    assert aff.risk >= 1.0 - 1e-9
    assert quad.risk <= 0.9


def test_fix_flags_restrict_the_search():
    s1 = singleton_spec(d=2, Theta=np.eye(2))
    s2 = QuadLiftSpec(A=np.array([[0.0, 1.0], [0.0, 0.5]]),
                      U=singleton(np.zeros(1)),
                      Ucov=singleton(sym_flatten(np.eye(2))),
                      Theta_star=np.eye(2))
    det_h = solve_quad_detector(s1, s2, fix_h=True)
    assert np.linalg.norm(det_h.h) == 0.0
    det_H = solve_quad_detector(s1, s2, fix_H=True)
    assert np.linalg.norm(det_H.H) == 0.0
    assert np.linalg.norm(det_H.h) > 1e-3


def _box_pair():
    """Two lifted hypotheses over 2-d boxes of means, one covariance."""
    Theta = np.array([[1.0, 0.2], [0.2, 0.6]])
    return [QuadLiftSpec(A=np.column_stack([np.eye(2), [shift, 0.3]]),
                         U=box([-0.5, -0.5], [0.5, 0.5]),
                         Ucov=psd_interval(0.5 * Theta, Theta),
                         Theta_star=Theta)
            for shift in (0.0, 2.0)]


def test_fix_H_returns_the_affine_solve_without_a_descent():
    s1, s2 = _box_pair()
    aff = special_case_affine(s1, s2)
    det = solve_quad_detector(s1, s2, fix_H=True)
    assert det.meta["iterations"] == 0
    assert det.h.tobytes() == aff.h.tobytes()
    assert (det.a, det.risk) == (aff.a, aff.risk)
    assert det.H.shape == (2, 2) and not np.any(det.H)
    assert det.meta["converged"] == aff.certified
    assert det.meta["affine"].risk == aff.risk


@pytest.mark.parametrize("flags", [{}, {"fix_h": True}, {"fix_H": True}])
def test_a_pair_solve_runs_one_saddle_solve(monkeypatch, flags):
    # the H = 0 slice is solved once, kept in meta["affine"], and is where
    # the descent starts unless fix_h pins h at zero
    solves = []

    def counted(problem, tol):
        solves.append(1)
        return solve_saddle(problem, tol)

    solve_saddle = detectors.solve_saddle
    monkeypatch.setattr(detectors, "solve_saddle", counted)
    s1, s2 = _box_pair()
    det = solve_quad_detector(s1, s2, **flags)
    assert len(solves) == 1
    aff = det.meta["affine"]
    assert aff.certified
    if flags.get("fix_h"):
        assert not np.any(det.h)
    else:
        assert det.risk <= aff.risk + 1e-12


def test_mean_set_without_a_support_function_is_refused():
    # a halfspaces cut of a ball has none; climbing concave curvature over
    # it without one would return the ascent's own value, which lies below
    # the maximum, as if it bounded it
    U = halfspaces([[1.0, 0.0]], [0.5], base=ball(np.zeros(2), 1.0))
    assert U.support is None
    with pytest.raises(ValueError, match="support function"):
        QuadLiftSpec(A=np.column_stack([np.eye(2), np.zeros(2)]), U=U,
                     Ucov=singleton(sym_flatten(np.eye(2))),
                     Theta_star=np.eye(2))


def test_affine_slice_agrees_with_support_route():
    # separated boxes, shared covariance: the quadratic solver pinned to
    # H = 0 returns the affine slice's solve, and the descent from it ends
    # no worse
    rng = np.random.default_rng(31)
    d, m = 2, 2
    for _ in range(3):
        A1 = np.column_stack([np.eye(d), rng.standard_normal(d)])
        A2 = np.column_stack([np.eye(d), 3.0 + rng.standard_normal(d)])
        Theta = np.eye(d)
        mk = lambda A: QuadLiftSpec(A=A, U=box([-0.5] * m, [0.5] * m),
                                    Ucov=singleton(sym_flatten(Theta)),
                                    Theta_star=Theta)
        s1, s2 = mk(A1), mk(A2)
        aff = special_case_affine(s1, s2)
        det = solve_quad_detector(s1, s2, fix_H=True)
        assert det.risk == pytest.approx(aff.risk, rel=1e-5, abs=1e-7)
        quad = solve_quad_detector(s1, s2)
        assert quad.risk <= aff.risk + 1e-5


def test_lifted_subgaussian_cover_construction():
    # a lifted observation of dimension d + d^2 with doubled identity
    # sub-Gaussian matrix is an admissible family description
    d = 2
    n = d + d * d
    fam = sub_gaussian_family(ball(np.zeros(n), 1.0),
                              singleton(sym_flatten(2.0 * np.eye(n))))
    assert fam.obs_dim == n
    h = np.ones(n)
    mu = np.zeros(n)
    assert fam.phi(h, mu) == pytest.approx(0.5 * h @ (2.0 * np.eye(n)) @ h)


def lifted_q(spec, h, H, Qinv, U):
    """The tilted quadratic form that _lifted_max maximizes, at rows of U."""
    W = U @ spec.A[:, :-1].T + spec.A[:, -1]
    R = (W @ H + h) @ Qinv
    return 0.5 * (2.0 * W @ h + np.einsum("ni,ij,nj->n", W, H, W)
                  + np.einsum("ni,ni->n", W @ H + h, R))


def test_lifted_max_over_a_box_is_exact_for_indefinite_curvature():
    # the ascent used to stop at a local maximum here (value 4.52516), below
    # the grid point (1, 1, -0.2); the true maximum 4.659476 sits on an edge
    A = np.array([[0.766, -1.078, 2.5434, -0.3526],
                  [-1.1456, -1.5251, 1.0468, 0.871],
                  [0.6079, -0.2743, 0.266, 0.0829]])
    h = np.array([1.5624, -0.7249, 0.6488])
    H = np.array([[-0.3632, -0.0644, -0.4848], [-0.0644, 0.3338, -0.1837],
                  [-0.4848, -0.1837, 0.0753]])
    spec = QuadLiftSpec(A=A, U=box(-np.ones(3), np.ones(3)),
                        Ucov=psd_interval(0.5 * np.eye(3), np.eye(3)),
                        Theta_star=np.eye(3))
    Qinv, _ = quadlift._phi_pieces(spec, H)
    value = quadlift._lifted_max(spec, h, H, Qinv)[0]
    axis = np.linspace(-1.0, 1.0, 81)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    assert value >= lifted_q(spec, h, H, Qinv, grid).max()
    assert value == pytest.approx(4.659476, abs=1e-6)


def test_lifted_ascent_over_a_ball_carries_its_frank_wolfe_gap(monkeypatch):
    # concave curvature over a ball still climbs; cut to two steps, the
    # ascent ends far from the maximum and only its gap keeps the bound
    ascent = optimize.maximize_projected
    monkeypatch.setattr(optimize, "maximize_projected",
                        lambda *a, **k: ascent(*a, **{**k, "max_iter": 2}))
    # curvatures -21 and -0.013 along the axes: two steps cannot settle
    spec = QuadLiftSpec(A=np.array([[8.0, 0.0, 0.5], [0.0, 0.2, -0.3]]),
                        U=ball([1.0, -2.0], 1.5),
                        Ucov=singleton(sym_flatten(np.eye(2))),
                        Theta_star=np.eye(2))
    h = np.array([1.0, 2.0])
    H = -0.5 * np.eye(2)
    Qinv, _ = quadlift._phi_pieces(spec, H)
    value = quadlift._lifted_max(spec, h, H, Qinv)[0]
    r, t = np.meshgrid(np.linspace(0.0, 1.5, 151),
                       np.linspace(0.0, 2.0 * np.pi, 721))
    pts = np.column_stack([1.0 + (r * np.cos(t)).ravel(),
                           -2.0 + (r * np.sin(t)).ravel()])
    assert value >= lifted_q(spec, h, H, Qinv, pts).max()


def test_lifted_max_over_a_box_past_the_face_cap_still_bounds():
    # indefinite curvature with twelve negative diagonal entries gives 3^12
    # face candidates, past the cap: the ascent then climbs a concave
    # overestimator of q
    rng = np.random.default_rng(3)
    a = rng.uniform(0.2, 1.0, 12) * rng.choice([-1.0, 1.0], 12)
    b = (2.0 + rng.uniform(-0.25, 0.25, 12)) * a
    A = np.vstack([np.append(a, 0.3), np.append(b, -0.1)])
    spec = QuadLiftSpec(A=A, U=box(-np.ones(12), np.ones(12)),
                        Ucov=singleton(sym_flatten(np.eye(2))),
                        Theta_star=np.eye(2))
    h = np.array([0.4, -0.7])
    H = np.diag([0.5, -0.5])
    Qinv, _ = quadlift._phi_pieces(spec, H)
    value = quadlift._lifted_max(spec, h, H, Qinv)[0]
    corners = np.where(np.indices((2,) * 12).reshape(12, -1).T == 1, 1.0, -1.0)
    inside = rng.uniform(-1.0, 1.0, size=(4000, 12))
    assert value >= lifted_q(spec, h, H, Qinv,
                             np.vstack([corners, inside])).max()


def test_non_concave_curvature_over_a_ball_is_refused():
    spec = QuadLiftSpec(A=np.column_stack([np.eye(2), np.zeros(2)]),
                        U=ball(np.zeros(2), 1.0),
                        Ucov=singleton(sym_flatten(np.eye(2))),
                        Theta_star=np.eye(2))
    H = np.diag([0.5, -0.5])
    Qinv, _ = quadlift._phi_pieces(spec, H)
    with pytest.raises(RuntimeError, match="not a box"):
        quadlift._lifted_max(spec, np.ones(2), H, Qinv)


def test_proportional_references_project_with_one_clip():
    # Theta2* = c Theta1*: the single clip of the tighter band must match
    # 200 rounds of Dykstra between the two bands
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        B = rng.standard_normal((d, d))
        Theta = B @ B.T + 0.3 * np.eye(d)
        c = float(rng.uniform(0.2, 5.0))
        s1, s2 = (QuadLiftSpec(A=np.zeros((d, 2)), U=singleton([0.0]),
                               Ucov=singleton(sym_flatten(T)), Theta_star=T,
                               gamma=float(rng.uniform(0.3, 0.99)))
                  for T in (Theta, c * Theta))
        raw = rng.standard_normal((d, d))
        H = 2.0 * (raw + raw.T) / np.trace(Theta)
        x = H.copy()
        p1, p2 = np.zeros_like(H), np.zeros_like(H)
        for _ in range(200):
            y = s1.clip_matrix(x + p1)
            p1 = x + p1 - y
            x = s2.clip_matrix(y + p2)
            p2 = y + p2 - x
        proj = quadlift._pair_projector(lifted(s1, s2), False)
        got = sym_unflatten(proj(np.concatenate([np.zeros(d),
                                                 sym_flatten(H)]))[d:])
        assert np.abs(got - x).max() <= 1e-12 * max(1.0, np.abs(x).max())


def test_distinct_references_alternate_between_the_two_bands():
    # Theta2* is not a multiple of Theta1*, so the projector runs Dykstra
    # between the two spectral bands; the solve through it is still a
    # certificate, and no certificate beats the Hellinger affinity
    T1 = np.array([[1.0, 0.3], [0.3, 0.5]])
    T2 = np.array([[2.0, -0.4], [-0.4, 1.5]])
    s1, s2 = (QuadLiftSpec(A=np.zeros((2, 2)), U=singleton([0.0]),
                           Ucov=singleton(sym_flatten(T)), Theta_star=T)
              for T in (T1, T2))
    proj = quadlift._pair_projector(lifted(s1, s2), False)
    rng = np.random.default_rng(5)
    one_clip_leaves = False
    for _ in range(50):
        raw = rng.standard_normal((2, 2))
        H = 3.0 * (raw + raw.T)
        x = proj(np.concatenate([rng.standard_normal(2), sym_flatten(H)]))
        got = sym_unflatten(x[2:])
        for s in (s1, s2):
            w = np.linalg.eigvalsh(s.root @ got @ s.root)
            assert np.abs(w).max() <= s.gamma + 1e-12
        assert np.abs(proj(x) - x).max() <= 1e-12
        w = np.linalg.eigvalsh(s2.root @ s1.clip_matrix(H) @ s2.root)
        one_clip_leaves |= np.abs(w).max() > s2.gamma + 1e-6
    assert one_clip_leaves
    det = solve_quad_detector(s1, s2)
    affinity = ((np.linalg.det(T1) * np.linalg.det(T2)) ** 0.25
                / np.sqrt(np.linalg.det(0.5 * (T1 + T2))))
    assert affinity <= det.risk < 1.0


def _reference_lifted_bound(spec, h, H, Theta):
    """The lifted bound's (value, grad_h, grad_H) as first written, each
    small product formed where it is used, over a box or a singleton of
    means: the reference that _lifted_value and its gradient must match
    bit for bit."""
    d = spec.dim
    H = 0.5 * (H + H.T)
    w, V = np.linalg.eigh(spec.root @ H @ spec.root)
    Qinv = (spec.root @ V / (1.0 - w)) @ V.T @ spec.root
    logdet = -0.5 * float(np.sum(np.log1p(-w)))
    tr_term = 0.5 * float(sym_flatten(Theta - spec.Theta_star) @ sym_flatten(H))
    Au, a0 = spec.A[:, :-1], spec.A[:, -1]

    def q_of(u):
        w = Au @ u + a0
        r = Qinv @ (H @ w + h)
        return 0.5 * float(2.0 * h @ w + w @ (H @ w) + (H @ w + h) @ r)

    if spec.U.meta.get("kind") == "singleton":
        u = spec.U.meta["point"]
    else:
        w0 = Au @ np.zeros(spec.U.dim) + a0
        s0 = w0 + Qinv @ (H @ w0 + h)
        g0 = Au.T @ (h + H @ s0)
        Tu = Au.T @ (H + H @ Qinv @ H) @ Au
        u = maximize_box_quadratic(Tu, g0, spec.U.meta["lo"],
                                   spec.U.meta["hi"])[0]
    y = Au @ u + a0
    val, Y, tau = q_of(u), np.outer(y, y), 1.0
    M1 = np.eye(d) + Qinv @ H
    qh = Qinv @ h
    gh = M1 @ y + tau * qh
    gH = 0.5 * (M1 @ Y @ M1.T + np.outer(M1 @ y, qh)
                + np.outer(qh, M1 @ y) + tau * np.outer(qh, qh))
    gH += 0.5 * Qinv
    gH += 0.5 * (Theta - spec.Theta_star)
    return logdet + tr_term + val, gh, 0.5 * (gH + gH.T)


@pytest.mark.parametrize("seed", range(6))
def test_lifted_bound_matches_its_reference_bit_for_bit(seed):
    # H as the descent passes it, symmetrized by sym_unflatten, and its
    # negation, over boxes and singletons of means
    rng = np.random.default_rng(seed)
    for _ in range(10):
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        B = rng.standard_normal((d, d))
        Theta_star = B @ B.T + 0.3 * np.eye(d)
        lo = rng.uniform(-1.5, 0.0, m)
        U = (box(lo, lo + rng.uniform(0.1, 2.0, m)) if rng.random() < 0.7
             else singleton(rng.standard_normal(m)))
        spec = QuadLiftSpec(A=rng.standard_normal((d, m + 1)), U=U,
                            Ucov=psd_interval(0.5 * Theta_star, Theta_star),
                            Theta_star=Theta_star,
                            gamma=float(rng.uniform(0.3, 0.99)))
        H = sym_unflatten(sym_flatten(banded_H(rng, spec, 0.95)))
        h = rng.standard_normal(d)
        Theta = float(rng.uniform(0.5, 1.0)) * Theta_star
        for sign in (1.0, -1.0):
            value, grad = quadlift._lifted_value(spec, sign * h, sign * H,
                                                 Theta)
            want = _reference_lifted_bound(spec, sign * h, sign * H, Theta)
            grad_h, grad_H = grad()
            assert value == want[0]
            assert np.array_equal(grad_h, want[1])
            assert np.array_equal(grad_H, want[2])


def test_variance_pair_evaluates_the_folded_bound_at_most_the_pinned_count(
        monkeypatch):
    # the benchmark's 1-d pair, variance 1 against 4 with means in
    # [-0.1, 0.1], unreflected: each descent evaluation bounds both sides
    calls = []
    lifted_value = quadlift._lifted_value

    def counted(*args):
        calls.append(args)
        return lifted_value(*args)

    monkeypatch.setattr(quadlift, "_lifted_value", counted)
    s1, s2 = (QuadLiftSpec(A=np.array([[1.0, 0.0]]), U=box([-0.1], [0.1]),
                           Ucov=singleton([v]), Theta_star=np.array([[v]]))
              for v in (1.0, 4.0))
    det = solve_quad_detector(s1, s2)
    assert det.risk < det.meta["affine"].risk
    # 88 before a backtrack ended at the resolution of x
    assert len(calls) <= 56

