import numpy as np
import pytest

from detector_forge.families import sub_gaussian_family
from detector_forge.quadlift import (QuadLiftSpec, QuadSolveOptions,
                                     compute_delta, lift_bounded_support,
                                     lift_gaussian, lift_observation,
                                     solve_quad_detector, special_case_affine)
from detector_forge.sets import (ball, box, full_space, psd_interval,
                                 singleton, sym_flatten, sym_unflatten)


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


def test_compute_delta_cases():
    I2 = np.eye(2)
    assert compute_delta(singleton(sym_flatten(I2)), I2) == pytest.approx(0.0)
    assert compute_delta(singleton(sym_flatten(0.25 * I2)), I2) == \
        pytest.approx(0.5)
    assert compute_delta(psd_interval(0.25 * I2, I2), I2) == pytest.approx(0.5)
    assert compute_delta(ball(sym_flatten(I2), 0.1), I2) == 2.0


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
    det_h = solve_quad_detector(s1, s2, QuadSolveOptions(fix_h=True))
    assert np.linalg.norm(det_h.h) == 0.0
    det_H = solve_quad_detector(s1, s2, QuadSolveOptions(fix_H=True))
    assert np.linalg.norm(det_H.H) == 0.0
    assert np.linalg.norm(det_H.h) > 1e-3


def test_affine_slice_agrees_with_support_route():
    # separated boxes, shared covariance: the quadratic solver pinned to
    # H = 0 and the direct support-oracle route optimize the same function
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
        det = solve_quad_detector(s1, s2, QuadSolveOptions(fix_H=True))
        assert det.risk == pytest.approx(aff.risk, rel=1e-5, abs=1e-7)
        quad = solve_quad_detector(s1, s2)
        assert quad.risk <= aff.risk + 1e-5


def test_lift_bounded_support_spectahedron_oracle():
    # 2x2 matrices with eigenvalues in [0, 1]: the support function is the
    # positive part of the spectrum, computable by eigen-decomposition
    def oracle(g):
        G = sym_unflatten(g)
        w, V = np.linalg.eigh(G)
        keep = V[:, w > 0]
        return float(np.sum(w[w > 0])), sym_flatten(keep @ keep.T)

    mean = singleton(sym_flatten(0.25 * np.eye(2)))
    data = lift_bounded_support(oracle, 4, mean, radius=2.0)
    mu = sym_flatten(0.25 * np.eye(2))
    rng = np.random.default_rng(6)
    vals = []
    for _ in range(8):
        h = rng.standard_normal(4)
        vals.append(data.phi(h, mu))
        assert np.isfinite(vals[-1])
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    mid = data.phi(0.5 * (x + y), mu)
    assert mid <= 0.5 * (data.phi(x, mu) + data.phi(y, mu)) + 1e-12
    assert data.phi(np.zeros(4), mu) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError, match="oracle"):
        lift_bounded_support(None, 4, mean, radius=2.0)


def test_lifted_subgaussian_cover_construction():
    # a lifted observation of dimension d + d^2 with doubled identity
    # sub-Gaussian matrix is an admissible family description
    d = 2
    n = d + d * d
    fam = sub_gaussian_family(ball(np.zeros(n), 1.0),
                              singleton(sym_flatten(2.0 * np.eye(n))))
    assert fam.obs_dim == n
    h = np.ones(n)
    mu = np.concatenate([np.zeros(n), sym_flatten(2.0 * np.eye(n))])
    assert fam.phi(h, mu) == pytest.approx(0.5 * h @ (2.0 * np.eye(n)) @ h)
