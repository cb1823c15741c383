import numpy as np
import pytest

from detector_forge import families, sets
from detector_forge.families import (
    affine_image,
    bounded_support_family,
    direct_sum,
    discrete_family,
    gaussian_point_family,
    iid_scale,
    poisson_family,
    refine_with_support,
    semi_direct_sum,
    sub_gaussian_family,
)
from detector_forge.quadlift import QuadLiftSpec, lift_gaussian


def make_gaussian(theta, Theta):
    return gaussian_point_family(np.asarray(theta, float), np.asarray(Theta, float))


# ---------------------------------------------------------------------------
# frozen values

def test_poisson_value():
    fam = poisson_family(sets.box([0.0, 0.0], [5.0, 5.0]))
    h = np.array([1.0, 1.0])
    mu = np.array([1.0, 1.0])
    assert fam.phi(h, mu) == pytest.approx(2.0 * (np.e - 1.0), abs=1e-12)


def test_discrete_value():
    fam = discrete_family(sets.simplex(2))
    h = np.array([0.0, np.log(2.0)])
    mu = np.array([0.5, 0.5])
    assert fam.phi(h, mu) == pytest.approx(np.log(1.5), abs=1e-12)


def test_sub_gaussian_value():
    theta = np.array([1.0, -2.0])
    Theta = np.array([[2.0, 0.5], [0.5, 1.0]])
    fam = make_gaussian(theta, Theta)
    h = np.array([0.3, 0.7])
    want = theta @ h + 0.5 * h @ Theta @ h
    assert fam.m_set.dim == 2
    assert fam.phi(h, theta) == pytest.approx(want, abs=1e-14)


def test_bounded_support_symmetric_interval():
    # on [-1, 1]^1 the bound is t^2/2, which dominates log cosh t
    X = sets.box([-1.0], [1.0])
    fam = bounded_support_family(X, sets.singleton([0.0]))
    for t in (0.5, 1.0, 2.0):
        val = fam.phi(np.array([t]), np.array([0.0]))
        assert val == pytest.approx(t * t / 2.0, abs=1e-12)
        assert val >= np.log(np.cosh(t))


def test_two_point_mgf_domination_grid():
    # bounded-support bound vs the exact worst two-point distribution on [-1, 1]
    X = sets.box([-1.0], [1.0])
    fam = bounded_support_family(X, sets.box([-1.0], [1.0]))
    etas = np.logspace(-3, 1, 60)
    betas = np.linspace(-1.0, 1.0, 41)
    for beta in betas:
        for eta in etas:
            bound = fam.phi(np.array([eta]), np.array([beta]))
            exact = eta + np.log1p((1.0 - beta) / 2.0 * (np.exp(-2.0 * eta) - 1.0))
            assert bound >= exact - 1e-12


# ---------------------------------------------------------------------------
# calculus identities

def test_direct_sum_blockwise():
    rng = np.random.default_rng(21)
    t1, t2 = rng.normal(size=2), rng.normal(size=3)
    Q1 = np.eye(2) * 1.5
    Q2 = np.diag([1.0, 2.0, 3.0])
    fam = direct_sum([make_gaussian(t1, Q1), make_gaussian(t2, Q2)])
    h = rng.normal(size=5)
    mu = np.concatenate([t1, t2])
    want = t1 @ h[:2] + 0.5 * h[:2] @ Q1 @ h[:2] + t2 @ h[2:] + 0.5 * h[2:] @ Q2 @ h[2:]
    assert fam.phi(h, mu) == pytest.approx(want, abs=1e-12)


def test_iid_scale_sub_gaussian():
    rng = np.random.default_rng(22)
    theta = rng.normal(size=3)
    Theta = np.eye(3) + 0.5
    a, b = 0.7, 1.3
    fam = iid_scale(make_gaussian(theta, Theta), [a, b])
    h = rng.normal(size=3)
    mu = theta
    want = (a + b) * theta @ h + 0.5 * (a * a + b * b) * h @ Theta @ h
    assert fam.phi(h, mu) == pytest.approx(want, abs=1e-12)


def test_affine_image_gaussian():
    rng = np.random.default_rng(23)
    theta = rng.normal(size=3)
    Theta = np.diag([1.0, 2.0, 0.5])
    A = rng.normal(size=(2, 3))
    a = rng.normal(size=2)
    fam = affine_image(make_gaussian(theta, Theta), A, a)
    hb = rng.normal(size=2)
    mu = theta
    want = (A @ theta + a) @ hb + 0.5 * hb @ (A @ Theta @ A.T) @ hb
    assert fam.phi(hb, mu) == pytest.approx(want, abs=1e-12)


def test_semi_direct_sum_identical_parts():
    # two identical zero-mean parts: optimum at equal weights, value 2 g'Theta g
    Theta = np.array([[1.0, 0.2], [0.2, 2.0]])
    part = sub_gaussian_family(sets.ball([0.0, 0.0], 1.0),
                               sets.singleton(sets.sym_flatten(Theta)))
    fam = semi_direct_sum([part, part], eps=1e-3)
    g = np.array([0.4, -0.3])
    h = np.concatenate([g, g])
    mu = np.zeros(4)
    assert fam.phi(h, mu) == pytest.approx(2.0 * g @ Theta @ g, rel=1e-6)


def test_semi_direct_sum_matches_grid():
    # the first part is a basic family, a direct sum or a rescaled one
    rng = np.random.default_rng(24)
    Theta = np.eye(2)
    part = sub_gaussian_family(sets.ball([0.0, 0.0], 1.0),
                               sets.singleton(sets.sym_flatten(Theta)))
    blocks = direct_sum([sub_gaussian_family(sets.box([-0.5], [0.5]),
                                             sets.singleton([1.5])),
                         poisson_family(sets.box([0.5], [2.0]))])
    eps = 1e-3
    lams = np.linspace(eps, 1.0 - eps, 4001)
    for first in (part, blocks, iid_scale(blocks, [0.6, 0.6])):
        fam = semi_direct_sum([first, part], eps=eps)
        th1 = first.m_set.project(rng.normal(size=2))
        th2 = rng.normal(size=2) * 0.3
        mu = np.concatenate([th1, th2])
        h = rng.normal(size=4)
        vals = [lam * first.phi(h[:2] / lam, mu[:2]) +
                (1 - lam) * part.phi(h[2:] / (1 - lam), mu[2:]) for lam in lams]
        assert fam.phi(h, mu) == pytest.approx(min(vals), abs=1e-4)


def test_semi_direct_sum_solves_once_per_point(monkeypatch):
    # phi, grad_h and grad_mu at one (h, mu) share one inner solve; a new
    # point solves again
    solves = []
    inner = families.minimize_projected
    monkeypatch.setattr(families, "minimize_projected",
                        lambda *a, **k: solves.append(1) or inner(*a, **k))
    part = sub_gaussian_family(sets.ball([0.0, 0.0], 1.0),
                               sets.singleton(sets.sym_flatten(np.eye(2))))
    fam = semi_direct_sum([part, part])
    h, mu = np.array([0.4, -0.3, 1.0, 0.2]), np.array([0.1, 0.0, -0.2, 0.3])
    fam.phi(h, mu)
    fam.grad_h(list(h), mu)
    fam.grad_mu(h, list(mu))
    assert len(solves) == 1
    fam.phi(2.0 * h, mu)
    assert len(solves) == 2


def test_sub_gaussian_rejects_a_cov_set_without_a_top():
    # only a point or a psd interval names the covariance the bound is read at
    with pytest.raises(ValueError):
        sub_gaussian_family(sets.box([0.0, 0.0], [1.0, 1.0]),
                            sets.ball(sets.sym_flatten(np.eye(2)), 0.1))


def test_semi_direct_sum_rejects_unbounded_parts():
    part = gaussian_point_family([0.0], np.eye(1))
    part_unbounded = sub_gaussian_family(sets.full_space(1), sets.singleton(np.array([1.0])))
    with pytest.raises(ValueError):
        semi_direct_sum([part, part_unbounded])


@pytest.mark.parametrize("compose", [
    lambda x: direct_sum([x, make_gaussian([0.0], [[1.0]])]),
    lambda x: iid_scale(x, [1.0, 0.5]),
    lambda x: affine_image(x, np.eye(2), np.zeros(2)),
    lambda x: semi_direct_sum([x, x]),
    lambda x: refine_with_support(x, sets.box([-3.0, -5.0], [3.0, 5.0]),
                                  sets.ball([0.0, 0.0], 2.0)),
], ids=["direct_sum", "iid_scale", "affine_image", "semi_direct_sum",
        "refine_with_support"])
def test_calculus_refuses_a_lifted_part(compose):
    # a lifted family's detectors keep to a spectral band; the calculus
    # composes full-space parts only and returns the full space
    lifted = lift_gaussian(QuadLiftSpec(A=[[1.0, 0.0]], U=sets.box([-0.1], [0.1]),
                                        Ucov=sets.singleton([1.0]),
                                        Theta_star=[[1.0]]))
    assert lifted.h_set.meta["kind"] != "full_space"
    with pytest.raises(ValueError, match="the family calculus needs full-space"):
        compose(lifted)
    gauss = make_gaussian([0.0, 0.0], np.eye(2))
    assert compose(gauss).h_set.meta["kind"] == "full_space"


def test_refine_soft_threshold_closed_form():
    # base [-1,1] bound refined over a shift interval: Huber-type closed form
    X = sets.box([-1.0], [1.0])
    fam = bounded_support_family(X, sets.singleton([0.0]))
    ref = refine_with_support(fam, X, sets.box([-5.0], [5.0]))
    mu = np.array([0.0])
    assert ref.phi(np.array([3.0]), mu) == pytest.approx(3.0 - 0.5, abs=1e-6)
    assert ref.phi(np.array([0.5]), mu) == pytest.approx(0.125, abs=1e-6)


def test_refine_bounded_by_both():
    rng = np.random.default_rng(25)
    X = sets.box([-1.0, -1.0], [1.0, 1.0])
    fam = bounded_support_family(X, sets.singleton([0.1, -0.2]))
    G = sets.box([-4.0, -4.0], [4.0, 4.0])
    ref = refine_with_support(fam, X, G)
    mu = np.array([0.1, -0.2])
    for _ in range(25):
        h = rng.normal(scale=2.0, size=2)
        val = ref.phi(h, mu)
        assert val <= fam.phi(h, mu) + 1e-9
        if G.contains(h):
            assert val <= X.support(h)[0] + 1e-9


def _central_difference(f, x, t=1e-4):
    return np.array([(f(x + t * e) - f(x - t * e)) / (2.0 * t)
                     for e in np.eye(x.size)])


def test_refined_gradients_match_finite_differences():
    # unit-covariance sub-Gaussian base, support box [-1, 1]^2 (s = l1
    # norm), shift ball of radius 5: the inner minimizer is
    # g = h + mu - sign(h + mu), inside the ball and off the kinks of s at
    # these points, so phi_hat is smooth there with grad_h = sign(h + mu)
    # and grad_mu = sign(h + mu) - mu
    base = sub_gaussian_family(sets.ball([0.5, -0.2], 1.0),
                               sets.singleton(np.eye(2).ravel()))
    ref = refine_with_support(base, sets.box([-1.0, -1.0], [1.0, 1.0]),
                              sets.ball([0.0, 0.0], 5.0))
    mu = np.array([0.3, 0.1])
    for h in ([2.7, -2.6], [3.0, 2.0], [-2.5, 1.8]):
        h = np.array(h)
        sign = np.sign(h + mu)
        assert ref.grad_h(h, mu) == pytest.approx(sign, abs=1e-9)
        assert ref.grad_mu(h, mu) == pytest.approx(sign - mu, abs=1e-9)
        fd_h = _central_difference(lambda x: ref.phi(x, mu), h)
        fd_mu = _central_difference(lambda m: ref.phi(h, m), mu)
        assert np.max(np.abs(ref.grad_h(h, mu) - fd_h)) <= 1e-8
        assert np.max(np.abs(ref.grad_mu(h, mu) - fd_mu)) <= 1e-8


def test_iid_scale_unequal_factors_gradients_match_finite_differences():
    fam = iid_scale(discrete_family(sets.simplex(3)), [0.5, 2.0])
    assert fam.direction is None
    h, mu = np.array([0.4, -0.3, 1.1]), np.array([0.2, 0.5, 0.3])
    for f, grad, x in ((lambda m: fam.phi(h, m), fam.grad_mu(h, mu), mu),
                       (lambda y: fam.phi(y, mu), fam.grad_h(h, mu), h)):
        assert np.max(np.abs(grad - _central_difference(f, x, 1e-5))) <= 1e-8


def test_iterated_side_maxima_pair_risk_holds_by_monte_carlo():
    # unequal factors leave no direction, so the saddle's side maxima climb
    # on grad_mu; such pairs may not certify, so the detector's risk is
    # checked by simulation at members of each side: an observation is
    # 0.5 omega_1 + 2 omega_2, two one-hot draws
    from detector_forge.detectors import build_detector
    from detector_forge.saddle import SaddleProblem
    from detector_forge.simulate import custom_sampler, mc_detector_risk

    lam = np.array([0.5, 2.0])
    f1 = iid_scale(discrete_family(sets.simplex(3, lo=[0.6, 0.0, 0.0])), lam)
    f2 = iid_scale(discrete_family(sets.simplex(3, lo=[0.0, 0.0, 0.6])), lam)
    det = build_detector(SaddleProblem(f1, f2), force=True)
    assert 0.0 < det.risk < 1.0

    def member(p):
        def draw(rng, n):
            idx = rng.choice(3, p=p, size=(n, 2))
            return np.einsum("k,nkd->nd", lam, np.eye(3)[idx])

        return draw

    for side, p in ((1, [0.6, 0.2, 0.2]), (1, [0.6, 0.0, 0.4]),
                    (2, [0.2, 0.2, 0.6]), (2, [0.0, 0.4, 0.6])):
        sampler = custom_sampler(3, member(np.array(p)), 7)
        assert mc_detector_risk(det, sampler, side, 20000).passed, (side, p)


# ---------------------------------------------------------------------------
# structural properties

def sample_mu(fam, rng):
    return fam.m_set.project(rng.normal(scale=2.0, size=fam.m_set.dim))


def basic_families(rng):
    Theta = np.array([[1.5, 0.3], [0.3, 1.0]])
    yield sub_gaussian_family(sets.ball([0.5, -0.5], 1.0),
                              sets.singleton(sets.sym_flatten(Theta)))
    yield poisson_family(sets.box([0.1, 0.1], [4.0, 4.0]))
    yield discrete_family(sets.simplex(3))
    yield bounded_support_family(sets.box([-1.0, -2.0], [2.0, 1.0]),
                                 sets.box([-0.5, -0.5], [0.5, 0.5]))


def test_midpoint_convexity_in_h():
    rng = np.random.default_rng(26)
    for fam in basic_families(rng):
        for _ in range(300):
            mu = sample_mu(fam, rng)
            h1 = rng.normal(scale=1.5, size=fam.h_set.dim)
            h2 = rng.normal(scale=1.5, size=fam.h_set.dim)
            mid = fam.phi(0.5 * (h1 + h2), mu)
            assert mid <= 0.5 * (fam.phi(h1, mu) + fam.phi(h2, mu)) + 1e-10


def test_midpoint_concavity_in_mu():
    rng = np.random.default_rng(27)
    for fam in basic_families(rng):
        for _ in range(300):
            h = rng.normal(scale=1.5, size=fam.h_set.dim)
            m1, m2 = sample_mu(fam, rng), sample_mu(fam, rng)
            mid = fam.phi(h, 0.5 * (m1 + m2))
            assert mid >= 0.5 * (fam.phi(h, m1) + fam.phi(h, m2)) - 1e-10


def test_subgradients_support_the_graph():
    rng = np.random.default_rng(28)
    for fam in basic_families(rng):
        for _ in range(100):
            mu = sample_mu(fam, rng)
            h1 = rng.normal(size=fam.h_set.dim)
            h2 = rng.normal(size=fam.h_set.dim)
            g = fam.grad_h(h1, mu)
            assert fam.phi(h2, mu) >= fam.phi(h1, mu) + g @ (h2 - h1) - 1e-9
            m1, m2 = sample_mu(fam, rng), sample_mu(fam, rng)
            gm = fam.grad_mu(h1, m1)
            assert fam.phi(h1, m2) <= fam.phi(h1, m1) + gm @ (m2 - m1) + 1e-9


def test_phi_zero_is_zero():
    rng = np.random.default_rng(29)
    for fam in basic_families(rng):
        mu = sample_mu(fam, rng)
        assert fam.phi(np.zeros(fam.h_set.dim), mu) == pytest.approx(0.0, abs=1e-12)


def test_mgf_certificates_monte_carlo():
    # log of the empirical MGF stays below phi + 3 SE(log scale) for members
    rng = np.random.default_rng(30)
    n = 20000

    theta = np.array([0.3, -0.2])
    Theta = np.array([[1.0, 0.2], [0.2, 0.8]])
    gs = make_gaussian(theta, Theta)
    chol = np.linalg.cholesky(Theta)
    draws = theta + rng.normal(size=(n, 2)) @ chol.T
    for _ in range(5):
        h = rng.normal(scale=0.7, size=2)
        x = np.exp(draws @ h)
        est, se = x.mean(), x.std(ddof=1) / np.sqrt(n)
        assert est <= np.exp(gs.phi(h, theta)) + 3.0 * se

    lam = np.array([1.5, 0.7])
    po = poisson_family(sets.box([0.0, 0.0], [3.0, 3.0]))
    draws = rng.poisson(lam, size=(n, 2)).astype(float)
    for _ in range(5):
        h = rng.normal(scale=0.5, size=2)
        x = np.exp(draws @ h)
        est, se = x.mean(), x.std(ddof=1) / np.sqrt(n)
        assert est <= np.exp(po.phi(h, lam)) + 3.0 * se

    p = np.array([0.3, 0.5, 0.2])
    dm = discrete_family(sets.simplex(3))
    idx = rng.choice(3, p=p, size=n)
    draws = np.eye(3)[idx]
    for _ in range(5):
        h = rng.normal(size=3)
        x = np.exp(draws @ h)
        est, se = x.mean(), x.std(ddof=1) / np.sqrt(n)
        assert est <= np.exp(dm.phi(h, p)) + 3.0 * se
