"""Acceptance suite: twelve certified-behavior criteria.

Each criterion is one test that prints a single PASS/FAIL verdict line
(visible with -s, or in the failure report otherwise) and asserts it.
Tolerances and instance sizes are stated inline; seeds are fixed so every
run exercises the same instances.
"""

import json
import math
import time

import numpy as np
import pytest

from detector_forge.aggregate import (AggregationProblem, build_level_tests,
                                      first_red, individual_inference,
                                      subgaussian_fast_path,
                                      subgaussian_fast_path_deltas)
from detector_forge.cli import main as cli_main
from detector_forge.detectors import build_detector, risk_after_K
from detector_forge.families import (affine_image, bounded_support_family,
                                     direct_sum, discrete_family,
                                     gaussian_point_family, iid_scale,
                                     poisson_family, refine_with_support,
                                     semi_direct_sum, sub_gaussian_family)
from detector_forge.multitest import build_battery, perron_shifts, shift_battery
from detector_forge.quadlift import (QuadDetector, QuadLiftSpec, lift_gaussian,
                                     solve_quad_detector, special_case_affine)
from detector_forge.saddle import SaddleProblem
from detector_forge.sets import ball, box, singleton
from detector_forge.simulate import (custom_sampler, discrete_sampler,
                                     gaussian_sampler, mc_aggregation,
                                     mc_detector_risk, mc_test_error,
                                     poisson_sampler)

TIGHT = 1e-8


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {state}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _gauss_pair(mean1, mean2, Theta):
    cov = singleton(np.asarray(Theta, dtype=float).ravel())
    return (sub_gaussian_family(singleton(mean1), cov),
            sub_gaussian_family(singleton(mean2), cov))


def test_criterion_01_gaussian_closed_form():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 9))
        root = rng.normal(size=(d, d))
        Theta = root @ root.T + 0.3 * np.eye(d)
        m1 = 0.5 * rng.normal(size=d)
        m2 = 0.5 * rng.normal(size=d)
        f1, f2 = _gauss_pair(m1, m2, Theta)
        det = build_detector(SaddleProblem(f1, f2), TIGHT)
        delta = m1 - m2
        truth = math.exp(-0.125 * float(delta @ np.linalg.solve(Theta, delta)))
        worst = max(worst, abs(det.risk - truth) / truth)
    elapsed = time.monotonic() - start
    verdict(1, "Gaussian singleton risk equals the closed form",
            worst <= 1e-6 and elapsed < 30.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_hellinger_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for d in (2, 3, 5, 8, 12, 16, 4, 6):
        p = rng.dirichlet(np.ones(d)) + 0.02
        q = rng.dirichlet(np.ones(d)) + 0.02
        p, q = p / p.sum(), q / q.sum()
        det = build_detector(SaddleProblem(discrete_family(singleton(p)),
                                           discrete_family(singleton(q))), TIGHT)
        hell = float(np.sum(np.sqrt(p * q)))
        worst = max(worst, abs(det.risk - hell) / hell)

    # brute-force grid confirmation on a 2-point alphabet
    p = np.array([0.35, 0.65])
    q = np.array([0.8, 0.2])
    hell = float(np.sum(np.sqrt(p * q)))
    g = np.linspace(-4.0, 4.0, 401)
    H1, H2 = np.meshgrid(g, g, indexing="ij")
    half1 = np.log(p[0] * np.exp(-H1) + p[1] * np.exp(-H2))
    half2 = np.log(q[0] * np.exp(H1) + q[1] * np.exp(H2))
    grid_min = float(np.exp(0.5 * (half1 + half2)).min())
    grid_ok = grid_min >= hell - 1e-12 and grid_min <= hell + 1e-3
    verdict(2, "discrete singleton risk equals the Hellinger affinity",
            worst <= 1e-6 and grid_ok,
            f"max rel err {worst:.2e}, grid min gap {grid_min - hell:.2e}")


def test_criterion_03_mc_certificates_all_families():
    start = time.monotonic()
    n = 100_000
    margin = 1.0 + 4.0 / math.sqrt(n)
    cases = []

    f1, f2 = _gauss_pair([0.8, 0.0], [-0.8, 0.0], np.eye(2))
    cases.append(("gaussian", f1, f2,
                  gaussian_sampler([0.8, 0.0], np.eye(2), 31),
                  gaussian_sampler([-0.8, 0.0], np.eye(2), 32)))

    cases.append(("poisson",
                  poisson_family(singleton([3.0, 5.0])),
                  poisson_family(singleton([5.0, 3.0])),
                  poisson_sampler([3.0, 5.0], 33),
                  poisson_sampler([5.0, 3.0], 34)))

    p, q = np.array([0.6, 0.3, 0.1]), np.array([0.2, 0.3, 0.5])
    cases.append(("discrete",
                  discrete_family(singleton(p)), discrete_family(singleton(q)),
                  discrete_sampler(p, 35), discrete_sampler(q, 36)))

    def bernoulli(prob, seed):
        return custom_sampler(
            1, lambda rng, k: (rng.random((k, 1)) < prob).astype(float), seed)

    unit = box([0.0], [1.0])
    cases.append(("bounded",
                  bounded_support_family(unit, singleton([0.3])),
                  bounded_support_family(unit, singleton([0.7])),
                  bernoulli(0.3, 37), bernoulli(0.7, 38)))

    failures = []
    for name, fam1, fam2, s1, s2 in cases:
        det = build_detector(SaddleProblem(fam1, fam2), TIGHT)
        for side, sampler in ((1, s1), (2, s2)):
            rep = mc_detector_risk(det, sampler, side, n)
            if rep.estimate > det.risk * margin:
                failures.append(f"{name}/side{side}: {rep.estimate:.5f} "
                                f"> {det.risk * margin:.5f}")
    elapsed = time.monotonic() - start
    verdict(3, "MC moments stay under every certificate, all four families",
            not failures and elapsed < 60.0,
            "; ".join(failures) or f"{elapsed:.1f}s")


def test_criterion_04_bounded_support_inequality():
    eta = np.linspace(-6.0, 6.0, 450)
    beta = np.linspace(-1.0, 1.0, 450)
    E, B = np.meshgrid(eta, beta, indexing="ij")
    with np.errstate(divide="ignore"):
        # cosh(eta) + beta sinh(eta) = ((1+beta) e^eta + (1-beta) e^-eta)/2
        log_mix = np.logaddexp(np.log1p(B) + E, np.log1p(-B) - E) - math.log(2.0)
    gap = B * E + 0.5 * E * E - log_mix
    low = float(gap.min())
    verdict(4, "two-point exponential moment inequality on the full grid",
            low >= -1e-12, f"{E.size} points, min {low:.2e}")


def test_criterion_05_perron_shift_optimality():
    rng = np.random.default_rng(505)
    row_worst = 0.0
    shift_slack = np.inf
    for _ in range(50):
        J = int(rng.integers(2, 11))
        E = np.abs(rng.normal(size=(J, J)))
        E = 0.5 * (E + E.T)
        np.fill_diagonal(E, 0.0)
        alpha, g, level = perron_shifts(E)
        rows = (E * np.exp(-alpha)).sum(axis=1)
        row_worst = max(row_worst, float(np.abs(rows - level).max()),
                        abs(level - float(np.linalg.norm(E, 2))))
        for _ in range(2):
            S = rng.normal(size=(J, J))
            skew = 0.3 * (S - S.T)
            rival = float((E * np.exp(-(alpha + skew))).sum(axis=1).max())
            shift_slack = min(shift_slack, rival - level)
    verdict(5, "balanced shifts equalize rows at the spectral norm, optimally",
            row_worst <= 1e-8 and shift_slack >= -1e-8,
            f"row err {row_worst:.2e}, best rival slack {shift_slack:.2e}")


def test_criterion_06_three_color_mc_risk():
    means = (-3.0, 0.0, 3.0)
    hyps = [gaussian_point_family([m], [[1.0]]) for m in means]
    shifted = shift_battery(build_battery(hyps, tol=TIGHT), 4)
    assert shifted.eps_hat < 0.1
    samplers = [gaussian_sampler([m], [[1.0]], 600 + i)
                for i, m in enumerate(means)]
    crisk = mc_test_error(shifted, samplers, trials=10_000)
    colors = (0, 1, 2)
    wrong = mc_test_error(shifted, samplers, trials=10_000, colors=colors)
    ok = all(r.passed for r in crisk) and all(r.passed for r in wrong)
    worst = max(r.estimate for r in crisk + wrong)
    verdict(6, "C-risk and wrong-color frequency stay under the level",
            ok, f"eps_hat {shifted.eps_hat:.4f}, worst frequency {worst:.4f}")


@pytest.fixture(scope="module")
def aggregation_instance():
    ests = np.vstack([np.zeros(4), 6.0 * np.eye(4)[:3]])
    problem = AggregationProblem(
        estimates=ests,
        parameter_sets=[ball(np.zeros(4), 30.0)],
        G=np.eye(4),
        Theta=np.eye(4),
    )
    return problem, 20, 0.1


def test_criterion_07_aggregation_oracle_inequality(aggregation_instance):
    problem, K, eps = aggregation_instance
    L = problem.count

    fast = subgaussian_fast_path_deltas(problem.estimates, problem.Theta,
                                        eps, K)
    formula = np.zeros(L)
    factor = math.log(L * math.sqrt(L - 1.0) / (eps * K))
    for l in range(L):
        best = 0.0
        for lp in range(L):
            if lp == l:
                continue
            u = problem.estimates[lp] - problem.estimates[l]
            u = u / np.linalg.norm(u)
            best = max(best, math.sqrt(factor * float(u @ problem.Theta @ u)))
        formula[l] = best
    delta_err = float(np.abs(fast - formula).max())

    truth = problem.estimates[2]
    rep = mc_aggregation(problem, truth,
                         gaussian_sampler(truth, np.eye(4), 700),
                         1000, repetitions=K, eps=eps)

    tests = build_level_tests(problem, fast, K)
    rng = np.random.default_rng(707)
    agree = True
    for t in range(6):
        center = problem.estimates[t % L] + 0.5 * rng.normal(size=4)
        obs = center + rng.normal(size=(K, 4))
        generic = int(first_red(
            [[individual_inference(t, obs) for t in tests]])[0])
        closed = subgaussian_fast_path(problem.estimates, problem.Theta,
                                       eps, obs).index
        agree = agree and generic == closed
    verdict(7, "aggregation margins: formula match, MC bound, route agreement",
            delta_err <= 1e-12 and rep.passed and agree,
            f"delta err {delta_err:.1e}, violations {rep.estimate:.3f}, "
            f"routes agree {agree}")


def _criterion_08_pairs():
    """The ten lifted box pairs of criterion 08, as (s1, s2)."""
    rng = np.random.default_rng(808)
    for _ in range(10):
        d, m = 2, 2
        root = rng.normal(size=(d, d))
        Theta = root @ root.T + 0.4 * np.eye(d)
        A1 = np.hstack([0.7 * rng.normal(size=(d, m)),
                        rng.normal(size=(d, 1))])
        A2 = np.hstack([0.7 * rng.normal(size=(d, m)),
                        rng.normal(size=(d, 1)) + 1.5])
        lo = rng.normal(size=m)
        U1 = box(lo, lo + 1.0)
        lo2 = rng.normal(size=m)
        U2 = box(lo2, lo2 + 1.0)
        cov = singleton(Theta.ravel())
        yield QuadLiftSpec(A1, U1, cov, Theta), QuadLiftSpec(A2, U2, cov, Theta)


def test_criterion_08_quadratic_never_worse_and_affine_slice():
    # the quadratic descent starts at the affine detector and only lowers
    # the bound, so quad - affine is rounding only
    gap_worst = -np.inf
    slice_worst = 0.0
    for s1, s2 in _criterion_08_pairs():
        quad = solve_quad_detector(s1, s2).risk
        sliced = solve_quad_detector(s1, s2, fix_H=True).risk
        affine = special_case_affine(s1, s2).risk
        gap_worst = max(gap_worst, quad - affine)
        slice_worst = max(slice_worst, abs(sliced - affine))
    verdict(8, "quadratic beats affine; zero matrix part recovers it",
            gap_worst <= 1e-12 and slice_worst <= 1e-5,
            f"max quad-affine gap {gap_worst:.2e}, slice err {slice_worst:.2e}")


def test_affine_slice_is_certified_past_the_kink_at_zero():
    # pair k = 6 of criterion 08: a descent from h = 0 stalls at the kink
    # there and reports risk 1; the saddle certifies 0.997437
    s1, s2 = list(_criterion_08_pairs())[6]
    aff = special_case_affine(s1, s2)
    assert aff.risk < 0.9975
    assert aff.certified
    assert aff.meta["solution"].gap == aff.gap
    assert 0.0 <= aff.gap <= 1e-6
    assert solve_quad_detector(s1, s2).risk <= aff.risk + 1e-12


def test_overlapping_affine_slice_reports_the_zero_detector():
    # pair k = 2 of criterion 08 overlaps: the upper value at the frozen
    # minimizer sits above 0, exp of which is no risk, so the solve itself
    # returns the zero detector with side values exactly 0, and the
    # detector, with risk exactly 1, carries that solve's own gap
    s1, s2 = list(_criterion_08_pairs())[2]
    aff = special_case_affine(s1, s2)
    sol = aff.meta["solution"]
    assert not np.any(sol.h) and sol.side_values == (0.0, 0.0)
    assert aff.risk == 1.0 and risk_after_K(aff.risk, 2) == 1.0
    assert aff.a == 0.0 and not np.any(aff.h)
    assert aff.certified and aff.gap == sol.gap <= 1e-6


def test_criterion_09_variance_separation_qualitative():
    rng = np.random.default_rng(7)
    d, m, rho = 8, 12, 0.01
    A_main = 0.05 * rng.normal(size=(d, m))
    A = np.hstack([A_main, np.zeros((d, 1))])
    U1 = box(np.full(m, rho), np.full(m, rho + 10.0))
    U2 = box(np.full(m, -rho - 10.0), np.full(m, -rho))
    T1 = np.eye(d)
    T2 = 16.0 * np.eye(d)

    spec1 = QuadLiftSpec(A, U1, singleton(T1.ravel()), T1)
    spec2v = QuadLiftSpec(A, U2, singleton(T2.ravel()), T2)
    affine_v = special_case_affine(spec1, spec2v).risk
    quad_v = solve_quad_detector(spec1, spec2v, tol=1e-9).risk

    spec2e = QuadLiftSpec(A, U2, singleton(T1.ravel()), T1)
    affine_e = special_case_affine(spec1, spec2e).risk
    quad_e = solve_quad_detector(spec1, spec2e, tol=1e-9).risk
    pure_quad = solve_quad_detector(spec1, spec2e, tol=1e-9, fix_h=True).risk
    ok = (affine_v >= 0.99 and quad_v <= 0.9
          and abs(quad_e - affine_e) <= 1e-3 and pure_quad >= 0.99)
    verdict(9, "variance gap is quadratic-only territory",
            ok, f"affine {affine_v:.3f} vs quad {quad_v:.3f}; equal-cov "
                f"|gap| {abs(quad_e - affine_e):.1e}, h=0 risk {pure_quad:.3f}")


def test_criterion_10_lifted_mgf_bound_mc():
    d = 2
    Theta = np.array([[1.5, 0.3], [0.3, 0.8]])
    A = np.array([[0.3, 1.0], [-0.2, 0.5]])
    u0 = np.array([0.7])
    spec = QuadLiftSpec(A, singleton(u0), singleton(Theta.ravel()), Theta,
                        gamma=0.99)
    family = lift_gaussian(spec)
    mu = Theta.ravel()
    mean = A @ np.append(u0, 1.0)
    w, V = np.linalg.eigh(Theta)
    iroot = (V / np.sqrt(w)) @ V.T

    def banded(c1, c2):
        return iroot @ np.diag([c1, c2]) @ iroot

    hs = [np.zeros(2), np.array([0.6, 0.0]), np.array([-0.3, 0.4])]
    Hs = [banded(0.0, 0.0), banded(0.45, 0.2), banded(-0.5, 0.3)]
    ok = True
    details = []
    seed = 1000
    for h in hs:
        for H in Hs:
            bound = math.exp(family.phi(np.concatenate([h, H.ravel()]), mu))
            det = QuadDetector(h=h, H=H, a=0.0, risk=bound)
            seed += 1
            rep = mc_detector_risk(
                det, gaussian_sampler(mean, Theta, seed), 2, 100_000)
            ok = ok and rep.passed
            details.append(f"{rep.estimate / bound:.4f}")
    verdict(10, "lifted exponential moment bound verified by MC",
            ok, "estimate/bound ratios " + " ".join(details))


def test_criterion_11_calculus_coherence():
    g1 = gaussian_point_family([0.4], [[1.2]])
    g2 = gaussian_point_family([-0.2], [[0.7]])
    g3 = gaussian_point_family([0.1], [[1.0]])
    pois = poisson_family(singleton([2.0, 1.0]))
    rng = np.random.default_rng(1111)

    # blockwise sum, repetition scaling, and linear reparametrization
    ds = direct_sum([g1, pois])
    mu_ds = ds.m_set.project(np.zeros(ds.m_set.dim))
    ident = 0.0
    for _ in range(20):
        h = rng.normal(size=3)
        n = g1.m_set.dim
        want = g1.phi(h[:1], mu_ds[:n]) + pois.phi(h[1:], mu_ds[n:])
        ident = max(ident, abs(ds.phi(h, mu_ds) - want))

    lam = np.array([0.5, 1.5, 1.0])
    rep = iid_scale(g1, lam)
    mu_g = g1.m_set.project(np.zeros(g1.m_set.dim))
    for _ in range(20):
        h = rng.normal(size=1)
        want = sum(g1.phi(lk * h, mu_g) for lk in lam)
        ident = max(ident, abs(rep.phi(h, mu_g) - want))

    M = rng.normal(size=(3, 2))
    off = rng.normal(size=3)
    base = direct_sum([g1, g2])
    mu_b = base.m_set.project(np.zeros(base.m_set.dim))
    img = affine_image(base, M, off)
    for _ in range(20):
        hb = rng.normal(size=3)
        want = base.phi(M.T @ hb, mu_b) + float(off @ hb)
        ident = max(ident, abs(img.phi(hb, mu_b) - want))

    # worst-case dependence: inner optimum vs simplex grid
    def gphi(theta, var, z):
        return theta * z + 0.5 * var * z * z

    brute_err = 0.0
    semi2 = semi_direct_sum([g1, g2])
    mu2 = semi2.m_set.project(np.zeros(semi2.m_set.dim))
    eps2 = semi2.meta["eps"]
    for h in ([0.5, -0.3], [1.1, 0.8], [-0.2, -0.9]):
        t = np.linspace(eps2, 1.0 - eps2, 4001)
        vals = (t * gphi(0.4, 1.2, h[0] / t)
                + (1.0 - t) * gphi(-0.2, 0.7, h[1] / (1.0 - t)))
        brute_err = max(brute_err,
                        abs(semi2.phi(np.asarray(h), mu2) - float(vals.min())))

    semi3 = semi_direct_sum([g1, g2, g3])
    mu3 = semi3.m_set.project(np.zeros(semi3.m_set.dim))
    eps3 = semi3.meta["eps"]
    w1 = np.arange(eps3, 1.0, 0.002)
    W1, W2 = np.meshgrid(w1, w1, indexing="ij")
    W3 = 1.0 - W1 - W2
    mask = W3 >= eps3
    W1, W2, W3 = W1[mask], W2[mask], W3[mask]
    for h in ([0.5, -0.3, 0.2], [-0.7, 0.4, 1.0]):
        vals = (W1 * gphi(0.4, 1.2, h[0] / W1)
                + W2 * gphi(-0.2, 0.7, h[1] / W2)
                + W3 * gphi(0.1, 1.0, h[2] / W3))
        brute_err = max(brute_err,
                        abs(semi3.phi(np.asarray(h), mu3) - float(vals.min())))

    # support refinement never exceeds either of its two ceilings
    support = box([-1.0], [1.0])
    shifts = box([-2.0], [2.0])
    refined = refine_with_support(g1, support, shifts)
    refine_ok = True
    for h in np.linspace(-1.8, 1.8, 13):
        hv = np.array([h])
        val = refined.phi(hv, mu_g)
        refine_ok = refine_ok and val <= g1.phi(hv, mu_g) + 1e-12
        refine_ok = refine_ok and val <= support.support(hv)[0] + 1e-12

    verdict(11, "family calculus identities and inner optima",
            ident <= 1e-12 and brute_err <= 1e-4 and refine_ok,
            f"identity err {ident:.1e}, grid err {brute_err:.1e}")


def test_criterion_12_byte_identical_reports(tmp_path):
    cfg = {
        "schema_version": "1",
        "task": "simulate",
        "seed": 2024,
        "simulate": {
            "detector": {"h": [1.0, 0.0], "a": -1.0, "risk": math.exp(-0.5)},
            "sampler": {"kind": "gaussian", "mean": [2.0, 0.0],
                        "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "side": 1,
            "n": 50_000,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    blobs = []
    for name in ("r1", "r2", "r3"):
        code = cli_main(["--config", str(path), "--out",
                         str(tmp_path / name)])
        assert code == 0
        blobs.append((tmp_path / f"{name}.json").read_bytes())
    same = blobs[0] == blobs[1] == blobs[2]
    verdict(12, "reports are byte-identical across runs", same,
            f"{len(blobs[0])} bytes")
