"""Independent lower bounds on certified pairwise risks.

For any detector phi and any two distributions P, Q,

    max(E_P e^{-phi}, E_Q e^{phi}) >= sqrt(E_P e^{-phi} E_Q e^{phi})
                                   >= integral sqrt(dP dQ)

by Cauchy-Schwarz, so the Hellinger affinity of any member of the first
family and any member of the second is a lower bound on every certified
risk for that pair.  The functions here pick members that make the bound
tight (the closest pair in the right metric) and return the affinity.  A
certificate below the reference is unsound; the ratio certificate /
reference measures how much a certificate leaves on the table.

Only numpy and scipy are used, never the package under test, so a change
to the package cannot move its own yardstick.  Every returned value is the
affinity at a feasible point: an optimizer that stops early makes the
reference smaller (safer), never larger.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize


def _box(desc: dict):
    if desc["type"] == "singleton":
        p = np.asarray(desc["point"], dtype=float)
        return p, p
    if desc["type"] == "box":
        return np.asarray(desc["lo"], float), np.asarray(desc["hi"], float)
    raise ValueError(f"no reference for set type {desc['type']!r}")


def _top_cov(desc) -> np.ndarray:
    # a psd interval contains its upper end, which dominates the others
    if isinstance(desc, dict):
        return np.asarray(desc["hi"], dtype=float)
    return np.asarray(desc, dtype=float)


def _closest(lo1, hi1, lo2, hi2, P, M1=None, M2=None, c1=None, c2=None):
    """Feasible (u, v) approximately minimising r' P r, r = (M1 u + c1) - (M2 v + c2)."""
    n1, n2 = lo1.size, lo2.size
    M1 = np.eye(n1) if M1 is None else M1
    M2 = np.eye(n2) if M2 is None else M2
    c1 = np.zeros(M1.shape[0]) if c1 is None else c1
    c2 = np.zeros(M2.shape[0]) if c2 is None else c2

    def f(z):
        r = M1 @ z[:n1] + c1 - M2 @ z[n1:] - c2
        g = 2.0 * (P @ r)
        return float(r @ P @ r), np.concatenate([M1.T @ g, -(M2.T @ g)])

    z0 = np.concatenate([0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)])
    bounds = list(zip(np.concatenate([lo1, lo2]), np.concatenate([hi1, hi2])))
    res = minimize(f, z0, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
    z = np.clip(res.x, [b[0] for b in bounds], [b[1] for b in bounds])
    return z[:n1], z[n1:]


def gaussian_affinity(m1, S1, m2, S2) -> float:
    """Bhattacharyya coefficient of N(m1, S1) and N(m2, S2)."""
    S = 0.5 * (S1 + S2)
    d = np.asarray(m1, float) - np.asarray(m2, float)
    _, ld1 = np.linalg.slogdet(S1)
    _, ld2 = np.linalg.slogdet(S2)
    _, ld = np.linalg.slogdet(S)
    return float(np.exp(0.25 * (ld1 + ld2) - 0.5 * ld
                        - 0.125 * d @ np.linalg.solve(S, d)))


def gaussian_boxes(fam1: dict, fam2: dict) -> float:
    """Gaussian or sub-Gaussian families over box means, shared covariance.

    This is the closed form of the optimal detector for such pairs
    (exp(-delta^2 / 2) at the closest means in the precision metric).
    """
    S1, S2 = _top_cov(fam1["cov"]), _top_cov(fam2["cov"])
    lo1, hi1 = _box(fam1["mean"])
    lo2, hi2 = _box(fam2["mean"])
    u, v = _closest(lo1, hi1, lo2, hi2, np.linalg.inv(0.5 * (S1 + S2)))
    return gaussian_affinity(u, S1, v, S2)


def poisson_boxes(fam1: dict, fam2: dict) -> float:
    """Poisson families over rate boxes: exp(-sum (sqrt a - sqrt b)^2 / 2)
    at the coordinate-wise closest rates, which is exact."""
    lo1, hi1 = _box(fam1["rates"])
    lo2, hi2 = _box(fam2["rates"])
    gap = np.where(hi1 < lo2, np.sqrt(lo2) - np.sqrt(hi1),
                   np.where(lo1 > hi2, np.sqrt(lo1) - np.sqrt(hi2), 0.0))
    return float(np.exp(-0.5 * np.sum(gap ** 2)))


def _simplex_bounds(desc: dict):
    if desc["type"] == "singleton":
        p = np.asarray(desc["point"], dtype=float)
        return p, p
    if desc["type"] == "simplex":
        n = int(desc["dim"])
        lo = np.asarray(desc.get("lo", np.zeros(n)), dtype=float)
        hi = np.asarray(desc.get("hi", np.ones(n)), dtype=float)
        return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)
    raise ValueError(f"no reference for set type {desc['type']!r}")


def _tilted(w, lo, hi):
    """argmax of sum sqrt(w q) over {lo <= q <= hi, sum q = 1}.

    The optimality conditions give q = clip(c w, lo, hi) for the scale c at
    which the sum is one, found by bisection.
    """
    c_lo, c_hi = 0.0, 1.0
    while np.clip(c_hi * w, lo, hi).sum() < 1.0 and c_hi < 1e300:
        c_hi *= 2.0
    for _ in range(200):
        c = 0.5 * (c_lo + c_hi)
        if np.clip(c * w, lo, hi).sum() < 1.0:
            c_lo = c
        else:
            c_hi = c
    return np.clip(c_hi * w, lo, hi)


def discrete_sets(fam1: dict, fam2: dict) -> float:
    """Discrete families: the Hellinger affinity sum sqrt(p q), maximised
    over two box-restricted simplices by alternating exact maximisation
    (exact at once when a side is a singleton)."""
    lo1, hi1 = _simplex_bounds(fam1["probs"])
    lo2, hi2 = _simplex_bounds(fam2["probs"])
    p = _tilted(np.ones_like(lo1), lo1, hi1)
    best = 0.0
    for _ in range(100):
        q = _tilted(p, lo2, hi2)
        p = _tilted(q, lo1, hi1)
        best = max(best, float(np.sum(np.sqrt(p * q))))
    return best


def _cov_candidates(desc):
    if isinstance(desc, dict):
        lo, hi = np.asarray(desc["lo"], float), np.asarray(desc["hi"], float)
        return [lo, 0.5 * (lo + hi), hi]
    return [np.asarray(desc, dtype=float)]


def quadlift_pair(block: dict) -> float:
    """Gaussian members N(A [u; 1], Theta) of the two lifted hypotheses:
    the largest affinity over covariance endpoints and midpoints, at the
    closest means for each covariance choice."""
    A1, A2 = np.asarray(block["A1"], float), np.asarray(block["A2"], float)
    lo1, hi1 = _box(block["U1"])
    lo2, hi2 = _box(block["U2"])
    best = 0.0
    for S1 in _cov_candidates(block["cov1"]):
        for S2 in _cov_candidates(block["cov2"]):
            P = np.linalg.inv(0.5 * (S1 + S2))
            u, v = _closest(lo1, hi1, lo2, hi2, P, A1[:, :-1], A2[:, :-1],
                            A1[:, -1], A2[:, -1])
            best = max(best, gaussian_affinity(A1[:, :-1] @ u + A1[:, -1], S1,
                                               A2[:, :-1] @ v + A2[:, -1], S2))
    return best
