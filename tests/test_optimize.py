"""The projected first-order workhorse."""

import warnings

import numpy as np

from detector_forge.optimize import minimize_projected


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
