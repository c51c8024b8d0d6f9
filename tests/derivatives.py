"""Finite-difference derivatives, used by the tests as oracles.

Central steps of 1e-5 * max(1, |x_i|) carry a truncation error of about
1e-5 relative where the function curves sharply (large-count rows), so
tests that need more digits Richardson-extrapolate two step sizes.
"""

import numpy as np

from nmixfit import NumericError, ParameterVector, table_loglik


def finite_diff_gradient(f, x, rel_step=1e-5):
    """Central-difference gradient with per-coordinate steps rel_step * max(1, |x_i|).

    For a vector-valued ``f`` row i holds the derivatives along x_i.
    """
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        up = x.copy()
        up[i] += h
        down = x.copy()
        down[i] -= h
        f_up, f_down = np.asarray(f(up)), np.asarray(f(down))
        if not (np.all(np.isfinite(f_up)) and np.all(np.isfinite(f_down))):
            raise NumericError(
                f"non-finite objective while probing coordinate {i} with step {h:.3g}"
            )
        rows.append((f_up - f_down) / (2.0 * h))
    return np.array(rows)


def richardson_gradient(f, x):
    """Central differences at steps 1e-5 and 2e-5, extrapolated to remove
    their leading truncation error."""
    return (4.0 * finite_diff_gradient(f, x, 1e-5) - finite_diff_gradient(f, x, 2e-5)) / 3.0


def finite_diff_hessian(f, x, rel_step=1e-5):
    """Central-difference Hessian, symmetrised as (H + H^T)/2."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    f0 = f(x)
    if not np.isfinite(f0):
        raise NumericError("non-finite objective at the Hessian expansion point")
    hess = np.empty((n, n))

    def probe(shift):
        val = f(x + shift)
        if not np.isfinite(val):
            raise NumericError(f"non-finite objective while probing Hessian shift {shift}")
        return val

    for i in range(n):
        e = np.zeros(n)
        e[i] = h[i]
        hess[i, i] = (probe(e) - 2.0 * f0 + probe(-e)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            hess[i, j] = (
                probe(e + ej) - probe(e - ej) - probe(-e + ej) + probe(-e - ej)
            ) / (4.0 * h[i] * h[j])
            hess[j, i] = hess[i, j]
    return 0.5 * (hess + hess.T)


def numeric_gradient(params, table, designs, family):
    """Gradient of table_loglik in the stacked (beta, alpha, log_theta) order."""
    p_lam, p_det = designs.p_lambda, designs.p_detect

    def f(x):
        pv = ParameterVector.from_array(x, p_lam, p_det, family.has_dispersion)
        return table_loglik(pv, table, designs, family)

    return finite_diff_gradient(f, params.to_array())
