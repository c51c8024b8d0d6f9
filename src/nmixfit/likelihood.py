"""Marginal log-likelihood of repeated counts with latent abundance.

Each table row contributes an infinite series over the latent abundance N:

    L = sum_{N >= y*} D(N) * prod_j Binomial(y_j; N, p_j),    y* = max_j y_j

with D either Poisson or negative binomial.  Instead of summing log-pmf
terms, the series is evaluated through consecutive term ratios

    r(N) = D(N)/D(N-1) * prod_j [N / (N - y_j)] * (1 - p_j)

which are cheap rational expressions, so L = g(y*) * S with
S = 1 + r(y*+1) + r(y*+1) r(y*+2) + ...  Only the single leading term
g(y*) needs log-pmf machinery.  The series is cut off adaptively: the
tail after N is bounded by a geometric series with ratio

    q(N) = prod_j [N / (N - y_j)](1 - p_j) * max(d(N), d_inf)

(d is the mixing-density ratio, d_inf its limit), and summation stops
once that bound drops below ``relative_increment_floor`` times the
partial sum.  The bound is valid because the survey factor decreases in
N while d is monotone toward d_inf, so q(N) dominates every later ratio.

Rows are processed in vectorised blocks of geometrically growing width;
rows whose running products overflow double precision are redone in log
space with the same stopping rule.  On request the same pass also
accumulates the posterior moments of N that the exact score needs (see
:func:`table_loglik_score`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, logsumexp
from scipy.stats import binom, nbinom, poisson

from .errors import ModelError, NumericError
from .model import (
    P_CLAMP,
    DesignMatrices,
    MixtureFamily,
    ObservationTable,
    ParameterVector,
    detection_probs,
    lambda_values,
)

_BLOCK_START = 32
_BLOCK_MAX = 4096

# The geometric tail bound is compared against half the policy floor, so
# the discarded mass stays strictly below the floor even when the bound
# is nearly sharp.
_TAIL_SAFETY = 0.5


@dataclass(frozen=True)
class TruncationPolicy:
    """Adaptive stopping rule for the latent-abundance series.

    ``relative_increment_floor`` bounds the relative mass of the
    discarded tail; ``hard_cap_offset`` caps the number of terms past
    max(y) regardless, guarding against divergent inputs.
    """

    relative_increment_floor: float = 1e-12
    hard_cap_offset: int = 10000

    def __post_init__(self):
        if not (0.0 < self.relative_increment_floor < 1.0):
            raise ModelError("relative_increment_floor must lie in (0, 1)")
        if self.hard_cap_offset < 1:
            raise ModelError("hard_cap_offset must be a positive integer")


DEFAULT_TRUNCATION = TruncationPolicy()


@dataclass(frozen=True)
class RowLikelihoodInput:
    """Observed surveys of one row: counts, detection probs, mixing parameters.

    Only surveys that actually happened belong here; a missing survey
    simply contributes no binomial factor.  ``theta`` is None for the
    Poisson mixture and the negative binomial size otherwise.
    """

    y: np.ndarray
    p: np.ndarray
    lam: float
    theta: float | None = None

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if y.shape != p.shape or y.ndim != 1 or y.size < 1:
            raise ModelError("y and p must be 1-d arrays of equal positive length")
        if np.any(y < 0) or np.any(y != np.floor(y)) or not np.all(np.isfinite(y)):
            raise ModelError("counts must be non-negative integers")
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ModelError("detection probabilities must lie strictly in (0, 1)")
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ModelError("lam must be a positive finite number")
        if self.theta is not None and not (np.isfinite(self.theta) and self.theta > 0.0):
            raise ModelError("theta must be positive and finite, or None")
        arr_y = y.copy()
        arr_y.setflags(write=False)
        arr_p = p.copy()
        arr_p.setflags(write=False)
        object.__setattr__(self, "y", arr_y)
        object.__setattr__(self, "p", arr_p)
        object.__setattr__(self, "lam", float(self.lam))
        if self.theta is not None:
            object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class RowLikelihoodDetail:
    loglik: float
    n_terms: int
    n_max: int


def _log_poisson_pmf(n, lam):
    return n * np.log(lam) - lam - gammaln(n + 1.0)


def _log_negbin_pmf(n, theta, lam):
    # size/mean form: success probability theta / (theta + lam)
    return (
        gammaln(n + theta)
        - gammaln(theta)
        - gammaln(n + 1.0)
        + theta * np.log(theta / (theta + lam))
        + n * np.log(lam / (theta + lam))
    )


def _log_binom_pmf(y, n, p):
    return (
        gammaln(n + 1.0)
        - gammaln(y + 1.0)
        - gammaln(n - y + 1.0)
        + y * np.log(p)
        + (n - y) * np.log1p(-p)
    )


def log_count_density(n, lam, theta=None):
    """Log pmf of the mixing distribution, vectorised over ``n``."""
    n = np.asarray(n, dtype=float)
    if theta is None:
        return _log_poisson_pmf(n, lam)
    return _log_negbin_pmf(n, theta, lam)


def _leading_log_term(ystar, counts, mask, lam, p, theta):
    """log g(y*): mixing pmf at y* times every observed binomial factor."""
    if theta is None:
        lead = _log_poisson_pmf(ystar, lam)
    else:
        lead = _log_negbin_pmf(ystar, theta, lam)
    n_surveys = counts.shape[1]
    for j in range(n_surveys):
        m = mask[:, j]
        if np.any(m):
            lead = lead + np.where(
                m, _log_binom_pmf(counts[:, j], ystar, np.where(m, p[:, j], 0.5)), 0.0
            )
    return lead


def _ratio_parts(n_grid, counts, mask, lam, p, theta):
    """Density ratio d(N) and survey factor prod_j [N/(N-y_j)](1-p_j)."""
    if theta is None:
        dens = lam[:, None] / n_grid
    else:
        dens = ((n_grid - 1.0 + theta) / n_grid) * (lam / (theta + lam))[:, None]
    survey = None
    for j in range(counts.shape[1]):
        m = mask[:, j]
        factor = (n_grid / (n_grid - counts[:, j][:, None])) * (1.0 - p[:, j][:, None])
        if not m.all():
            factor = np.where(m[:, None], factor, 1.0)
        survey = factor if survey is None else survey * factor
    return dens, survey


def _batch_loglik(counts, mask, lam, p, theta, trunc):
    """Log-likelihood and chosen N_max for every row of a count table.

    ``counts``/``mask``/``p`` have shape (n_rows, n_surveys); ``lam`` has
    shape (n_rows,); ``theta`` is a scalar or None.  Missing cells must
    be masked False (their count values are ignored).
    """
    ll, n_max, _ = _batch_series(counts, mask, lam, p, theta, trunc, moments=False)
    return ll, n_max


def _batch_series(counts, mask, lam, p, theta, trunc, moments):
    """Row log-likelihoods, N_max and, if ``moments``, posterior moments.

    The moments are E[N | y] and, for the NB family,
    E[psi(N + theta) | y] - psi(theta), accumulated in the same pass as
    the series: with terms t_k at N = y* + k, E[N] = y* + sum k t_k / S,
    and psi(y* + k + theta) = psi(y* + theta) + h_k where h_k is the
    running sum of 1 / (N - 1 + theta).  Returns (ll, n_max, None) or
    (ll, n_max, (mean_n, mean_dpsi)); ``mean_dpsi`` is None for Poisson.
    """
    n_rows = counts.shape[0]
    ystar = np.max(np.where(mask, counts, -np.inf), axis=1)
    lead = _leading_log_term(ystar, counts, mask, lam, p, theta)
    d_inf = 0.0 if theta is None else lam / (theta + lam)
    with_h = moments and theta is not None

    part_sum = np.ones(n_rows)
    carry = np.ones(n_rows)
    # sum of k t_k, sum of h_k t_k, and h at the end of the last block
    sum_k = np.zeros(n_rows)
    sum_h = np.zeros(n_rows)
    carry_h = np.zeros(n_rows)
    n_max = ystar.astype(float).copy()
    fallback = np.zeros(n_rows, dtype=bool)
    # rows whose moment sums overflow while their series does not: only
    # their moments are redone in log space
    moment_fallback = np.zeros(n_rows, dtype=bool)
    active = np.arange(n_rows)
    floor = _TAIL_SAFETY * trunc.relative_increment_floor

    # size the first block near the 95th percentile of the expected
    # stopping offset so most rows finish in a single vectorised pass
    thinned = lam * np.exp(np.sum(np.log1p(-p, where=mask, out=np.zeros_like(p)), axis=1))
    estimate = thinned + 6.0 * np.sqrt(thinned + 1.0) + 16.0
    block = int(np.clip(np.percentile(estimate, 95.0), _BLOCK_START, _BLOCK_MAX))

    offset = 0
    while active.size and offset < trunc.hard_cap_offset:
        all_active = active.size == n_rows
        width = min(block, trunc.hard_cap_offset - offset)
        steps = offset + np.arange(1, width + 1, dtype=float)
        if all_active:
            ys, cs, ms, lm, ps = ystar, counts, mask, lam, p
            cr, sm = carry, part_sum
        else:
            ys, cs, ms, lm, ps = ystar[active], counts[active], mask[active], lam[active], p[active]
            cr, sm = carry[active], part_sum[active]
        n_grid = ys[:, None] + steps[None, :]
        dens, survey = _ratio_parts(n_grid, cs, ms, lm, ps, theta)
        ratio = dens * survey
        if theta is None:
            # Poisson d(N) decreases toward 0, so the ratio bounds itself
            q_bound = ratio
        else:
            dlim = (d_inf if all_active else d_inf[active])[:, None]
            q_bound = survey * np.maximum(dens, dlim)
        # overflow here is expected for extreme inputs; such rows are
        # detected below and redone in log space
        with np.errstate(over="ignore", invalid="ignore"):
            cum = cr[:, None] * np.cumprod(ratio, axis=1)
            running = sm[:, None] + np.cumsum(cum, axis=1)

        bad = ~np.isfinite(running[:, -1])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tail = cum * (q_bound / (1.0 - q_bound))
        stop = (q_bound < 1.0) & (tail <= floor * running)
        if bad.any():
            stop &= ~bad[:, None]
        stopped = stop.any(axis=1)
        first = np.argmax(stop, axis=1)

        rows_done = active[stopped]
        part_sum[rows_done] = running[stopped, first[stopped]]
        n_max[rows_done] = ystar[rows_done] + offset + first[stopped] + 1.0

        fallback[active[bad]] = True

        keep = ~stopped & ~bad
        rows_kept = active[keep]
        part_sum[rows_kept] = running[keep, -1]
        carry[rows_kept] = cum[keep, -1]
        n_max[rows_kept] = ystar[rows_kept] + offset + width

        if moments:
            # rows x block each: drop the dead ones so the moment sums do
            # not raise the block's peak memory
            del dens, survey, ratio, tail
            with np.errstate(over="ignore", invalid="ignore"):
                run_k = cum * steps
                np.cumsum(run_k, axis=1, out=run_k)
                run_k += sum_k[active, None]
                spilled = ~np.isfinite(run_k[:, -1])
                sum_k[rows_done] = run_k[stopped, first[stopped]]
                sum_k[rows_kept] = run_k[keep, -1]
                if with_h:
                    run_h = n_grid + (theta - 1.0)
                    np.reciprocal(run_h, out=run_h)
                    np.cumsum(run_h, axis=1, out=run_h)
                    run_h += carry_h[active, None]
                    carry_h[rows_kept] = run_h[keep, -1]
                    run_h *= cum
                    np.cumsum(run_h, axis=1, out=run_h)
                    run_h += sum_h[active, None]
                    spilled |= ~np.isfinite(run_h[:, -1])
                    sum_h[rows_done] = run_h[stopped, first[stopped]]
                    sum_h[rows_kept] = run_h[keep, -1]
            moment_fallback[active[spilled]] = True
        if offset + width >= trunc.hard_cap_offset and rows_kept.size:
            growing = q_bound[keep, -1] >= 1.0
            if np.any(growing):
                row = int(rows_kept[np.argmax(growing)])
                raise NumericError(
                    f"latent-abundance series still growing at the hard cap for row {row} "
                    f"(lam={lam[row]:.6g}, max count={ystar[row]:.0f}); "
                    "the mixture is divergent for these inputs"
                )
        active = rows_kept
        offset += width
        block = min(block * 2, _BLOCK_MAX)

    out = lead + np.log(part_sum)
    stats = None
    if moments:
        # rows redone in log space hold inf or nan here and are overwritten below
        with np.errstate(invalid="ignore"):
            mean_n = ystar + sum_k / part_sum
            mean_dpsi = (
                digamma(ystar + theta) - digamma(theta) + sum_h / part_sum if with_h else None
            )
        stats = (mean_n, mean_dpsi)
    redo = fallback | moment_fallback
    if np.any(redo):
        rows = np.flatnonzero(redo)
        ll_fb, nmax_fb, stats_fb = _batch_series_logspace(
            counts[rows], mask[rows], lam[rows], p[rows], theta, trunc, moments
        )
        value_rows = fallback[rows]
        out[rows[value_rows]] = ll_fb[value_rows]
        n_max[rows[value_rows]] = nmax_fb[value_rows]
        if moments:
            stats[0][rows] = stats_fb[0]
            if with_h:
                stats[1][rows] = stats_fb[1]
    return out, n_max.astype(int), stats


def _batch_series_logspace(counts, mask, lam, p, theta, trunc, moments):
    """Same series, stopping rule and moments, accumulated in log space.

    Slow path for rows whose running products overflow linear doubles
    (very large counts or means).  Kept structurally parallel to the
    linear path so both obey the same truncation policy.
    """
    n_rows = counts.shape[0]
    ystar = np.max(np.where(mask, counts, -np.inf), axis=1)
    lead = _leading_log_term(ystar, counts, mask, lam, p, theta)
    d_inf = 0.0 if theta is None else lam / (theta + lam)
    with_h = moments and theta is not None

    log_sum = np.zeros(n_rows)
    log_carry = np.zeros(n_rows)
    # logs of sum k t_k and sum h_k t_k; the k = 0 term adds nothing to either
    log_sum_k = np.full(n_rows, -np.inf)
    log_sum_h = np.full(n_rows, -np.inf)
    carry_h = np.zeros(n_rows)
    n_max = ystar.astype(float).copy()
    active = np.arange(n_rows)
    log_floor = np.log(_TAIL_SAFETY * trunc.relative_increment_floor)

    def log_accumulate(start, log_terms):
        stacked = np.concatenate([start[:, None], log_terms], axis=1)
        return np.logaddexp.accumulate(stacked, axis=1)[:, 1:]

    offset = 0
    block = _BLOCK_START
    while active.size and offset < trunc.hard_cap_offset:
        width = min(block, trunc.hard_cap_offset - offset)
        steps = offset + np.arange(1, width + 1, dtype=float)
        n_grid = ystar[active, None] + steps[None, :]
        dens, survey = _ratio_parts(
            n_grid, counts[active], mask[active], lam[active], p[active], theta
        )
        if theta is None:
            q_bound = dens * survey
        else:
            q_bound = survey * np.maximum(dens, d_inf[active, None])
        log_cum = log_carry[active, None] + np.cumsum(np.log(dens) + np.log(survey), axis=1)
        log_running = log_accumulate(log_sum[active], log_cum)

        with np.errstate(divide="ignore", invalid="ignore"):
            log_tail = np.where(
                q_bound < 1.0, log_cum + np.log(q_bound) - np.log1p(-q_bound), np.inf
            )
        stop = log_tail <= log_floor + log_running
        stopped = stop.any(axis=1)
        first = np.argmax(stop, axis=1)

        rows_done = active[stopped]
        log_sum[rows_done] = log_running[stopped, first[stopped]]
        n_max[rows_done] = ystar[rows_done] + offset + first[stopped] + 1.0

        rows_kept = active[~stopped]
        log_sum[rows_kept] = log_running[~stopped, -1]
        log_carry[rows_kept] = log_cum[~stopped, -1]
        n_max[rows_kept] = ystar[rows_kept] + offset + width
        if moments:
            log_run_k = log_accumulate(log_sum_k[active], log_cum + np.log(steps))
            log_sum_k[rows_done] = log_run_k[stopped, first[stopped]]
            log_sum_k[rows_kept] = log_run_k[~stopped, -1]
        if with_h:
            h = carry_h[active, None] + np.cumsum(1.0 / (n_grid + (theta - 1.0)), axis=1)
            carry_h[rows_kept] = h[~stopped, -1]
            log_run_h = log_accumulate(log_sum_h[active], log_cum + np.log(h))
            log_sum_h[rows_done] = log_run_h[stopped, first[stopped]]
            log_sum_h[rows_kept] = log_run_h[~stopped, -1]
        if offset + width >= trunc.hard_cap_offset and rows_kept.size:
            growing = q_bound[~stopped, -1] >= 1.0
            if np.any(growing):
                row = int(rows_kept[np.argmax(growing)])
                raise NumericError(
                    f"latent-abundance series still growing at the hard cap for row {row} "
                    f"(lam={lam[row]:.6g}, max count={ystar[row]:.0f}); "
                    "the mixture is divergent for these inputs"
                )
        active = rows_kept
        offset += width
        block = min(block * 2, _BLOCK_MAX)

    stats = None
    if moments:
        mean_n = ystar + np.exp(log_sum_k - log_sum)
        mean_dpsi = (
            digamma(ystar + theta) - digamma(theta) + np.exp(log_sum_h - log_sum)
            if with_h
            else None
        )
        stats = (mean_n, mean_dpsi)
    return lead + log_sum, n_max.astype(int), stats


def row_loglik_recursive(
    row: RowLikelihoodInput, trunc: TruncationPolicy = DEFAULT_TRUNCATION
) -> float:
    """Marginal log-likelihood of one row via the ratio recursion.

    Parameters
    ----------
    row : RowLikelihoodInput
        Observed counts, detection probabilities and mixing parameters.
    trunc : TruncationPolicy
        Stopping rule for the latent-abundance series.

    Returns
    -------
    float
        log L, finite for all valid inputs.

    Raises
    ------
    NumericError
        If the series is still growing when the hard cap is reached.
    """
    return row_loglik_detail(row, trunc).loglik


def row_loglik_detail(
    row: RowLikelihoodInput, trunc: TruncationPolicy = DEFAULT_TRUNCATION
) -> RowLikelihoodDetail:
    """Like :func:`row_loglik_recursive` but also reports the truncation point."""
    counts = row.y[None, :]
    mask = np.ones_like(counts, dtype=bool)
    ll, n_max = _batch_loglik(
        counts, mask, np.array([row.lam]), row.p[None, :], row.theta, trunc
    )
    n_terms = int(n_max[0] - np.max(row.y) + 1)
    return RowLikelihoodDetail(loglik=float(ll[0]), n_terms=n_terms, n_max=int(n_max[0]))


def row_loglik_bruteforce(row: RowLikelihoodInput, n_max: int) -> float:
    """Direct log-sum-exp over the latent abundance, for cross-checking.

    Deliberately built from scipy's distribution pmfs rather than the
    recursion's own helpers, so the two routes share no code.
    """
    ystar = int(np.max(row.y))
    n_max = int(n_max)
    if n_max < ystar:
        raise ModelError(f"n_max={n_max} is below the largest count {ystar}")
    grid = np.arange(ystar, n_max + 1)
    if row.theta is None:
        terms = poisson.logpmf(grid, row.lam)
    else:
        terms = nbinom.logpmf(grid, row.theta, row.theta / (row.theta + row.lam))
    for j in range(row.y.size):
        terms = terms + binom.logpmf(row.y[j], grid, row.p[j])
    return float(logsumexp(terms))


def _bruteforce_table(counts, mask, lam, p, theta, n_max):
    """Vectorised brute-force row log-likelihoods over per-row grids.

    Each row's grid runs from its own max(y) to its entry of ``n_max``,
    so the term count matches what the recursion summed.
    """
    ystar = np.max(np.where(mask, counts, -np.inf), axis=1)
    n_max = np.asarray(n_max, dtype=float)
    width = int(np.max(n_max - ystar)) + 1
    grid = ystar[:, None] + np.arange(width, dtype=float)[None, :]
    if theta is None:
        terms = poisson.logpmf(grid, lam[:, None])
    else:
        terms = nbinom.logpmf(grid, theta, theta / (theta + lam[:, None]))
    for j in range(counts.shape[1]):
        col = binom.logpmf(counts[:, j][:, None], grid, p[:, j][:, None])
        if mask[:, j].all():
            terms = terms + col
        else:
            terms = terms + np.where(mask[:, j][:, None], col, 0.0)
    valid = grid <= n_max[:, None]
    return logsumexp(np.where(valid, terms, -np.inf), axis=1)


def _check_model_dims(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
) -> None:
    if designs.n_rows != table.n_rows:
        raise ModelError(
            f"designs cover {designs.n_rows} rows but the table has {table.n_rows}"
        )
    if designs.n_surveys != table.n_surveys:
        raise ModelError(
            f"designs cover {designs.n_surveys} surveys but the table has {table.n_surveys}"
        )
    if family.has_dispersion and params.log_theta is None:
        raise ModelError("negative binomial family requires log_theta")
    if not family.has_dispersion and params.log_theta is not None:
        raise ModelError("Poisson family must not carry log_theta")


def table_loglik(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> float:
    """Total log-likelihood of a count table: the sum over row contributions."""
    _check_model_dims(params, table, designs, family)
    lam = lambda_values(params, designs)
    p = detection_probs(params, designs)
    theta = params.theta if family.has_dispersion else None
    ll, _ = _batch_loglik(table.filled_counts(), table.mask, lam, p, theta, trunc)
    return float(np.sum(ll))


def table_row_logliks(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> np.ndarray:
    """Per-row log-likelihood contributions, in table order."""
    _check_model_dims(params, table, designs, family)
    lam = lambda_values(params, designs)
    p = detection_probs(params, designs)
    theta = params.theta if family.has_dispersion else None
    ll, _ = _batch_loglik(table.filled_counts(), table.mask, lam, p, theta, trunc)
    return ll


def table_loglik_score(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> tuple[float, np.ndarray]:
    """Total log-likelihood and its exact score, from one kernel pass.

    By Fisher's identity the score of log L_i is the posterior mean,
    given the row's counts, of the complete-data score (Louis 1982).
    With m_i = E[N_i | y_i] the parts are, in the stacked (beta, alpha,
    log_theta) order:

    * beta: X^T theta (m - lam) / (theta + lam), or X^T (m - lam) for Poisson;
    * alpha: the sum over observed cells of (y_ij - m_i p_ij) W_ij, with
      no contribution from cells whose p is clamped at ``P_CLAMP``;
    * log_theta: theta sum_i [E psi(N_i + theta) - psi(theta)
      + log(theta / (theta + lam_i)) + (lam_i - m_i) / (theta + lam_i)].

    The value equals :func:`table_loglik` exactly.
    """
    _check_model_dims(params, table, designs, family)
    lam = lambda_values(params, designs)
    p = detection_probs(params, designs)
    theta = params.theta if family.has_dispersion else None
    counts, mask = table.filled_counts(), table.mask
    ll, _, (mean_n, mean_dpsi) = _batch_series(counts, mask, lam, p, theta, trunc, moments=True)

    if theta is None:
        d_eta_lam = mean_n - lam
    else:
        d_eta_lam = theta * (mean_n - lam) / (theta + lam)
    # clip() has zero slope where it binds, so clamped cells drop out
    free = mask & (p > P_CLAMP) & (p < 1.0 - P_CLAMP)
    d_eta_p = np.where(free, counts - mean_n[:, None] * p, 0.0)
    parts = [
        designs.abundance_design.T @ d_eta_lam,
        np.tensordot(d_eta_p, designs.detection_design, axes=([0, 1], [0, 1])),
    ]
    if theta is not None:
        d_theta = mean_dpsi + np.log(theta / (theta + lam)) + (lam - mean_n) / (theta + lam)
        parts.append(np.array([theta * np.sum(d_theta)]))
    return float(np.sum(ll)), np.concatenate(parts)


def finite_diff_gradient(f, x: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient with per-coordinate steps 1e-5 * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        up = x.copy()
        up[i] += h
        down = x.copy()
        down[i] -= h
        f_up, f_down = f(up), f(down)
        if not (np.isfinite(f_up) and np.isfinite(f_down)):
            raise NumericError(
                f"non-finite objective while probing coordinate {i} with step {h:.3g}"
            )
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


def finite_diff_hessian(f, x: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
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
            raise NumericError(
                f"non-finite objective while probing Hessian shift {shift}"
            )
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


def numeric_gradient(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> np.ndarray:
    """Gradient of table_loglik in the stacked (beta, alpha, log_theta) order."""
    p_lam, p_det = designs.p_lambda, designs.p_detect

    def f(x):
        pv = ParameterVector.from_array(x, p_lam, p_det, family.has_dispersion)
        return table_loglik(pv, table, designs, family, trunc)

    return finite_diff_gradient(f, params.to_array())


def numeric_hessian(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> np.ndarray:
    """Hessian of table_loglik in the stacked parameter order."""
    p_lam, p_det = designs.p_lambda, designs.p_detect

    def f(x):
        pv = ParameterVector.from_array(x, p_lam, p_det, family.has_dispersion)
        return table_loglik(pv, table, designs, family, trunc)

    return finite_diff_hessian(f, params.to_array())
