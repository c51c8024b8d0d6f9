"""Marginal log-likelihood of repeated counts with latent abundance.

Each table row contributes an infinite series over the latent abundance N:

    L = sum_{N >= y*} g(N),  g(N) = D(N) * prod_j Binomial(y_j; N, p_j),  y* = max_j y_j

with D either Poisson or negative binomial.  The series is evaluated
through consecutive term ratios, cheap rational expressions,

    r(N) = g(N)/g(N-1) = d(N) * prod_j [N / (N - y_j)] * (1 - p_j),  d = D(N)/D(N-1)

so L = g(s) * (1 + r(s+1) + r(s+1) r(s+2) + ...), with only g(s) taken
from log-pmfs and every term scaled to g(s).  Most rows start at s = y*;
a row whose mode may lie far above y*, or whose g(y*) is small enough
for a sum from y* to overflow, starts near its mode instead (see
:func:`_series_start`).  Geometric bounds cover the skipped terms:

* right of N_max, ratio q(N) = prod_j [N / (N - y_j)](1 - p_j) *
  max(d(N), d_inf) dominates every later ratio from any start, since
  the survey factor decreases in N and d is monotone toward d_inf;
* left of s, ratio 1 / r(s), since r decreases on (y*, inf) for every
  row whose start moves.

Summation stops once the right bound is below half of
``relative_increment_floor`` times the partial sum; a row whose left
bound is not that small is summed again from lower down.  There is one
summation path, in vectorised blocks over the rows.  Each row's stopping
point is estimated from its summand's mode and sd: the first block is as
wide as the median estimate, and each later one as the widest estimate
still open, at most doubling; the blocks reuse one set of buffers, and
a row's sum does not depend on where they end (see :func:`_sum_upward`).
A sum that leaves double range or a row that exhausts its term budget
raises ``NumericError`` naming the row.  The same pass can accumulate
the posterior moments of N that the exact score and Hessian need (see
:func:`table_loglik_hessian`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import digamma, gammaln, logsumexp, xlog1py, zeta
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

_BLOCK_MAX = 4096

# Each geometric tail bound is compared against half the policy floor,
# so the mass discarded on both sides together stays strictly below the
# floor even when the bounds are nearly sharp.
_TAIL_SAFETY = 0.5

# A moved row starts _START_SDS sds below the summand's mode, and only
# _MIN_SHIFT or more above y*, so rows near y* keep a plain sum's rounding.
_START_SDS = 9.0
_MIN_SHIFT = 64
# Summed from y*, terms scaled to g(y*) add up to L / g(y*) <= 1 / g(y*):
# no overflow while log g(y*) > -_LEAD_LIMIT, so rows below it always move.
_LEAD_LIMIT = 600.0
# Newton stops once every step in log(N - y*) is below _NEWTON_TOL.
_NEWTON_STEPS = 10
_NEWTON_TOL = 1e-3
# A row's series is expected to stop _STOP_SDS sds plus _STOP_MARGIN terms
# past its mode; the margin covers the skew of posteriors near y*.
_STOP_SDS = 8.0
_STOP_MARGIN = 4.0


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule and term budget for the latent-abundance series.

    ``relative_increment_floor`` bounds the relative mass discarded on
    both sides of the summed range.  ``hard_cap_offset`` is each row's
    term budget past its start; a row that exhausts it raises
    ``NumericError``.  The series always converges for p > 0, so that
    means the row's posterior is too wide, never that it diverges.
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
    """One row's log-likelihood and the range n_min..n_max of N summed."""

    loglik: float
    n_terms: int
    n_max: int
    n_min: int


def _log_binom_pmf(y, n, p):
    # xlog1py makes 0 * log(0) vanish, so p = 1 gives a point mass; p > 0
    # always, so y * log(p) needs no such guard
    return (
        gammaln(n + 1.0)
        - gammaln(y + 1.0)
        - gammaln(n - y + 1.0)
        + y * np.log(p)
        + xlog1py(n - y, -p)
    )


def log_count_density(n, lam, theta=None):
    """Log pmf of the mixing distribution, vectorised over ``n``: Poisson
    when ``theta`` is None, else negative binomial in size/mean form
    (success probability theta / (theta + lam))."""
    n = np.asarray(n, dtype=float)
    if theta is None:
        return n * np.log(lam) - lam - gammaln(n + 1.0)
    return (
        gammaln(n + theta) - gammaln(theta) - gammaln(n + 1.0)
        + theta * np.log(theta / (theta + lam)) + n * np.log(lam / (theta + lam))
    )


def _leading_log_term(start, counts, mask, lam, p, theta):
    """log g(s): mixing pmf at s times every observed binomial factor."""
    lead = log_count_density(start, lam, theta)
    for j in range(counts.shape[1]):
        m = mask[:, j]
        if np.any(m):
            lead = lead + np.where(
                m, _log_binom_pmf(counts[:, j], start, np.where(m, p[:, j], 0.5)), 0.0
            )
    return lead


def _take(rows, *inputs):
    """The per-row kernel inputs at ``rows``; a None or scalar theta passes through."""
    return tuple(a if np.ndim(a) == 0 else a[rows] for a in inputs)


def _ratio_parts(n_grid, y0, keep, lam, theta, work=None):
    """Term ratio r(N) = d(N) prod_j [N/(N-y_j)](1-p_j) on ``n_grid``, and
    a bound q(N) on every later ratio.

    ``y0`` and ``keep`` hold each cell's count and 1 - p, with 0 and 1 in
    missing cells, whose factor is then 1.  The bound is q = r for Poisson
    and for NB with theta >= 1 (d decreases), else the survey factor times
    d_inf = lam / (theta + lam), which d then rises toward.  ``work`` holds
    three buffers shaped like the result, which are overwritten, or is None.
    """
    if work is None:
        shape = np.broadcast_shapes(np.shape(n_grid), (y0.shape[0], 1))
        work = tuple(np.empty(shape) for _ in range(3))
    ratio, tmp, bound = work
    d_scale = lam if theta is None else lam / (theta + lam)
    for j in range(y0.shape[1]):
        np.subtract(n_grid, y0[:, j, None], out=tmp)
        if j == 0:
            np.divide(n_grid, tmp, out=ratio)
            ratio *= (keep[:, 0] * d_scale)[:, None]
        else:
            np.divide(n_grid, tmp, out=tmp)
            tmp *= keep[:, j, None]
            ratio *= tmp
    if theta is None:
        ratio /= n_grid
        return ratio, ratio
    th = theta if np.ndim(theta) == 0 else theta[:, None]
    np.add(n_grid, th - 1.0, out=tmp)
    tmp /= n_grid
    if np.all(theta >= 1.0):
        ratio *= tmp
        return ratio, ratio
    np.maximum(tmp, 1.0, out=bound)
    bound *= ratio
    ratio *= tmp
    return ratio, bound


def _log_ratio(n, y0, base, theta, slope=False):
    """log r(N) at one N per row and, if ``slope``, its derivative in N.

    ``y0`` has missing cells set to 0; ``base`` is log r's part free of N.
    The survey factors (each >= 1) are multiplied before the one log, so
    an overflowing product gives inf, which still says r >= 1.
    """
    col = n[:, None]
    frac = col / (col - y0)
    dens = 1.0 / n if theta is None else (n + (theta - 1.0)) / n
    f = base + np.log(np.multiply.reduce(frac, axis=1) * dens)
    if not slope:
        return f
    # d/dN log[N / (N - y)] = (1 - N / (N - y)) / N
    df = (frac.shape[1] - np.add.reduce(frac, axis=1)) / n
    df += -1.0 / n if theta is None else 1.0 / (n + (theta - 1.0)) - 1.0 / n
    return f, df


def _series_start(ystar, y0, log_keep, lam, theta, lead):
    """Each row's start s, and the summand's mode m and sd.

    ``lead`` is log g(y*).  A row moves to s = floor(m - c sd) when that
    is ``_MIN_SHIFT`` above y*, or above y* at all if lead < -_LEAD_LIMIT.
    The first needs D = m - y* >= _MIN_SHIFT + c sd with sd >= sqrt(D / J)
    (-d log r/dN <= (D + J y*) / (m D) at the mode, J surveys), so rows
    with r < 1 at the root of D = _MIN_SHIFT + c sqrt(D / J) are screened
    out.  Bracketed Newton steps in u = log(N - y*) start from the root of
    log r's large-N form: N - y* = exp(base) for Poisson, exact for one
    survey, and N = (sum_j y_j + theta - 1) / -base for NB.  Rows screened
    out get m and sd from two plain Newton steps from the same root,
    enough to size the summation's blocks (see :func:`_stop_reach`).
    """
    start = ystar.copy()
    base = log_keep + np.log(lam if theta is None else lam / (theta + lam))
    if theta is None:
        guess = np.exp(base)
    else:
        guess = (np.add.reduce(y0, axis=1) + (theta - 1.0)) / -base - ystar
    c_j = _START_SDS / np.sqrt(y0.shape[1])
    reach = (0.5 * (c_j + np.sqrt(c_j**2 + 4.0 * _MIN_SHIFT))) ** 2
    with np.errstate(invalid="ignore"):
        far = _log_ratio(ystar + reach, y0, base, theta) >= 0.0
        screened = ~(far | (lead < -_LEAD_LIMIT))
    mode, sd = _rough_mode(ystar, y0, base, theta, guess, screened)
    rows = np.flatnonzero(~screened)
    if not rows.size:
        return start, mode, sd
    ys = ystar[rows]
    args = _take(rows, y0, base, theta)
    # the root lies in (lo, hi); log r is decreasing on (y*, inf)
    lo = np.where(far[rows], np.log(reach), -np.inf)
    hi = np.where(far[rows], np.inf, np.log(reach))
    u = np.log(np.maximum(guess[rows], reach))
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            gap = np.exp(u)
            f, df = _log_ratio(ys + gap, *args, slope=True)
            lo = np.where(f >= 0.0, u, lo)
            hi = np.where(f < 0.0, u, hi)
            nxt = u - f / (df * gap)
            # outside the bracket, bisect it or widen it by e^2
            bisect = np.where(np.isinf(hi), lo + 2.0, np.where(np.isinf(lo), hi - 2.0, 0.5 * (lo + hi)))
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, bisect)
            done = np.all(np.abs(nxt - u) < _NEWTON_TOL)
            u = nxt
            if done:
                break
        # sd from the slope at the last iterate evaluated
        mode[rows] = ys + np.exp(u)
        sd[rows] = 1.0 / np.sqrt(-df)
        s = np.floor(mode[rows] - _START_SDS * sd[rows])
        moved = (s - ys >= _MIN_SHIFT) | ((s > ys) & (lead[rows] < -_LEAD_LIMIT))
    start[rows[moved]] = s[moved]
    return start, mode, sd


def _rough_mode(ystar, y0, base, theta, guess, rows):
    """Mode and sd of the summand on ``rows`` (elsewhere NaN): two Newton
    steps in log(N - y*) from the large-N root ``guess``, the sd from the
    slope of log r where the first step lands."""
    mode = np.full(ystar.shape, np.nan)
    sd = np.full(ystar.shape, np.nan)
    rows = np.flatnonzero(rows)
    if rows.size:
        ys = ystar[rows]
        args = _take(rows, y0, base, theta)
        gap = np.maximum(guess[rows], 1.0)
        with np.errstate(all="ignore"):
            for _ in range(2):
                f, df = _log_ratio(ys + gap, *args, slope=True)
                gap = gap * np.exp(-f / (df * gap))
            mode[rows] = ys + gap
            sd[rows] = 1.0 / np.sqrt(-df)
    return mode, sd


def _stop_reach(start, mode, sd):
    """Each row's expected stopping offset past its start: ``_STOP_SDS``
    sds and ``_STOP_MARGIN`` terms past its mode, or 0 where the mode
    estimate failed."""
    with np.errstate(invalid="ignore"):
        reach = mode - start + (_STOP_SDS * sd + _STOP_MARGIN)
    return np.where(reach > 0.0, reach, 0.0)


def _block_for(reach):
    """First block width: the median of the rows' expected stopping
    offsets.  Half the rows should finish in it; the rest go on in blocks
    sized to their own estimates (see :func:`_sum_upward`), which on a
    table of mixed rows costs less than one block sized for the widest."""
    return int(np.clip(np.ceil(np.median(reach)), 1, _BLOCK_MAX))


def _sum_upward(active, start, y0, keep, lam, theta, trunc, moments, reach):
    """Sum rows ``active`` upward from N = start, with t(start) = 1.

    ``reach`` holds each row's expected stopping offset.  The first block
    is :func:`_block_for` wide; each later one covers the largest reach
    of the rows still going, but is at most twice the width the block
    before it was allowed, and once every reach is passed the blocks just
    double.  Terms and partial sums are accumulated in sequence across
    blocks, so a row's sum and stopping point do not depend on where
    the blocks end.  The rows x block arrays are views of buffers kept for
    the whole call.

    Returns full-length (part_sum, n_max, sums), meaningful on ``active``.
    With ``moments``, sums has rows sum t_k * (k, k^2, h_k, h_k^2, k h_k,
    h'_k), where k = N - start and, for NB, h_k and h'_k are the running
    sums of 1 / (N - 1 + theta) and of its square (zero for Poisson).
    """
    n_rows = y0.shape[0]
    with_h = moments and theta is not None
    part_sum = np.ones(n_rows)
    carry = np.ones(n_rows)
    sums = np.zeros((6 if moments else 0, n_rows))
    carry_h = np.zeros((2, n_rows))
    n_max = start.copy()
    floor = _TAIL_SAFETY * trunc.relative_increment_floor
    space, flags = np.empty((5, 0)), np.empty(0, dtype=bool)

    offset = 0
    allowed = width = _block_for(reach[active])
    while active.size:
        if offset >= trunc.hard_cap_offset:
            row = int(active[0])
            raise NumericError(
                f"term budget exhausted for row {row} (lam={lam[row]:.6g}, start N={start[row]:.0f}): "
                f"{offset + 1} terms summed without meeting the truncation floor, "
                f"hard_cap_offset={trunc.hard_cap_offset}",
                row=row,
            )
        width = min(width, trunc.hard_cap_offset - offset)
        n_act = active.size
        size = n_act * width
        if size > flags.size:
            space, flags = np.empty((5, size)), np.empty(size, dtype=bool)
        grid, ratio, tmp, spare, cum = (buf[:size].reshape(n_act, width) for buf in space)
        stop = flags[:size].reshape(n_act, width)
        steps = offset + np.arange(1, width + 1, dtype=float)
        if n_act == n_rows:
            st, ys, ks, lm, th, cr, sm = start, y0, keep, lam, theta, carry, part_sum
        else:
            st, ys, ks, lm, th, cr, sm = _take(active, start, y0, keep, lam, theta, carry, part_sum)

        np.add(st[:, None], steps, out=grid)
        ratio, bound = _ratio_parts(grid, ys, ks, lm, th, (ratio, tmp, spare))
        lead_ratio = ratio[:, 0].copy()
        ratio[:, 0] *= cr
        running = grid
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.accumulate(ratio, axis=1, out=cum)
            ratio[:, 0] = lead_ratio
            np.copyto(running, cum)
            running[:, 0] += sm
            np.add.accumulate(running, axis=1, out=running)
            # stop at the first N where q < 1 and the tail bound t q / (1 - q)
            # is at most floor * running, that is q (t + floor running) <= floor running
            limit = np.multiply(running, floor, out=tmp)
            lhs = np.add(cum, limit, out=spare if bound is ratio else ratio)
            lhs *= bound
            np.less_equal(lhs, limit, out=stop)
        first = np.argmax(stop, axis=1)
        stopped = stop[np.arange(n_act), first]

        rows_done = active[stopped]
        part_sum[rows_done] = running[stopped, first[stopped]]
        n_max[rows_done] = start[rows_done] + offset + first[stopped] + 1.0

        kept = ~stopped
        rows_kept = active[kept]
        part_sum[rows_kept] = running[kept, -1]
        carry[rows_kept] = cum[kept, -1]
        n_max[rows_kept] = start[rows_kept] + offset + width

        if moments:
            # the moment sums take no terms past a row's stop
            last = np.where(stopped, first, width - 1)
            np.greater(np.arange(width), last[:, None], out=stop)
            np.copyto(cum, 0.0, where=stop)
            with np.errstate(over="ignore", invalid="ignore"):
                sums[0, active] += cum @ steps
                sums[1, active] += cum @ (steps * steps)
                if with_h:
                    h, h_sq = tmp, spare
                    np.add((st + (th - 1.0))[:, None], steps, out=h)
                    np.reciprocal(h, out=h)
                    np.multiply(h, h, out=h_sq)
                    h[:, 0] += carry_h[0, active]
                    h_sq[:, 0] += carry_h[1, active]
                    np.add.accumulate(h, axis=1, out=h)
                    np.add.accumulate(h_sq, axis=1, out=h_sq)
                    carry_h[0, rows_kept] = h[kept, -1]
                    carry_h[1, rows_kept] = h_sq[kept, -1]
                    h_sq *= cum
                    sums[5, active] += np.add.reduce(h_sq, axis=1)
                    np.multiply(h, cum, out=h_sq)
                    sums[2, active] += np.add.reduce(h_sq, axis=1)
                    sums[4, active] += h_sq @ steps
                    h_sq *= h
                    sums[3, active] += np.add.reduce(h_sq, axis=1)
        active = rows_kept
        offset += width
        allowed = min(2 * allowed, _BLOCK_MAX)
        left = np.max(reach[active], initial=0.0) - offset
        width = int(min(allowed, np.ceil(left))) if left > 0.0 else allowed
    return part_sum, n_max, sums


def _left_tail_ok(rows, start, y0, keep, lam, theta, part_sum, floor):
    """Whether the terms below each moved row's start are negligible.

    r decreases on (y*, inf) for a moved row (for NB with theta < 1 the
    rise of d loses to the survey factor of a count y* >= 1), so the
    skipped terms sum to at most q / (1 - q) with q = 1 / r(s).
    """
    ratio, _ = _ratio_parts(start[rows, None], *_take(rows, y0, keep, lam, theta))
    with np.errstate(divide="ignore"):
        q = 1.0 / ratio[:, 0]
        return (q < 1.0) & (q / (1.0 - q) <= floor * part_sum[rows])


def _batch_loglik(counts, mask, lam, p, theta, trunc):
    """Log-likelihood and chosen N_max for every row of a count table.

    ``counts``/``mask``/``p`` have shape (n_rows, n_surveys); ``lam`` has
    shape (n_rows,); ``theta`` is None, a scalar or an array of one per row.
    Missing cells must be masked False (their count values are ignored).
    """
    ll, _, n_max, _ = _batch_series(counts, mask, lam, p, theta, trunc, moments=False)
    return ll, n_max


class PosteriorMoments(NamedTuple):
    """Per-row moments of the latent N given the row's counts, with
    psi = digamma(N + theta); for Poisson the psi fields are zero."""

    mean_n: np.ndarray
    var_n: np.ndarray
    mean_dpsi: np.ndarray  # E[psi] - digamma(theta)
    var_psi: np.ndarray
    cov_n_psi: np.ndarray
    mean_dtrigamma: np.ndarray  # E[psi'(N + theta)] - trigamma(theta)


def _batch_series(counts, mask, lam, p, theta, trunc, moments):
    """Row log-likelihoods, the summed range and, if ``moments``, posterior moments.

    Moments are centred at the start s (k = N - s), so the variances do
    not cancel, and use psi(s + k + theta) = psi(s + theta) + h_k and
    psi'(s + k + theta) = psi'(s + theta) - h'_k.  Returns (ll, n_min,
    n_max, stats) with stats None or a :class:`PosteriorMoments`.  ``theta``
    is None (Poisson), a scalar or an array with one value per row.
    """
    n_rows = counts.shape[0]
    ystar = np.max(np.where(mask, counts, -np.inf), axis=1)
    log_keep = np.sum(np.log1p(-p, where=mask, out=np.zeros_like(p)), axis=1)
    lead = _leading_log_term(ystar, counts, mask, lam, p, theta)
    y0 = counts if mask.all() else np.where(mask, counts, 0.0)
    keep = 1.0 - p if mask.all() else np.where(mask, 1.0 - p, 1.0)
    start, mode, sd = _series_start(ystar, y0, log_keep, lam, theta, lead)
    moved = start > ystar
    inputs = (y0, keep, lam, theta)
    sums = _sum_upward(
        np.arange(n_rows), start, *inputs, trunc, moments, _stop_reach(start, mode, sd)
    )
    part_sum = sums[0]

    floor = _TAIL_SAFETY * trunc.relative_increment_floor
    pending = np.flatnonzero(moved)
    # c sd lower, then twice as far each time, so the retries end
    drop = np.ceil(_START_SDS * sd)
    while pending.size:
        pending = pending[~_left_tail_ok(pending, start, *inputs, part_sum, floor)]
        if not pending.size:
            break
        start[pending] = np.maximum(ystar[pending], start[pending] - drop[pending])
        drop[pending] *= 2.0
        redo = _sum_upward(pending, start, *inputs, trunc, moments, _stop_reach(start, mode, sd))
        for whole, part in zip(sums, redo):
            whole[..., pending] = part[..., pending]
        pending = pending[start[pending] > ystar[pending]]

    part_sum, n_max, raw = sums
    # a sum that overflowed holds inf, and the stopping rule then stops it
    spilled = np.flatnonzero(~np.isfinite(part_sum + np.add.reduce(raw, axis=0)))
    if spilled.size:
        row = int(spilled[0])
        raise NumericError(
            f"latent-abundance series overflowed double precision for row {row} "
            f"(lam={lam[row]:.6g}, start N={start[row]:.0f})",
            row=row,
        )
    shifted = np.flatnonzero(start > ystar)
    if shifted.size:
        lead[shifted] = _leading_log_term(
            start[shifted], *_take(shifted, counts, mask, lam, p, theta)
        )
    ll = lead + np.log(part_sum)
    stats = None
    if moments:
        k, k_sq, h, h_sq, k_h, h_prime = raw / part_sum
        stats = PosteriorMoments(
            mean_n=start + k,
            var_n=k_sq - k * k,
            mean_dpsi=h if theta is None else digamma(start + theta) - digamma(theta) + h,
            var_psi=h_sq - h * h,
            cov_n_psi=k_h - k * h,
            mean_dtrigamma=h_prime if theta is None else (
                zeta(2.0, start + theta) - zeta(2.0, theta) - h_prime
            ),
        )
    return ll, start.astype(int), n_max.astype(int), stats


def row_loglik_recursive(
    row: RowLikelihoodInput, trunc: TruncationPolicy = DEFAULT_TRUNCATION
) -> float:
    """Marginal log-likelihood of one row via the ratio recursion.

    Parameters
    ----------
    row : RowLikelihoodInput
        Observed counts, detection probabilities and mixing parameters.
    trunc : TruncationPolicy
        Stopping rule and term budget for the latent-abundance series.

    Returns
    -------
    float
        log L, finite for all valid inputs.

    Raises
    ------
    NumericError
        If the row needs more than ``trunc.hard_cap_offset`` terms past
        its start.
    """
    return row_loglik_detail(row, trunc).loglik


def row_loglik_detail(
    row: RowLikelihoodInput, trunc: TruncationPolicy = DEFAULT_TRUNCATION
) -> RowLikelihoodDetail:
    """Like :func:`row_loglik_recursive` but also reports the summed range of N."""
    counts = row.y[None, :]
    mask = np.ones_like(counts, dtype=bool)
    ll, n_min, n_max, _ = _batch_series(
        counts, mask, np.array([row.lam]), row.p[None, :], row.theta, trunc, moments=False
    )
    return RowLikelihoodDetail(
        loglik=float(ll[0]),
        n_terms=int(n_max[0] - n_min[0] + 1),
        n_max=int(n_max[0]),
        n_min=int(n_min[0]),
    )


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
    return float(np.sum(table_row_logliks(params, table, designs, family, trunc)))


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
    """Total log-likelihood and its exact score: the first two outputs of
    :func:`table_loglik_hessian`."""
    return table_loglik_hessian(params, table, designs, family, trunc)[:2]


def table_loglik_hessian(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total log-likelihood, its exact score and its exact Hessian, from one
    kernel pass, in the stacked (beta, alpha, log_theta) order.

    By Fisher's identity the score of log L_i is the posterior mean, given
    the row's counts, of the complete-data score s_i; by Louis's identity
    (Louis 1982) the Hessian is E[d^2 l_c | y] + Var[s_i | y].  With
    m_i = E[N_i | y_i] the score's parts are:

    * beta: X^T theta (m - lam) / (theta + lam), or X^T (m - lam) for Poisson;
    * alpha: the sum over observed cells of (y_ij - m_i p_ij) W_ij, with
      no contribution from cells whose p is clamped at ``P_CLAMP``;
    * log_theta: theta sum_i [E psi(N_i + theta) - psi(theta)
      + log(theta / (theta + lam_i)) + (lam_i - m_i) / (theta + lam_i)].

    s_i is affine in N_i and psi(N_i + theta), and d^2 l_c in N_i and
    psi'(N_i + theta), so a few posterior moments from the series pass
    give the Hessian.  The value equals :func:`table_loglik` exactly.
    """
    _check_model_dims(params, table, designs, family)
    lam = lambda_values(params, designs)
    p = detection_probs(params, designs)
    theta = params.theta if family.has_dispersion else None
    counts, mask = table.filled_counts(), table.mask
    ll, _, _, mom = _batch_series(counts, mask, lam, p, theta, trunc, moments=True)
    x, w, m = designs.abundance_design, designs.detection_design, mom.mean_n

    if theta is None:
        c_lam = np.ones_like(lam)
        d2_lam = -lam
    else:
        c_lam = theta / (theta + lam)
        d2_lam = -c_lam * lam * (theta + m) / (theta + lam)
    # clip() has zero slope where it binds, so clamped cells drop out
    free = mask & (p > P_CLAMP) & (p < 1.0 - P_CLAMP)
    p_free = np.where(free, p, 0.0)
    d_eta_p = np.where(free, counts - m[:, None] * p, 0.0)
    score = [x.T @ (c_lam * (m - lam)), np.tensordot(d_eta_p, w, axes=([0, 1], [0, 1]))]
    # slope of each row's complete-data score in N
    slope = [c_lam[:, None] * x, -np.einsum("ij,ijk->ik", p_free, w)]
    if theta is not None:
        d_theta = mom.mean_dpsi + np.log(c_lam) + (lam - m) / (theta + lam)
        score.append(np.array([theta * np.sum(d_theta)]))
        slope.append(-c_lam[:, None])
    slope = np.concatenate(slope, axis=1)

    n_lam, n_coef = designs.p_lambda, designs.p_lambda + designs.p_detect
    hess = slope.T @ (mom.var_n[:, None] * slope)
    hess[:n_lam, :n_lam] += x.T @ (d2_lam[:, None] * x)
    hess[n_lam:n_coef, n_lam:n_coef] -= np.einsum("ijk,ij,ijl->kl", w, m[:, None] * p_free * (1.0 - p), w)
    if theta is not None:
        # psi(N + theta) enters only the log_theta component, with slope theta
        cross = slope.T @ (theta * mom.cov_n_psi)
        cross[:n_lam] += x.T @ (theta * lam * (m - lam) / (theta + lam) ** 2)
        hess[:, -1] += cross
        hess[-1, :] += cross
        d2_theta = theta * d_theta + theta**2 * (
            mom.mean_dtrigamma + 1.0 / theta - 1.0 / (theta + lam) - (lam - m) / (theta + lam) ** 2
        )
        hess[-1, -1] += np.sum(d2_theta + theta**2 * mom.var_psi)
    return float(np.sum(ll)), np.concatenate(score), hess
