"""Marginal log-likelihood of repeated counts with latent abundance.

Each table row contributes an infinite series over the latent abundance N:

    L = sum_{N >= y*} g(N),  g(N) = D(N) * prod_j Binomial(y_j; N, p_j),  y* = max_j y_j

with D negative binomial of mean lam and size theta = 1/phi, Poisson at
phi = 0, and a survey not carried out given y_j = 0 and p_j = 0, whose
binomial factor is 1.  Both families take one path, with phi per row.
The series is evaluated through consecutive term ratios,

    r(N) = g(N)/g(N-1) = d(N) * prod_j [N / (N - y_j)] * (1 - p_j),
    d(N) = D(N)/D(N-1) = lam (1 + (N - 1) phi) / (N (1 + lam phi)),

so L = g(s) * (1 + r(s+1) + r(s+1) r(s+2) + ...), with only g(s) taken
from log-pmfs, every term scaled to g(s) and every r read from
:func:`_ratio_parts`.  Most rows start at s = y*; a row whose mode may
lie far above y*, or whose g(y*) is small enough for a sum from y* to
overflow, starts near its mode instead (see :func:`_series_start`).  Geometric bounds cover the skipped terms:

* right of N_max, ratio q(N) = prod_j [N / (N - y_j)](1 - p_j) *
  max(d(N), d_inf) dominates every later ratio from any start, since
  the survey factor decreases in N and d is monotone toward d_inf;
* left of s, ratio 1 / r(s), since r decreases on (y*, inf) for every
  row whose start moves.

A row stops only at a block end, once the right bound there is below
half of the relative floor, 1e-12, times its partial sum; a row whose
left bound is not that small is summed again from lower down.  One path
sums the value, alone or with the posterior moments of N that the exact
score and Hessian need (see :func:`table_loglik_hessian`), in vectorised
blocks over the rows that end at fixed offsets from each row's start (16,
32, 64 and on, at most 4096 apart), one slab of rows at a time in a few
buffers of at most 2**15 elements, so the working memory does not grow
with the rows.  Every output of a row, value, summed range and moments,
depends on that row alone (see :func:`_sum_upward` and
:func:`_series_start`), so many tables can share one pass (see
:func:`tables_loglik_hessian`).  A row past its budget of 10,000 terms
past its start, or whose budget would reach 2**53, gets a NaN value, and
a sum that leaves double range +inf; :func:`_check_series` names it.
:func:`posterior_n` rebuilds a row's posterior pmf of N on its ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._special import digamma, gammaln, log_factorial, trigamma, xlog1py
from .errors import ModelError, NumericError
from .model import (
    P_CLAMP,
    DesignMatrices,
    MixtureFamily,
    ObservationTable,
    ParameterVector,
    _frozen_array,
    check_table_designs,
    detection_probs,
    lambda_values,
)

_BLOCK_MAX = 4096
# A row's first block is _FIRST_BLOCK terms wide, each later one as wide as its offset
_FIRST_BLOCK = 16
_P_FLOOR = np.nextafter(0.0, 1.0)

# The mass discarded on both sides of a row's summed range is below
# _REL_FLOOR of its sum: each geometric tail bound is compared against
# _TAIL_SAFETY times it, so the two together stay strictly below it even
# when the bounds are nearly sharp.
_REL_FLOOR = 1e-12
_TAIL_SAFETY = 0.5
# A row sums at most _TERM_BUDGET terms past its start, else its value is NaN.
# The series always converges for p > 0, so an exhausted budget means the
# row's posterior is too wide, never that it diverges.
_TERM_BUDGET = 10000
# Past 2**53 N + 1 rounds to N: a row whose budget reaches it is not summed (NaN).
_N_EXACT = 2.0**53

# A moved row starts _START_SDS sds below the summand's mode, and only
# _MIN_SHIFT or more above y*, so rows near y* keep a plain sum's rounding.
_START_SDS = 9.0
_MIN_SHIFT = 64
# Summed from y*, terms scaled to g(y*) add up to L / g(y*) <= 1 / g(y*):
# no overflow while log g(y*) > -_LEAD_LIMIT, so rows below it always move.
_LEAD_LIMIT = 600.0
# A row's Newton steps in u = log(N - y*) stop once a step is below _NEWTON_TOL.
# Each takes log r's slope in u as a secant to (N - y*)(1 + _SECANT), which keeps
# its digits at any N and is exact for log r's main part, -u far above y*.
_NEWTON_STEPS = 10
_NEWTON_TOL = 1e-3
_SECANT = 2.0**-20

# Elements in one rows x width working array (256 KiB of doubles): both
# passes' block buffers and posterior_n's pmfs are built one slab of rows
# at a time, so their size does not grow with rows.
_SLAB = 1 << 15


def _row_slabs(n_rows, width):
    """Consecutive slices of ``range(n_rows)`` of at most _SLAB // width
    rows each, and one row at least."""
    step = max(_SLAB // max(width, 1), 1)
    return [slice(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


@dataclass(frozen=True)
class RowLikelihoodInput:
    """Observed surveys of one row: counts, detection probs, mixing parameters.

    Only surveys that actually happened belong here; a missing survey
    simply contributes no binomial factor.  ``theta`` is None for the
    Poisson mixture (phi = 0 in the kernel) and the NB size otherwise.
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
        object.__setattr__(self, "y", _frozen_array(y))
        object.__setattr__(self, "p", _frozen_array(p))
        object.__setattr__(self, "lam", float(self.lam))
        if self.theta is not None:
            object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class RowLikelihoodDetail:
    """One row's log-likelihood and the range n_min..n_max of N summed:
    ``n_terms`` terms, the start's and those of whole blocks."""

    loglik: float
    n_terms: int
    n_max: int
    n_min: int


def _phi(theta, n_rows):
    """phi = 1 / theta on each of ``n_rows`` rows, from a public theta: None
    for the Poisson mixture (phi = 0), a scalar, or one value per row."""
    return np.zeros(n_rows) if theta is None else np.ones(n_rows) / theta


def log_count_density(n, lam, phi):
    """Log pmf of the mixing distribution over the broadcast of ``n``,
    ``lam`` and ``phi``: negative binomial of mean lam and size 1 / phi
    where phi > 0, else its limit, the Poisson pmf.  ``n`` must hold
    non-negative integers, because log n! is read from a table."""
    n, lam, phi = np.broadcast_arrays(np.asarray(n, dtype=float), lam, phi)
    log_n_fact = log_factorial(n)
    out = n * np.log(lam) - lam - log_n_fact
    nb = phi > 0.0
    if nb.any():
        n, lam, theta, log_n_fact = n[nb], lam[nb], 1.0 / phi[nb], log_n_fact[nb]
        out[nb] = (gammaln(n + theta) - _once(gammaln, theta) - log_n_fact
                   + theta * np.log(theta / (theta + lam)) + n * np.log(lam / (theta + lam)))
    return out


def _leading_log_term(start, counts, lam, p, phi):
    """log g(s): mixing pmf at s times every binomial factor; a missing
    cell's (y = 0, p = 0) is exactly 1.  log s! is taken once per row."""
    rest = start[:, None] - counts
    # xlog1py makes 0 * log(0) vanish, so p = 1 gives a point mass; flooring p
    # at the least positive double does the same for a missing cell's y * log(p)
    cells = (
        log_factorial(start)[:, None] - log_factorial(counts) - log_factorial(rest)
        + counts * np.log(np.maximum(p, _P_FLOOR)) + xlog1py(rest, -p)
    )
    return log_count_density(start, lam, phi) + np.add.reduce(cells, axis=1)


def _once(f, theta):
    """``f`` at each row's ``theta``, evaluated once per run of equal values:
    a batch of k tables pays for k values, not for its rows, and each row
    gets the bits ``f`` gives its theta alone.  One run takes the scalar,
    which ``_special`` works out in less than half the time of a 1-element
    array."""
    ends = np.flatnonzero(theta[1:] != theta[:-1]) + 1
    if not ends.size:
        return f(theta[0])
    starts = np.concatenate(([0], ends))
    return np.repeat(f(theta[starts]), np.diff(starts, append=theta.size))


def _keep(lam, p, phi):
    """The rows x surveys factors of r free of N: each cell's 1 - p, the
    first column times d's, lam / (1 + lam phi), taken as lam itself at
    phi = 0 and else as 1 / (phi + 1 / lam), as lam phi overflows for
    theta near 1e-304."""
    keep = 1.0 - p
    keep[:, 0] *= np.where(phi > 0.0, 1.0 / (phi + 1.0 / lam), lam)
    return keep


def _take(rows, *inputs):
    """The per-row kernel inputs, phi among them, at ``rows``."""
    return tuple(a[rows] for a in inputs)


def _ratio_parts(n_grid, y0, keep, phi, work=None):
    """Term ratio r(N) = d(N) prod_j [N/(N-y_j)](1-p_j) on ``n_grid``, and
    a bound q(N) on every later ratio.  This is the one place r is
    formed: the blocks' terms, the starts' screen and Newton steps, the
    left-tail check and :func:`posterior_n` all read it here.

    ``y0`` and ``keep`` hold each cell's count and 1 - p, with 0 and 1 in
    missing cells, whose factor is then 1; ``keep``'s first column also
    holds d's factor free of N (see :func:`_keep`).  The rest of d is
    (1 + (N - 1) phi) / N, whose numerator a call with no phi > 0 row skips.
    q = r where phi <= 1 (d decreases), else the survey factor times
    max(d, d_inf), d_inf = lam phi / (1 + lam phi), which d rises toward.
    ``work``, three buffers shaped like the result or None, is overwritten.
    """
    if work is None:
        shape = np.broadcast_shapes(np.shape(n_grid), (y0.shape[0], 1))
        work = tuple(np.empty(shape) for _ in range(3))
    ratio, tmp, spare = work
    for j in range(y0.shape[1]):
        np.subtract(n_grid, y0[:, j, None], out=tmp)
        factor = np.divide(n_grid, tmp, out=tmp if j else ratio)
        factor *= keep[:, j, None]
        if j:
            ratio *= tmp
    ratio /= n_grid
    if not phi.any():
        return ratio, ratio
    bound = ratio
    if np.any(phi > 1.0):
        # d_inf = d N phi / (1 + (N - 1) phi), taken only where phi > 1
        bound = np.multiply(ratio, n_grid, out=spare)
        bound *= np.where(phi > 1.0, phi, 0.0)[:, None]
    # times 1 + (N - 1) phi, as r + (N - 1) r phi, which cannot overflow
    np.subtract(n_grid, 1.0, out=tmp)
    tmp *= ratio
    tmp *= phi[:, None]
    ratio += tmp
    if bound is not ratio:
        np.maximum(bound, ratio, out=bound)
    return ratio, bound


def _series_start(ystar, y0, keep, phi, lead):
    """Each row's start s, and the summand's sd at the mode of each row
    that may move (NaN elsewhere), which sizes its left-tail retries.

    ``keep`` is as in :func:`_ratio_parts`, which gives every r here, and
    ``lead`` is log g(y*).  A row moves to s = floor(m - c sd), m the
    summand's mode, when that is ``_MIN_SHIFT`` above y*, or above y* at
    all if lead < -_LEAD_LIMIT.  The first needs D = m - y* >= _MIN_SHIFT
    + c sd, with sd >= sqrt(D / J) (-d log r/dN <= (D + J y*) / (m D) at
    the mode, J surveys), so rows with r < 1 at the root of D = _MIN_SHIFT
    + c sqrt(D / J) are screened out and start at y*.  Bracketed Newton
    steps in u = log(N - y*), each row stopping once its own step is below
    ``_NEWTON_TOL``, read log r on the grid N, y* + (N - y*)(1 + _SECANT)
    and take its slope in u as the secant between the two.  They start
    from the root of log r's large-N form: N - y* = prod_j keep_j at
    phi = 0, exact for one survey, and N = (sum_j y_j + theta - 1) /
    -log(phi prod_j keep_j) for phi > 0.
    """
    start = ystar.copy()
    sd = np.full(ystar.size, np.nan)
    c_j = _START_SDS / np.sqrt(y0.shape[1])
    reach = (0.5 * (c_j + np.sqrt(c_j**2 + 4.0 * _MIN_SHIFT))) ** 2
    with np.errstate(all="ignore"):
        far = _ratio_parts((ystar + reach)[:, None], y0, keep, phi)[0][:, 0] >= 1.0
        rows = np.flatnonzero(far | (lead < -_LEAD_LIMIT))
        if not rows.size:
            return start, sd
        ys, far, args = ystar[rows], far[rows], _take(rows, y0, keep, phi)
        guess = np.multiply.reduce(args[1], axis=1)
        if (nb := np.flatnonzero(args[2])).size:
            sum_y, phi_nb = np.add.reduce(args[0][nb], axis=1), args[2][nb]
            guess[nb] = (sum_y + (1.0 / phi_nb - 1.0)) / -(np.log(guess[nb]) + np.log(phi_nb)) - ys[nb]
        # the root lies in (lo, hi); log r is decreasing on (y*, inf)
        lo = np.where(far, np.log(reach), -np.inf)
        hi = np.where(far, np.inf, np.log(reach))
        u = np.log(np.maximum(guess, reach))
        slope = np.empty(rows.size)
        live = np.arange(rows.size)
        for _ in range(_NEWTON_STEPS):
            u_l, lo_l, hi_l = u[live], lo[live], hi[live]
            gap = np.exp(u_l)
            grid = ys[live, None] + gap[:, None] * np.array([1.0, 1.0 + _SECANT])
            log_r = np.log(_ratio_parts(grid, *_take(live, *args))[0])
            f = log_r[:, 0]
            df_du = (log_r[:, 1] - f) / np.log1p(_SECANT)
            slope[live] = df_du / gap
            lo_l = np.where(f >= 0.0, u_l, lo_l)
            hi_l = np.where(f < 0.0, u_l, hi_l)
            nxt = u_l - f / df_du
            # outside the bracket, bisect it or widen it by e^2
            bisect = np.where(np.isinf(hi_l), lo_l + 2.0,
                              np.where(np.isinf(lo_l), hi_l - 2.0, 0.5 * (lo_l + hi_l)))
            u[live] = nxt = np.where((nxt >= lo_l) & (nxt <= hi_l), nxt, bisect)
            lo[live], hi[live] = lo_l, hi_l
            # a row whose step is NaN goes on to the last step
            live = live[~(np.abs(nxt - u_l) < _NEWTON_TOL)]
            if not live.size:
                break
        # sd from the slope at the last iterate evaluated
        sd[rows] = 1.0 / np.sqrt(-slope)
        s = np.floor(ys + np.exp(u) - _START_SDS * sd[rows])
        moved = (s - ys >= _MIN_SHIFT) | ((s > ys) & (lead[rows] < -_LEAD_LIMIT))
    start[rows[moved]] = s[moved]
    return start, sd


def _sum_upward(active, start, y0, keep, phi, floor, moments, out):
    """Sum rows ``active`` upward from N = start, with t(start) = 1.

    A row's blocks end at fixed offsets from its start, ``_FIRST_BLOCK``,
    twice that, and on, doubling until they are ``_BLOCK_MAX`` wide.  Each
    block adds its terms with one reduce along the row, which stops at the
    first block end where its right tail bound is at most ``floor`` times
    its partial sum, or gets part_sum NaN after ``_TERM_BUDGET`` terms.  A
    block is worked in slabs of rows from :func:`_row_slabs`, so each rows
    x block array, a view of buffers kept for the whole call, holds at most
    ``_SLAB`` elements.  Each row's carry, partial sum and running h sums
    live in full-length arrays, and every sum runs along its row alone
    (``einsum``, not BLAS, which rounds by how it groups rows), so neither
    the slabs nor the other rows change a bit of any value, summed range
    or moment, and ``moments`` changes neither of the first two.

    Writes the ``active`` rows of ``out`` = full-length (part_sum, n_max,
    sums), and raises nothing.  With ``moments``, sums has rows sum t_k *
    (k, k^2, h_k, h_k^2, k h_k, h'_k), where k = N - start and h_k and h'_k
    are the running sums of 1 / (N - 1 + theta) and of its square.  At
    phi = 0, theta = 1 / phi is inf and every h exactly 0, so a call with
    no phi > 0 row skips them.
    """
    part_sum, n_max, sums = out
    part_sum[active], n_max[active], sums[:, active] = 1.0, start[active], 0.0
    n_rows = y0.shape[0]
    with_h = moments and phi.any()
    carry = np.ones(n_rows)
    carry_h = np.zeros((2, n_rows))
    space = np.empty((4, 0))

    offset, width = 0, min(_FIRST_BLOCK, _BLOCK_MAX)
    while active.size and offset < _TERM_BUDGET:
        width = min(width, _TERM_BUDGET - offset)
        steps = offset + np.arange(1, width + 1, dtype=float)
        going = []
        for slab in _row_slabs(active.size, width):
            rows = active[slab]
            n_act = rows.size
            size = n_act * width
            if size > space.shape[1]:
                space = np.empty((4, size))
            grid, ratio, terms, spare = (buf[:size].reshape(n_act, width) for buf in space)
            if n_act == n_rows:
                st, ys, ks, ph, cr, sm = start, y0, keep, phi, carry, part_sum
            else:
                st, ys, ks, ph, cr, sm = _take(rows, start, y0, keep, phi, carry, part_sum)

            np.add(st[:, None], steps, out=grid)
            ratio, bound = _ratio_parts(grid, ys, ks, ph, (ratio, terms, spare))
            last_bound = bound[:, -1].copy()  # before a one-term block's carry scales it
            ratio[:, 0] *= cr
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply.accumulate(ratio, axis=1, out=terms)
                total = sm + np.add.reduce(terms, axis=1)
                # stop where q < 1 and the tail bound t q / (1 - q) past the block's
                # last N is at most floor * total, that is q (t + floor total) <= floor total
                limit = floor * total
                stop = last_bound * (terms[:, -1] + limit) <= limit
            part_sum[rows] = total
            carry[rows] = terms[:, -1]
            n_max[rows] = st + (offset + width)
            going.append(rows[~stop])

            if moments:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    sums[0, rows] += np.einsum("ij,j->i", terms, steps)
                    sums[1, rows] += np.einsum("ij,j->i", terms, steps * steps)
                    if with_h:
                        h, h_sq = grid, spare
                        np.add((st + (1.0 / ph - 1.0))[:, None], steps, out=h)
                        np.reciprocal(h, out=h)
                        np.multiply(h, h, out=h_sq)
                        h[:, 0] += carry_h[0, rows]
                        h_sq[:, 0] += carry_h[1, rows]
                        np.add.accumulate(h, axis=1, out=h)
                        np.add.accumulate(h_sq, axis=1, out=h_sq)
                        carry_h[:, rows] = h[:, -1], h_sq[:, -1]
                        h_sq *= terms
                        sums[5, rows] += np.add.reduce(h_sq, axis=1)
                        np.multiply(h, terms, out=h_sq)
                        sums[2, rows] += np.add.reduce(h_sq, axis=1)
                        sums[4, rows] += np.einsum("ij,j->i", h_sq, steps)
                        h_sq *= h
                        sums[3, rows] += np.add.reduce(h_sq, axis=1)
        active = np.concatenate(going)
        offset += width
        width = min(offset, _BLOCK_MAX)
    part_sum[active] = np.nan


class PosteriorMoments(NamedTuple):
    """Per-row moments of the latent N given the row's counts, with psi and
    psi' the digamma and trigamma of N + theta; psi fields are 0 at phi = 0."""

    mean_n: np.ndarray
    var_n: np.ndarray
    mean_dpsi: np.ndarray  # E[psi] - digamma(theta)
    var_psi: np.ndarray
    cov_n_psi: np.ndarray
    mean_dtrigamma: np.ndarray  # E[psi'(N + theta)] - trigamma(theta)


def _batch_series(counts, lam, p, phi, moments):
    """Row log-likelihoods, the summed range and, if ``moments``, posterior moments.

    ``counts``/``p`` have shape (n_rows, n_surveys), and ``lam`` and ``phi``
    shape (n_rows,); a missing survey is a cell with count 0 and p = 0,
    whose binomial factor is 1.  Moments are centred at the start s
    (k = N - s), so the variances do not cancel, and use the digamma and
    trigamma recurrences psi(s + k + theta) = psi(s + theta) + h_k and
    psi'(s + k + theta) = psi'(s + theta) - h'_k.  ``moments`` changes no
    bit of ll, n_min or n_max, save that a row whose moment sums overflow
    gets ll = +inf.
    Returns (ll, n_min, n_max, stats), n_min and n_max as whole doubles
    and stats None or a :class:`PosteriorMoments`.  Nothing here raises,
    and one row's failure moves no bit of the others: ll is NaN past the
    term budget (no retry) or, unsummed, where the budget would reach past
    2**53, +inf past double range and -inf at zero likelihood; see
    :func:`_check_series`.
    """
    n_rows = counts.shape[0]
    ystar = np.max(counts, axis=1)
    keep = _keep(lam, p, phi)
    # a row whose budget would reach 2**53 is never summed, and its lead, whose
    # log factorials may overflow, is NaN; the lead is formed row by row
    with np.errstate(all="ignore"):
        lead = _leading_log_term(ystar, counts, lam, p, phi)
    lead[ystar + _TERM_BUDGET > _N_EXACT] = np.nan
    start, sd = _series_start(ystar, counts, keep, phi, lead)
    inputs = (counts, keep, phi)
    floor = _TAIL_SAFETY * _REL_FLOOR
    out = (np.full(n_rows, np.nan), start.copy(), np.zeros((6 if moments else 0, n_rows)))
    part_sum, n_max, raw = out
    summed = np.flatnonzero(start + _TERM_BUDGET <= _N_EXACT)
    _sum_upward(summed, start, *inputs, floor, moments, out)

    pending = summed[start[summed] > ystar[summed]]
    # c sd lower, then twice as far each time, so the retries end
    drop = np.ceil(_START_SDS * sd)
    while pending.size:
        # r decreases on (y*, inf) for a moved row (for phi > 1 the rise of d loses to
        # the survey factor of a count y* >= 1), so the terms below its start sum to
        # at most q / (1 - q), q = 1 / r(s); rows where that is not negligible go on
        ratio, _ = _ratio_parts(start[pending, None], *_take(pending, counts, keep, phi))
        with np.errstate(divide="ignore"):
            q, ps = 1.0 / ratio[:, 0], part_sum[pending]
            pending = pending[~(np.isnan(ps) | ((q < 1.0) & (q / (1.0 - q) <= floor * ps)))]
        if not pending.size:
            break
        start[pending] = np.maximum(ystar[pending], start[pending] - drop[pending])
        drop[pending] *= 2.0
        _sum_upward(pending, start, *inputs, floor, moments, out)
        pending = pending[start[pending] > ystar[pending]]

    # a sum that overflowed holds inf, and the stopping rule then stops it at its
    # block end; a row whose moment sums overflowed gets inf too, and one past its
    # budget keeps NaN
    part_sum[np.isfinite(part_sum) & ~np.isfinite(np.add.reduce(raw, axis=0))] = np.inf
    shifted = summed[start[summed] > ystar[summed]]
    if shifted.size:
        lead[shifted] = _leading_log_term(start[shifted], *_take(shifted, counts, lam, p, phi))
    ll = lead + np.log(part_sum)
    stats = None
    if moments:
        # inf / inf: an overflowed row's moments are NaN
        with np.errstate(invalid="ignore"):
            k, k_sq, h, h_sq, k_h, h_prime = raw / part_sum
        # psi(s + theta) - psi(theta) and its trigamma twin, 0 at phi = 0
        dpsi, dtrigamma = np.zeros((2, n_rows))
        if (nb := np.flatnonzero(phi)).size:
            s, theta = start[nb], 1.0 / phi[nb]
            dpsi[nb] = digamma(s + theta) - _once(digamma, theta)
            dtrigamma[nb] = trigamma(s + theta) - _once(trigamma, theta)
        stats = PosteriorMoments(
            mean_n=start + k,
            var_n=k_sq - k * k,
            mean_dpsi=dpsi + h,
            var_psi=h_sq - h * h,
            cov_n_psi=k_h - k * h,
            mean_dtrigamma=dtrigamma - h_prime,
        )
    return ll, start, n_max, stats


def _check_series(ll, n_min, n_max, lam, unit):
    """Raise NumericError naming, as the caller's ``unit``, the first row of
    a kernel result whose ``ll`` is not finite, and why (see :func:`_batch_series`)."""
    bad = np.flatnonzero(~np.isfinite(ll))
    if bad.size:
        k = bad[0]
        where = f"{unit} {k} (lam={lam[k]:.6g}, start N={n_min[k]:.16g})"
        if ll[k] == -np.inf:
            raise NumericError(f"{unit} {k} gives the counts zero likelihood")
        if n_min[k] + _TERM_BUDGET > _N_EXACT:
            raise NumericError(f"terms past 2**53 cannot be counted (N + 1 rounds to N) for {where}")
        if np.isnan(ll[k]):
            raise NumericError(
                f"term budget exhausted for {where}: {n_max[k] - n_min[k] + 1:.0f} terms summed without "
                f"meeting the relative floor; the budget is {_TERM_BUDGET} terms past the start"
            )
        raise NumericError(f"latent-abundance series overflowed double precision for {where}")


def posterior_n(
    y_row: np.ndarray,
    lambda_draws: np.ndarray,
    p_draws: np.ndarray,
    theta_draws: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior pmf of one row's latent abundance N, averaged over draws.

    The draws are the rows of one batch of the series kernel, so each
    draw's support is the range n_min..n_max that :func:`row_loglik_detail`
    reports for it (under 1e-12 of its mass lies outside).  Each draw's
    pmf g(N) / L is rebuilt on the union of the ranges, from the leading
    term at the lowest n_min plus the cumulative log term ratios, one slab
    of draws at a time (see :func:`_row_slabs`); the pmfs are added in
    draw order, as one sum over all the draws adds them, and their mean is
    renormalised.

    Returns the pmf aligned with ``np.arange(max(y), top + 1)``, where
    ``top`` is the highest n_max of any draw; entries below the lowest
    n_min are zero.  Raises ModelError naming a malformed input (NaN
    included), and NumericError naming the first posterior draw that
    gives the counts zero likelihood (p = 1 with unequal counts), exhausts
    the term budget or overflows (see :func:`_check_series`).

    Parameters
    ----------
    y_row : array of shape (n_surveys,)
        Observed counts of the row (observed surveys only).
    lambda_draws : array of shape (n_draws,)
    p_draws : array of shape (n_draws, n_surveys)
    theta_draws : array of shape (n_draws,), optional
        Dispersion draws; None for the Poisson mixture.
    """
    y = np.atleast_1d(np.asarray(y_row, dtype=float))
    lam = np.atleast_1d(np.asarray(lambda_draws, dtype=float))
    p = np.atleast_2d(np.asarray(p_draws, dtype=float))
    # the checks are written so that NaN fails them
    if y.ndim != 1 or y.size < 1 or not np.all((y >= 0) & (y == np.floor(y)) & np.isfinite(y)):
        raise ModelError(f"y_row must hold at least one non-negative integer count, got {y.tolist()}")
    if p.shape != (lam.size, y.size):
        raise ModelError(f"p_draws must have shape ({lam.size}, {y.size}), got {p.shape}")
    if not np.all((lam > 0) & np.isfinite(lam)):
        raise ModelError("lambda draws must be positive and finite")
    # p = 1 is admitted: perfect detection pins N at the observed count
    if not np.all((p > 0) & (p <= 1)):
        raise ModelError("detection draws must lie in (0, 1]")
    theta = None
    if theta_draws is not None:
        theta = np.atleast_1d(np.asarray(theta_draws, dtype=float))
        if theta.shape != lam.shape or not np.all((theta > 0) & np.isfinite(theta)):
            raise ModelError("theta draws must be positive and finite, with one entry per draw")
    phi = _phi(theta, lam.size)
    counts = np.broadcast_to(y, p.shape)
    # log(1 - p) is -inf at p = 1; the kernel's ratios are then exactly 0
    with np.errstate(divide="ignore"):
        ll, n_min, n_max, _ = _batch_series(counts, lam, p, phi, moments=False)
    _check_series(ll, n_min, n_max, lam, "posterior draw")
    lo, hi = int(n_min.min()), int(n_max.max())
    grid = np.arange(lo + 1.0, hi + 1.0)[None, :]
    keep = _keep(lam, p, phi)
    slabs = _row_slabs(lam.size, grid.size + 1)
    # row 0 holds the running total, so each slab's draws add to it in order
    pmfs = np.empty((max(r.stop - r.start for r in slabs) + 1, grid.size + 1))
    total = np.zeros(grid.size + 1)
    with np.errstate(divide="ignore"):
        lead = _leading_log_term(np.full(lam.size, float(lo)), counts, lam, p, phi)
        for rows in slabs:
            k = rows.stop - rows.start
            log_g = pmfs[1 : k + 1]
            ratio, _ = _ratio_parts(grid, *_take(rows, counts, keep, phi))
            log_g[:, 0] = lead[rows]
            np.log(ratio, out=log_g[:, 1:])
            np.add.accumulate(log_g, axis=1, out=log_g)
            log_g -= ll[rows, None]
            np.exp(log_g, out=log_g)
            pmfs[0] = total
            np.add.reduce(pmfs[: k + 1], axis=0, out=total)
    probs = total / lam.size
    return np.pad(probs / probs.sum(), (lo - int(y.max()), 0))


def row_loglik_detail(row: RowLikelihoodInput) -> RowLikelihoodDetail:
    """Marginal log-likelihood of one row via the ratio recursion.

    Parameters
    ----------
    row : RowLikelihoodInput
        Observed counts, detection probabilities and mixing parameters.

    Returns
    -------
    RowLikelihoodDetail
        log L, finite for all valid inputs, and the range n_min..n_max of
        N summed, ``n_terms`` terms to the end of a block.

    Raises
    ------
    NumericError
        If the row needs more than 10,000 terms past its start, or its sum
        leaves double range; the message names row 0 and the cause.
    """
    lam, phi = np.array([row.lam]), _phi(row.theta, 1)
    ll, n_min, n_max, _ = _batch_series(row.y[None, :], lam, row.p[None, :], phi, moments=False)
    _check_series(ll, n_min, n_max, lam, "row")
    return RowLikelihoodDetail(
        loglik=float(ll[0]),
        n_terms=int(n_max[0] - n_min[0] + 1),
        n_max=int(n_max[0]),
        n_min=int(n_min[0]),
    )


def _kernel_inputs(params, table, designs, family):
    """The kernel's (counts, lam, p, phi) for a table, after checking that
    the parts agree: a missing cell has count 0 and p = 0."""
    check_table_designs(table, designs)
    carries = params.n_params > params.beta.size + params.alpha.size  # log_theta is set
    if carries != family.has_dispersion:
        raise ModelError("Poisson family must not carry log_theta" if carries
                         else "negative binomial family requires log_theta")
    lam = lambda_values(params, designs)
    p = np.where(table.mask, detection_probs(params, designs), 0.0)
    return table.filled_counts(), lam, p, _phi(params.theta, table.n_rows)


def table_loglik(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
) -> float:
    """Total log-likelihood of a count table: the sum over row contributions."""
    return float(np.sum(table_row_logliks(params, table, designs, family)))


def table_row_logliks(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
) -> np.ndarray:
    """Per-row log-likelihood contributions, in table order."""
    counts, lam, p, phi = _kernel_inputs(params, table, designs, family)
    ll, n_min, n_max, _ = _batch_series(counts, lam, p, phi, moments=False)
    _check_series(ll, n_min, n_max, lam, "row")
    return ll


def table_loglik_hessian(
    params: ParameterVector,
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total log-likelihood, its exact score and its exact Hessian, from one
    kernel pass, in the stacked (beta, alpha, log_theta) order.

    By Fisher's identity the score of log L_i is the posterior mean, given
    the row's counts, of the complete-data score s_i; by Louis's identity
    (Louis 1982) the Hessian is E[d^2 l_c | y] + Var[s_i | y].  With
    m_i = E[N_i | y_i] the score's parts are:

    * beta: X^T (m - lam) / (1 + lam phi), phi = 1 / theta, 0 for Poisson;
    * alpha: the sum over observed cells of (y_ij - m_i p_ij) W_ij, with
      no contribution from cells whose p is clamped at ``P_CLAMP``;
    * log_theta: theta sum_i [E psi(N_i + theta) - psi(theta)
      + log(theta / (theta + lam_i)) + (lam_i - m_i) / (theta + lam_i)].

    s_i is affine in N_i and psi(N_i + theta), and d^2 l_c in N_i and
    psi'(N_i + theta), so a few posterior moments from the series pass
    give the Hessian.  The value equals :func:`table_loglik` exactly.
    This is :func:`tables_loglik_hessian` of the one table.
    """
    (result,) = tables_loglik_hessian([(params, table, designs, family)])
    if isinstance(result, NumericError):
        raise result
    return result


def tables_loglik_hessian(problems):
    """:func:`table_loglik_hessian` of each (params, table, designs, family)
    in ``problems``, from one kernel pass per survey count.

    Every output of a row depends on that row alone, so each entry is, to
    the bit, what its problem gives alone: (loglik, score, Hessian), or
    the NumericError that it raises.  Tables of different survey counts
    take separate passes: a padded survey would change how a row's start
    is screened (see :func:`_series_start`).
    """
    results = [None] * len(problems)
    by_surveys = {}
    for i, (params, table, designs, family) in enumerate(problems):
        try:
            inputs = _kernel_inputs(params, table, designs, family)
        except NumericError as exc:
            results[i] = exc
            continue
        by_surveys.setdefault(inputs[0].shape[1], []).append((i, inputs))
    for group in by_surveys.values():
        batch = (np.concatenate(parts) for parts in zip(*(inputs for _, inputs in group)))
        *series, mom = _batch_series(*batch, moments=True)
        end = 0
        for i, inputs in group:
            rows = slice(end, end := end + inputs[1].size)
            ll, n_min, n_max = (a[rows] for a in series)
            try:
                _check_series(ll, n_min, n_max, inputs[1], "row")
            except NumericError as exc:
                results[i] = exc
                continue
            params, _, designs, family = problems[i]
            own = PosteriorMoments(*(a[rows] for a in mom))
            results[i] = _score_hessian(params, designs, family, *inputs, ll, own)
    return results


def _score_hessian(params, designs, family, counts, lam, p, phi, ll, mom):
    """Total log-likelihood, score and Hessian of one table, from its kernel
    inputs and its rows' values and moments (see :func:`table_loglik_hessian`)."""
    x, w, m = designs.abundance_design, designs.detection_design, mom.mean_n

    # 1 and -lam exactly at phi = 0
    c_lam = 1.0 / (1.0 + lam * phi)
    d2_lam = -c_lam * lam * (1.0 + m * phi) / (1.0 + lam * phi)
    # clip() has zero slope where it binds, so clamped cells drop out, as do
    # missing ones (p = 0)
    free = (p > P_CLAMP) & (p < 1.0 - P_CLAMP)
    p_free = np.where(free, p, 0.0)
    d_eta_p = np.where(free, counts - m[:, None] * p, 0.0)
    score = [x.T @ (c_lam * (m - lam)), np.tensordot(d_eta_p, w, axes=([0, 1], [0, 1]))]
    # slope of each row's complete-data score in N
    slope = [c_lam[:, None] * x, -np.einsum("ij,ijk->ik", p_free, w)]
    if family.has_dispersion:
        theta = params.theta
        d_theta = mom.mean_dpsi + np.log(c_lam) + (lam - m) / (theta + lam)
        score.append(np.array([theta * np.sum(d_theta)]))
        slope.append(-c_lam[:, None])
    slope = np.concatenate(slope, axis=1)

    n_lam, n_coef = designs.p_lambda, designs.p_lambda + designs.p_detect
    hess = slope.T @ (mom.var_n[:, None] * slope)
    hess[:n_lam, :n_lam] += x.T @ (d2_lam[:, None] * x)
    w_cells = w.reshape(-1, designs.p_detect)
    weight = (m[:, None] * p_free * (1.0 - p)).reshape(-1, 1)
    hess[n_lam:n_coef, n_lam:n_coef] -= w_cells.T @ (weight * w_cells)
    if family.has_dispersion:
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
