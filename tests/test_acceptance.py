"""End-to-end acceptance gate.

Eight numbered criteria, one test each.  Every test finishes by printing
a single [criterion N] PASS line with the measured quantities; run with
-rA (or -s) to see the lines for passing tests.
"""

import time

import numpy as np
import pytest
from scipy.special import factorial
from scipy.stats import nbinom, poisson

from nmixfit import (
    DataError,
    MixtureFamily,
    PriorSpec,
    fit_laplace,
)
from nmixfit.datasets import (
    load_mallard,
    with_averaged_detection_covariates,
    with_survey_detection_covariates,
)
from nmixfit.experiments import run_bias_experiment
from nmixfit.laplace import posterior_n
from nmixfit.likelihood import (
    RowLikelihoodInput,
    _batch_series,
    row_loglik_detail,
)
from nmixfit.mle import fit_ml, summarize_fit

from bruteforce import bruteforce_table, row_loglik_bruteforce
from conftest import TRUE_STACKED


def _close(a, b, tol):
    # tolerances are relative to max(1, |value|) so near-zero logliks
    # are judged on an absolute scale
    return abs(a - b) < tol * max(1.0, abs(a))


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20260821)
    n_cases = 1000
    worst = 0.0
    start = time.perf_counter()
    for _ in range(n_cases):
        j = int(rng.integers(1, 4))
        lam = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        p = rng.uniform(0.01, 0.99, size=j)
        theta = None if rng.random() < 0.5 else float(rng.uniform(0.5, 10.0))
        if theta is None:
            n_true = int(rng.poisson(lam))
        else:
            n_true = int(rng.negative_binomial(theta, theta / (theta + lam)))
        y = rng.binomial(n_true, p).astype(float)
        row = RowLikelihoodInput(y=y, lam=lam, p=p, theta=theta)
        detail = row_loglik_detail(row)
        brute = row_loglik_bruteforce(row, n_max=detail.n_max)
        err = abs(detail.loglik - brute) / max(1.0, abs(detail.loglik))
        worst = max(worst, err)
        assert _close(detail.loglik, brute, 1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"[criterion 1] PASS: {n_cases} random cases, worst normalised "
        f"error {worst:.3e} (< 1e-10), {elapsed:.2f} s (< 10 s)"
    )


def test_criterion_2_analytic_identities():
    worst_pois = worst_nb = worst_zero = 0.0
    for lam in (0.1, 1.0, 7.5, 40.0):
        for p in (0.02, 0.3, 0.85):
            for y in (0, 1, 3, 12):
                got = row_loglik_detail(
                    RowLikelihoodInput(y=np.array([float(y)]), lam=lam, p=np.array([p]))
                ).loglik
                want = poisson.logpmf(y, lam * p)
                worst_pois = max(worst_pois, abs(got - want) / max(1.0, abs(got)))
                assert _close(got, want, 1e-12)
                for theta in (0.5, 3.0, 9.0):
                    got = row_loglik_detail(
                        RowLikelihoodInput(
                            y=np.array([float(y)]), lam=lam, p=np.array([p]), theta=theta
                        )
                    ).loglik
                    want = nbinom.logpmf(y, theta, theta / (theta + lam * p))
                    worst_nb = max(worst_nb, abs(got - want) / max(1.0, abs(got)))
                    assert _close(got, want, 1e-10)

    # an all-zero Poisson row integrates in closed form: the survey
    # factors thin the latent mean, leaving lam * (prod(1 - p_j) - 1);
    # with one survey that is the familiar -lam * p
    for lam in (0.2, 2.0, 25.0):
        for p in (
            np.array([0.4]),
            np.array([0.15, 0.6]),
            np.array([0.05, 0.35, 0.8]),
        ):
            got = row_loglik_detail(
                RowLikelihoodInput(y=np.zeros_like(p), lam=lam, p=p)
            ).loglik
            want = lam * (np.prod(1.0 - p) - 1.0)
            worst_zero = max(worst_zero, abs(got - want) / max(1.0, abs(got)))
            assert _close(got, want, 1e-12)
            if p.size == 1:
                assert _close(got, -lam * p[0], 1e-12)
    print(
        f"[criterion 2] PASS: single-survey Poisson {worst_pois:.2e} (< 1e-12), "
        f"NB {worst_nb:.2e} (< 1e-10), all-zero identity {worst_zero:.2e} (< 1e-12)"
    )


def test_criterion_3_performance_and_overflow():
    rng = np.random.default_rng(7)
    n_rows, n_surveys = 100_000, 3
    lam = np.full(n_rows, 50.0)
    p = np.full((n_rows, n_surveys), 0.5)
    n_true = rng.poisson(lam)
    counts = rng.binomial(n_true[:, None], p).astype(float)
    mask = np.ones_like(counts, dtype=bool)

    # one untimed pass supplies the per-row truncation points, so both
    # contenders sum exactly the same number of terms
    phi = np.zeros(n_rows)  # Poisson
    ll_rec, _, n_max, _ = _batch_series(counts, lam, p, phi, moments=False)

    def best_of(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_rec = best_of(lambda: _batch_series(counts, lam, p, phi, moments=False))
    t_brute = best_of(lambda: bruteforce_table(counts, mask, lam, p, None, n_max))
    speedup = t_brute / t_rec

    ll_brute = bruteforce_table(counts, mask, lam, p, None, n_max)
    err = np.max(np.abs(ll_rec - ll_brute) / np.maximum(1.0, np.abs(ll_rec)))
    assert err < 1e-10
    assert speedup >= 3.0

    # naive linear-space summation: lam**n and n! exceed float range long
    # before n reaches 1000, so the direct sum degenerates while the
    # recursion stays finite
    def naive_linear(y, lam_s, p_s, n_top):
        ns = np.arange(int(max(y)), n_top + 1, dtype=float)
        with np.errstate(all="ignore"):
            total = np.exp(-lam_s) * lam_s**ns / factorial(ns)
            for yj in y:
                total = total * (
                    factorial(ns)
                    / (factorial(yj) * factorial(ns - yj))
                    * p_s**yj
                    * (1.0 - p_s) ** (ns - yj)
                )
            return float(np.log(np.sum(total)))

    def recursion(y):
        return row_loglik_detail(
            RowLikelihoodInput(y=y, lam=50.0, p=np.full(y.size, 0.5))
        ).loglik

    # sanity: where floats do not overflow the naive sum agrees, so the
    # later failure is the arithmetic and not a bug in the witness
    modest = np.array([20.0, 18.0, 22.0])
    assert _close(naive_linear(modest, 50.0, 0.5, n_top=150), recursion(modest), 1e-8)

    big = np.array([1000.0, 1000.0, 1000.0])
    naive = naive_linear(big, 50.0, 0.5, n_top=1400)
    finite = recursion(big)
    assert not np.isfinite(naive)
    assert np.isfinite(finite)
    print(
        f"[criterion 3] PASS: recursion {speedup:.2f}x faster than brute force "
        f"(>= 3x) on {n_rows} rows, agreement {err:.2e}; y=1000 loglik "
        f"{finite:.2f} finite where naive linear-space sum is {naive}"
    )


def test_criterion_4_example_recovery(ml_fit, laplace_fit, fit_timings):
    labels = ml_fit.parameter_names
    for name, fit in (("ml", ml_fit), ("laplace", laplace_fit)):
        assert fit.converged
        est = fit.estimates.to_array()
        se = np.sqrt(np.diag(fit.covariance))
        z = (est - TRUE_STACKED) / se
        worst = np.max(np.abs(z))
        for k, label in enumerate(labels):
            assert abs(z[k]) < 1.96, (
                f"{name} misses {label}: estimate {est[k]:.3f}, "
                f"truth {TRUE_STACKED[k]:.3f}, z {z[k]:.2f}"
            )
        assert fit_timings[name] < 60.0
    print(
        "[criterion 4] PASS: all 8 true values inside 95% intervals for both "
        f"engines; fit wall clock ml {fit_timings['ml']:.1f} s, "
        f"laplace {fit_timings['laplace']:.1f} s (each < 60 s)"
    )


# printed reference fits for the mallard data: ML with survey-level
# detection covariates, posterior means with site-averaged ones
_MALLARD_ML = {
    "lambda:(Intercept)": (-1.786, 0.281),
    "lambda:length": (-0.186, 0.214),
    "lambda:elev": (-1.372, 0.293),
    "lambda:forest": (-0.685, 0.216),
    "p:(Intercept)": (-0.028, 0.285),
    "p:ivel": (0.174, 0.227),
    "p:date": (-0.313, 0.147),
    "p:date.sq": (-0.005, 0.081),
    "log_theta": (-0.695, 0.364),
}
_MALLARD_POSTERIOR_ABUNDANCE = {
    "lambda:(Intercept)": -1.412,
    "lambda:length": -0.290,
    "lambda:elev": -0.998,
    "lambda:forest": -0.771,
}
_MALLARD_SIGNIFICANT = {
    "lambda:(Intercept)",
    "lambda:elev",
    "lambda:forest",
    "p:date",
}
_CANONICAL = {
    "p:ivel.m": "p:ivel",
    "p:date.m": "p:date",
    "p:date.m.sq": "p:date.sq",
}


def test_criterion_5_mallard_reproduction():
    try:
        dataset = load_mallard()
    except DataError as exc:
        pytest.fail(
            "[criterion 5] BLOCKED: the mallard counts are not available in "
            "this environment. The dataset ships with an R package and this "
            "sandbox has no network access, so the CSV could not be bundled. "
            "The loader, both model preparations, and the assertions below "
            "are implemented and runnable: export the data per DATA.md and "
            "set NMIXFIT_MALLARD_CSV to the CSV path to execute this test. "
            f"Loader message: {exc}"
        )

    table_s, designs_s, _ = with_survey_detection_covariates(dataset)
    ml = fit_ml(table_s, designs_s, MixtureFamily.NEGBIN)
    assert ml.converged
    rows = {s.name: s for s in summarize_fit(ml)}
    for name, (ref_est, ref_se) in _MALLARD_ML.items():
        got = rows[name]
        assert abs(got.estimate - ref_est) < 0.05, (
            f"{name}: {got.estimate:.3f} vs printed {ref_est:.3f}"
        )
        assert abs(got.se - ref_se) < 0.05, (
            f"{name} SE: {got.se:.3f} vs printed {ref_se:.3f}"
        )

    table_a, designs_a, _ = with_averaged_detection_covariates(dataset)
    lap = fit_laplace(table_a, designs_a, MixtureFamily.NEGBIN)
    assert lap.converged
    lap_est = dict(zip(lap.parameter_names, lap.estimates.to_array()))
    lap_sd = dict(zip(lap.parameter_names, np.sqrt(np.diag(lap.covariance))))
    for name, ref_mean in _MALLARD_POSTERIOR_ABUNDANCE.items():
        assert abs(lap_est[name] - ref_mean) < 0.1, (
            f"{name}: posterior mode {lap_est[name]:.3f} vs printed mean {ref_mean:.3f}"
        )

    coef_names = [n for n in _MALLARD_ML if n != "log_theta"]
    ml_signif = {
        n for n in coef_names if abs(rows[n].estimate) > 1.96 * rows[n].se
    }
    lap_signif = {
        _CANONICAL.get(n, n)
        for n in lap.parameter_names
        if n != "log_theta" and abs(lap_est[n]) > 1.96 * lap_sd[n]
    }
    assert ml_signif == lap_signif == _MALLARD_SIGNIFICANT
    print(
        "[criterion 5] PASS: ML coefficients and SEs within 0.05 of the "
        "printed fit, posterior abundance means within 0.1, and both engines "
        f"flag the same nonzero effects: {sorted(ml_signif)}"
    )


def test_criterion_6_averaging_bias():
    start = time.perf_counter()
    records = run_bias_experiment(runs=50, seed=0, workers=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0

    alphas = ("alpha0", "alpha1", "alpha4")

    def med(model, select):
        vals = [
            abs(r.bias)
            for r in records
            if r.model == model
            and r.parameter in alphas
            and r.converged
            and select(abs(r.a4_true))
        ]
        assert vals, "window selected no runs"
        return float(np.median(vals))

    factors = {}
    for model in ("averaged", "survey"):
        strong = med(model, lambda a: a > 2.0)
        weak = med(model, lambda a: a < 1.0)
        factors[model] = strong / weak
    assert factors["averaged"] >= 2.0
    assert factors["survey"] < 2.0
    print(
        "[criterion 6] PASS: median |bias| ratio strong/weak covariate effect "
        f"is {factors['averaged']:.2f} for the averaged model (>= 2) and "
        f"{factors['survey']:.2f} for the survey model (< 2); "
        f"{elapsed:.0f} s (< 1800 s)"
    )


def test_criterion_7_flat_prior_equivalence(example_sim, ml_fit):
    flat = fit_laplace(
        example_sim.table_mean,
        example_sim.designs_mean,
        MixtureFamily.NEGBIN,
        priors=PriorSpec(normal_precision=1e-8),
    )
    assert flat.converged
    diff = np.abs(flat.estimates.to_array() - ml_fit.estimates.to_array())
    assert np.all(diff < 1e-3), dict(zip(ml_fit.parameter_names, diff))
    print(
        f"[criterion 7] PASS: flat-prior posterior mode within "
        f"{np.max(diff):.2e} of the MLE on every coordinate (< 1e-3)"
    )


def test_criterion_8_posterior_n_properties():
    rng = np.random.default_rng(99)
    n_draws = 200
    lam = rng.uniform(3.0, 8.0, size=n_draws)
    p = rng.uniform(0.2, 0.7, size=(n_draws, 3))
    theta = rng.uniform(1.0, 6.0, size=n_draws)
    y = np.array([4.0, 2.0, 5.0])
    probs = posterior_n(y, lam, p, theta_draws=theta)
    sum_err = abs(float(np.sum(probs)) - 1.0)
    assert sum_err < 1e-12

    point = posterior_n(
        np.array([4.0, 4.0, 4.0]),
        np.array([2.0, 5.0]),
        np.ones((2, 3)),
    )
    assert point[0] == 1.0
    assert np.all(point[1:] == 0.0)

    # y = 0 with Poisson mixing is conjugate: the posterior is the prior
    # thinned by the all-missed probability, still Poisson on the grid
    lam0, p0 = 4.0, np.array([0.3, 0.5])
    probs0 = posterior_n(
        np.zeros(2), np.array([lam0]), p0[None, :], n_grid_max=60
    )
    grid = np.arange(61.0)
    expected = poisson.pmf(grid, lam0 * np.prod(1.0 - p0))
    expected = expected / expected.sum()
    conj_err = float(np.max(np.abs(probs0 - expected)))
    assert conj_err < 1e-10
    print(
        f"[criterion 8] PASS: pmf sums to 1 within {sum_err:.1e} (< 1e-12), "
        "perfect detection collapses to a point mass at max(y), and the "
        f"all-zero Poisson case matches direct summation within {conj_err:.1e} "
        "(< 1e-10)"
    )
