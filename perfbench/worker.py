"""One workload in one fresh process: set-up, timed rounds, checks.

run.py starts this file with the thread pools pinned and ``src`` on the
path.  Set-up ends when the inputs are ready and one untimed warm-up
operation has run; ``setup_s`` is the time from the moment run.py
spawned this process until then, on the system-wide monotonic clock.
The timed phase repeats whole rounds of the same operations within
``--seconds``, so every run fails the same share of the operations it
attempts.  Checks run after the timed phase, outside it.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import NullTracer, Tracer, layer_metrics

OUT = Path(__file__).resolve().parent / "out"

# generating values of the simulator's defaults, stacked (beta, alpha, log_theta)
TRUE_STACKED = np.array([2.0, 2.0, -3.0, 1.0, 1.0, -2.0, 1.0, math.log(3.0)])
N_COEF = 7


def _warm_config(nmixfit):
    # small enough to cost well under a second, large enough to fit 8 parameters
    return nmixfit.SimConfig(n_sites=24, n_years=2, seed=0)


class PaperAnalysis:
    """A user's analysis of paper-scale data sets through the CLI, in-process.

    Seed 6 is the test suite's example, whose ML fit takes the Newton
    polish path; seed 1 is a typical data set.  The data sets are fixed
    because a fit's cost hangs on the data down to rounding: row order
    alone moves seed 6's ML fit from 1,405 to 588 likelihood passes.
    The run seed draws the posterior samples and the posterior-n row.
    """

    DATASETS = (6, 1)
    SAMPLES = 4000
    MODEL = ["--family", "nb", "--lambda-covariates", "x1,x2,x3", "--p-covariates", "x1,x4.m"]

    def __init__(self, nmixfit, seed, work):
        self.nmixfit = nmixfit
        self.seed = seed
        self.work = work
        self.rows: dict[int, int] = {}

    def _main(self, argv):
        return self.nmixfit.cli.main([str(a) for a in argv])

    def make_inputs(self):
        rng = np.random.default_rng(self.seed)
        self.draw_seed = int(rng.integers(0, 2**31 - 1))
        for s in self.DATASETS:
            if self._main(["simulate", "--seed", s, "--output-dir", self.work / f"data{s}"]) != 0:
                raise RuntimeError(f"simulate --seed {s} failed")
            truth = _read_csv(self.work / f"data{s}" / "sim_truth.csv")
            lam = np.array([float(r["lambda"]) for r in truth])
            # rows whose abundance is near the median, so the posterior-n
            # grid, and with it the cost, hardly depends on the draw
            near = np.flatnonzero(np.abs(lam / np.median(lam) - 1.0) < 0.1)
            self.rows[s] = int(rng.choice(near)) + 1

    def warm_up(self):
        warm = self.work / "warm"
        cfg = _warm_config(self.nmixfit)
        self._main(["simulate", "--sites", cfg.n_sites, "--years", cfg.n_years, "--output-dir", warm])
        self._main(["fit", "--dataset", warm / "sim_counts_mean.csv", "--engine", "laplace",
                    *self.MODEL, "--output-dir", warm])

    def _ops(self, s):
        data = ["--dataset", self.work / f"data{s}" / "sim_counts_mean.csv", *self.MODEL]
        draws = ["--samples", self.SAMPLES, "--seed", self.draw_seed]
        return (
            ("fit-ml", ["fit", *data, "--engine", "ml"]),
            ("fit-laplace", ["fit", *data, "--engine", "laplace"]),
            ("lambda-fitted", ["lambda-fitted", *data, "--engine", "laplace", *draws]),
            ("posterior-n", ["posterior-n", *data, "--engine", "laplace", *draws,
                             "--row", self.rows[s]]),
        )

    def run_round(self, k, tracer):
        attempted = failed = 0
        for s in self.DATASETS:
            for op, argv in self._ops(s):
                out = self.work / f"round{k}" / f"data{s}" / op
                with tracer.span("cli.main", op=op):
                    code = self._main([*argv, "--output-dir", out])
                attempted += 1
                failed += code != 0
        return attempted, failed, self.work / f"round{k}"

    def _outputs(self, round_dir, s):
        d = round_dir / f"data{s}"
        fits = {}
        for engine in ("ml", "laplace"):
            with open(d / f"fit-{engine}" / "fit.json") as handle:
                fit = json.load(handle)
            fit.pop("wallclock_seconds")
            fits[engine] = fit
        lam = (d / "lambda-fitted" / "lambda_fitted.csv").read_text()
        post = (d / "posterior-n" / "posterior_n.csv").read_text()
        return fits, lam, post

    def check(self, results):
        import oracle

        problems = []
        first = results[0]
        for s in self.DATASETS:
            fits, lam_text, post_text = self._outputs(first, s)
            for other in results[1:]:
                if self._outputs(other, s) != (fits, lam_text, post_text):
                    problems.append(f"data{s}: {other.name} differs from {first.name}")
            y, abundance, detection = _paper_design(self.work / f"data{s}" / "sim_counts_mean.csv")
            for engine, fit in fits.items():
                # the Laplace engine reports the log posterior kernel
                def f(x, with_prior=engine == "laplace"):
                    ll = oracle.model_loglik(x, abundance, detection, y)
                    return ll + oracle.log_prior(x, N_COEF) if with_prior else ll

                x_hat = np.array(fit["estimates"])
                ref = f(x_hat)
                tag = f"data{s} {engine}"
                if not fit["converged"]:
                    problems.append(f"{tag}: not converged")
                if abs(fit["loglik"] - ref) > 1e-8 * abs(ref):
                    problems.append(f"{tag}: loglik {fit['loglik']!r} vs oracle {ref!r}")
                grad = np.max(np.abs(oracle.central_gradient(f, x_hat)))
                if not grad < 1e-3:
                    problems.append(f"{tag}: oracle gradient {grad:.3g} at the estimates")
                at_truth = f(TRUE_STACKED)
                if not ref >= at_truth:
                    problems.append(f"{tag}: objective {ref!r} below its value at the truth {at_truth!r}")
            problems += _check_lambda_fitted(oracle, fits["laplace"], abundance, lam_text,
                                             self.SAMPLES, f"data{s}")
            problems += _check_posterior_n(post_text, y[self.rows[s] - 1], f"data{s}")
        return problems


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _paper_design(path):
    """Counts and designs of a simulated CSV, read without nmixfit."""
    rows = _read_csv(path)
    y = np.array([[float(r[f"y{j}"]) for j in (1, 2, 3)] for r in rows])
    col = {name: np.array([float(r[name]) for r in rows]) for name in ("x1", "x2", "x3", "x4.m")}
    ones = np.ones(len(rows))
    abundance = np.column_stack([ones, col["x1"], col["x2"], col["x3"]])
    detection = np.repeat(np.column_stack([ones, col["x1"], col["x4.m"]])[:, None, :], 3, axis=1)
    return y, abundance, detection


def _check_lambda_fitted(oracle, fit, abundance, text, n_draws, tag):
    """Sample medians and means against the log-normal closed forms, within
    six Monte Carlo standard errors."""
    k = abundance.shape[1]
    beta = np.array(fit["estimates"][:k])
    cov = np.array(fit["covariance"])[:k, :k]
    median, mean, sd_log = oracle.lognormal_lambda(abundance, beta, cov)
    rows = list(csv.DictReader(text.splitlines()))
    got_median = np.array([float(r["median"]) for r in rows])
    got_mean = np.array([float(r["mean"]) for r in rows])
    se_median = 1.2533 * sd_log / math.sqrt(n_draws)
    se_mean = np.sqrt(np.expm1(sd_log**2)) / math.sqrt(n_draws)
    problems = []
    if len(rows) != abundance.shape[0]:
        problems.append(f"{tag} lambda-fitted: {len(rows)} rows, expected {abundance.shape[0]}")
        return problems
    bad = np.abs(got_median / median - 1.0) > 6.0 * se_median
    if bad.any():
        problems.append(f"{tag} lambda-fitted: {int(bad.sum())} medians off the closed form")
    bad = np.abs(got_mean / mean - 1.0) > 6.0 * se_mean
    if bad.any():
        problems.append(f"{tag} lambda-fitted: {int(bad.sum())} means off the closed form")
    return problems


def _check_posterior_n(text, y_row, tag):
    rows = list(csv.DictReader(text.splitlines()))
    n = np.array([int(r["n"]) for r in rows])
    prob = np.array([float(r["probability"]) for r in rows])
    problems = []
    if abs(prob.sum() - 1.0) > 1e-9:
        problems.append(f"{tag} posterior-n: pmf sums to {prob.sum()!r}")
    if n[0] != int(np.max(y_row)):
        problems.append(f"{tag} posterior-n: grid starts at {n[0]}, max(y) is {np.max(y_row):.0f}")
    if not prob[-1] < 1e-10:
        problems.append(f"{tag} posterior-n: {prob[-1]:.3g} of the mass on the last grid point")
    return problems


class BiasSweep:
    """The paper's simulation study: ``run_bias_experiment`` with one worker.

    Replicates are fixed (experiment seed 0, first 4 replicates): their
    cost varies fourfold with the seed (3-replicate sweeps took 13-60 s
    over seeds 0-5), so drawing them from the run seed would swamp any
    bound.  The run seed does not enter this workload.
    """

    RUNS = 4
    EXPERIMENT_SEED = 0

    def __init__(self, nmixfit, seed, work):
        self.nmixfit = nmixfit
        self.experiments = nmixfit.experiments

    def make_inputs(self):
        pass

    def warm_up(self):
        self.experiments.run_bias_experiment(runs=1, base=_warm_config(self.nmixfit))

    def run_round(self, k, tracer):
        with tracer.span("experiments.run_bias_experiment"):
            records = self.experiments.run_bias_experiment(
                runs=self.RUNS, seed=self.EXPERIMENT_SEED, workers=1
            )
        fits = {(r.run, r.model): r.converged for r in records}
        return len(fits), sum(not ok for ok in fits.values()), records

    def check(self, results):
        import oracle

        nmixfit = self.nmixfit
        records = results[0]
        problems = [f"round {i} differs from round 0" for i, r in enumerate(results) if r != records]
        # the experiment's seeding: one stream for a4, one for the simulation seeds
        a4_stream, seed_stream = np.random.SeedSequence(self.EXPERIMENT_SEED).spawn(2)
        a4 = np.random.default_rng(a4_stream).uniform(-3.0, 3.0, size=self.RUNS)
        sim_seeds = np.random.default_rng(seed_stream).integers(0, 2**63 - 1, size=self.RUNS)
        for run in range(self.RUNS):
            sim = nmixfit.simulate(nmixfit.SimConfig(alpha=(1.0, -2.0, a4[run]), seed=int(sim_seeds[run])))
            y = np.asarray(sim.table_survey.counts)
            truth = TRUE_STACKED.copy()
            truth[6] = a4[run]
            start = np.zeros(8)
            start[0] = math.log(float(np.mean(np.max(y, axis=1))) + 0.5)
            for model, designs in (("averaged", sim.designs_mean), ("survey", sim.designs_survey)):
                fit = [r for r in records if r.run == run and r.model == model]
                tag = f"replicate {run} {model}"
                if any(r.a4_true != a4[run] for r in fit):
                    problems.append(f"{tag}: a4 {fit[0].a4_true!r} is not the seeded {a4[run]!r}")
                    continue
                if not all(r.converged for r in fit):
                    problems.append(f"{tag}: not converged")
                    continue
                abundance = np.asarray(designs.abundance_design)
                detection = np.asarray(designs.detection_design)

                def f(x):
                    return oracle.model_loglik(x, abundance, detection, y) + oracle.log_prior(x, N_COEF)

                at_hat = f(np.array([r.estimate for r in fit]))
                for label, point in (("truth", truth), ("default start", start)):
                    value = f(point)
                    if not at_hat >= value:
                        problems.append(f"{tag}: log posterior {at_hat!r} below {value!r} at the {label}")
        return problems


class KernelRegimes:
    """``table_row_logliks`` on large intercept-only Poisson tables, three
    surveys a row, in three regimes, plus two single rows that the fixed
    hard cap of the series makes raise a false "divergent" error.
    The run seed draws every table."""

    # name: (lambda, p, tables, rows per table); sized so each regime takes
    # a comparable share of a round
    REGIMES = {
        "typical": (50.0, 0.5, 10, 20000),
        "sparse": (2000.0, 0.02, 7, 500),
        "large": (2000.0, 0.5, 9, 1000),
    }
    SURVEYS = 3
    # (lambda, p, y): single-survey rows with true values -25.98 and -10.27
    FALSE_DIVERGENT = ((5e4, 0.001, 10.0), (2e4, 0.01, 150.0))
    CHECK_ROWS = 12
    PROBE_ROWS = 200
    PROBE_SEED = 2017

    def __init__(self, nmixfit, seed, work):
        self.nmixfit = nmixfit
        self.seed = seed

    def _table(self, counts, lam, p):
        m = self.nmixfit
        n, j = counts.shape
        return (
            m.ParameterVector(beta=[math.log(lam)], alpha=[math.log(p / (1.0 - p))]),
            m.ObservationTable(counts=counts),
            m.DesignMatrices(np.ones((n, 1)), np.ones((n, j, 1))),
        )

    def _counts(self, rng, lam, p, rows):
        n_latent = rng.poisson(lam, size=rows)
        return rng.binomial(n_latent[:, None], p, size=(rows, self.SURVEYS)).astype(float)

    def make_inputs(self):
        rng = np.random.default_rng(self.seed)
        self.tables = [
            (name, lam, p, self._table(self._counts(rng, lam, p, rows), lam, p))
            for name, (lam, p, n_tables, rows) in self.REGIMES.items()
            for _ in range(n_tables)
        ]
        self.single = [
            (lam, p, y, self._table(np.array([[y]]), lam, p)) for lam, p, y in self.FALSE_DIVERGENT
        ]

    def _eval(self, table):
        params, obs, designs = table
        return self.nmixfit.table_row_logliks(params, obs, designs, self.nmixfit.MixtureFamily.POISSON)

    def warm_up(self):
        rng = np.random.default_rng(0)
        for lam, p, _, _ in self.REGIMES.values():
            self._eval(self._table(self._counts(rng, lam, p, 16), lam, p))

    def run_round(self, k, tracer):
        out = []
        for name, _, _, table in self.tables:
            with tracer.span("likelihood.table_row_logliks", regime=name, rows=table[1].n_rows):
                out.append(self._eval(table))
        failed = 0
        for _, _, _, table in self.single:
            try:
                with tracer.span("likelihood.table_row_logliks", regime="false-divergent", rows=1):
                    out.append(self._eval(table))
            except self.nmixfit.NumericError:
                out.append(None)
                failed += 1
        return len(out), failed, out

    def check(self, results):
        import oracle

        first = results[0]
        problems = []
        for i, other in enumerate(results[1:], start=1):
            same = all(
                (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))
                for a, b in zip(first, other)
            )
            if not same:
                problems.append(f"round {i} differs from round 0")
        rng = np.random.default_rng([self.seed, 1])
        for name, (lam, p, _, _) in self.REGIMES.items():
            picks = [(i, r) for i, t in enumerate(self.tables) if t[0] == name
                     for r in range(t[3][1].n_rows)]
            chosen = [picks[c] for c in rng.choice(len(picks), self.CHECK_ROWS, replace=False)]
            y = np.array([np.asarray(self.tables[i][3][1].counts)[r] for i, r in chosen])
            got = np.array([first[i][r] for i, r in chosen])
            ref = oracle.row_logliks(y, np.full(y.shape, p), np.full(len(y), lam))
            err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            if not np.all(err <= 1e-10):
                problems.append(f"{name}: worst error {np.max(err):.3g} against the oracle")
        for (lam, p, y, _), value in zip(self.single, first[len(self.tables):]):
            if value is not None:
                ref = oracle.thinned_poisson(y, lam, p)
                if not abs(value[0] - ref) <= 1e-10 * max(1.0, abs(ref)):
                    problems.append(f"lam={lam:g}, p={p:g}, y={y:g}: {value[0]!r}, identity {ref!r}")
        return problems

    def terms_per_row(self):
        """Mean terms summed per row over a fixed sample of each regime."""
        m = self.nmixfit
        rng = np.random.default_rng(self.PROBE_SEED)
        probes = {}
        for name, (lam, p, _, _) in self.REGIMES.items():
            counts = self._counts(rng, lam, p, self.PROBE_ROWS)
            probes[f"likelihood.terms_per_row.{name}"] = statistics.fmean(
                m.row_loglik_detail(m.RowLikelihoodInput(y=y, p=np.full(self.SURVEYS, p), lam=lam)).n_terms
                for y in counts
            )
        return probes


WORKLOADS = {
    "paper-analysis": PaperAnalysis,
    "bias-sweep": BiasSweep,
    "kernel-regimes": KernelRegimes,
}


def timed_rounds(workload, seconds, tracer, traced, first_round):
    """Whole rounds for as long as another median round still fits in
    ``seconds``; at least one."""
    times, attempted, failed, outputs = [], 0, 0, []
    start = time.monotonic()
    while not times or time.monotonic() - start + statistics.median(times) <= seconds:
        k = first_round + len(times)
        with tracer.span("bench.round", traced=traced):
            t0 = time.perf_counter()
            a, f, out = workload.run_round(k, tracer)
            times.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        outputs.append(out)
    return times, attempted, failed, outputs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import nmixfit

    import_s = time.perf_counter() - t0
    import nmixfit.cli
    import nmixfit.experiments

    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else NullTracer()
    null = NullTracer()
    try:
        workload = WORKLOADS[args.workload](nmixfit, args.seed, work)
        with tracer.installed(), tracer.span("bench.setup"):
            workload.make_inputs()
        workload.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return

        if args.trace:
            # a fresh process's first round pays for its allocator growing
            # (page faults), so one untimed round goes first and both timed
            # phases start warm
            warm = timed_rounds(workload, 0, null, False, 0)
            plain = timed_rounds(workload, args.seconds / 2, null, False, 1)
            with tracer.installed():
                traced = timed_rounds(workload, args.seconds / 2, tracer, True, 1 + len(plain[0]))
            phases = (warm, plain, traced)
        else:
            plain = timed_rounds(workload, args.seconds, null, False, 0)
            phases = (plain,)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        outputs = [out for phase in phases for out in phase[3]]
        problems = workload.check(outputs)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": sum(phase[1] for phase in phases),
            "failed": sum(phase[2] for phase in phases),
            "round_s": [phase[0] for phase in phases],
            "setup_s": setup_s,
            "run_s": statistics.median(plain[0]),
            "peak_rss_mb": peak_rss_mb,
        }
        if args.trace:
            probes = {
                "cli.import_s": import_s,
                "trace.overhead_s": statistics.median(traced[0]) - statistics.median(plain[0]),
            }
            if isinstance(workload, KernelRegimes):
                probes.update(workload.terms_per_row())
            result["per_layer"] = layer_metrics(tracer.spans, probes)
            traces = OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{args.workload}-seed{args.seed}.json")
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
