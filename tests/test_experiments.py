"""Bias experiment mechanics: record layout, determinism, and the
summary statistic."""

import concurrent.futures
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from nmixfit import DataError, ModelError, SimConfig, experiments, fit_laplace, likelihood, simulate
from nmixfit.experiments import (
    BiasRecord,
    median_abs_bias,
    run_bias_experiment,
    total_kernel_passes,
    write_bias_csv,
)

from biascsv import read_bias_csv

SMALL = SimConfig(n_sites=10, n_surveys=3, n_years=2, seed=0)


@pytest.fixture(scope="module")
def records():
    return run_bias_experiment(runs=3, seed=42, base=SMALL)


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools a sweep opens; their tasks run here."""
    opened = []

    class InProcessPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    # run_bias_experiment imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return opened


class TestRunMechanics:
    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"runs": 0}, "runs must be at least 1"),
            ({"base": SimConfig(theta=None)}, "requires a dispersion parameter"),
            ({"runs": 2, "workers": 0}, "workers must be at least 1"),
            ({"runs": 2, "workers": -1}, "workers must be at least 1"),
        ],
    )
    def test_invalid_settings_are_model_errors(self, settings, message):
        with pytest.raises(ModelError, match=message):
            run_bias_experiment(**settings)

    def test_record_count(self, records):
        # runs x {averaged, survey} x 8 tracked parameters
        assert len(records) == 3 * 2 * 8

    def test_models_and_parameters(self, records):
        assert {r.model for r in records} == {"averaged", "survey"}
        assert {r.parameter for r in records} == {
            "beta0", "beta1", "beta2", "beta3",
            "alpha0", "alpha1", "alpha4", "log_theta",
        }

    def test_bias_is_estimate_minus_truth(self, records):
        for r in records:
            if r.converged:
                assert r.bias == pytest.approx(r.estimate - r.truth, rel=1e-12)

    def test_a4_draws_live_in_the_declared_range(self, records):
        for r in records:
            assert -3.0 <= r.a4_true <= 3.0

    def test_a4_shared_within_a_run(self, records):
        by_run = {}
        for r in records:
            by_run.setdefault(r.run, set()).add(r.a4_true)
        assert all(len(v) == 1 for v in by_run.values())

    def test_runs_prefix_is_stable(self, records):
        shorter = run_bias_experiment(runs=2, seed=42, base=SMALL)
        assert shorter == records[: len(shorter)]

    def test_workers_do_not_change_results(self, records):
        parallel = run_bias_experiment(runs=3, seed=42, workers=2, base=SMALL)
        assert parallel == records

    def test_pool_has_no_more_workers_than_runs(self, records, pools):
        per_run = 2 * 8
        assert run_bias_experiment(runs=2, seed=42, workers=8, base=SMALL) == records[: 2 * per_run]
        assert run_bias_experiment(runs=1, seed=42, workers=8, base=SMALL) == records[:per_run]
        assert pools == [2]


def _recorded_run(monkeypatch, **settings):
    """Run a sweep, recording each replicate's configuration and the start
    of each problem handed to the fit driver."""
    configs, starts = [], []
    real_fit, real_simulate = experiments._fit, experiments.simulate

    def recording_simulate(config):
        configs.append(config)
        return real_simulate(config)

    def recording_fit(problems):
        starts.extend(start for *_, start in problems)
        return real_fit(problems)

    monkeypatch.setattr(experiments, "simulate", recording_simulate)
    monkeypatch.setattr(experiments, "_fit", recording_fit)
    return configs, starts, run_bias_experiment(**settings)


class TestGeneratingStart:
    """Both fits of a replicate start at its generating values, which are
    also the records' truth column, and the records hold what fit_laplace
    returns from there."""

    def _fits(self, monkeypatch):
        configs, starts, records = _recorded_run(monkeypatch, runs=1, seed=42, base=SMALL)
        (config,) = configs
        return config, starts, records

    def test_both_fits_start_at_the_generating_values(self, monkeypatch):
        config, starts, _ = self._fits(monkeypatch)
        assert len(starts) == 2
        for start in starts:
            assert start.to_array().tolist() == config.parameters.to_array().tolist()

    def test_truth_column_is_the_generating_values(self, monkeypatch):
        config, _, records = self._fits(monkeypatch)
        truth = config.parameters.to_array().tolist()
        for model in ("averaged", "survey"):
            assert [r.truth for r in records if r.model == model] == truth

    def test_records_hold_the_fit_from_the_generating_values(self, monkeypatch):
        """Each record's estimate, convergence, passes and message are those
        of fit_laplace started at the generating values, to the bit."""
        config, _, records = self._fits(monkeypatch)
        _assert_records_hold_single_fits(records, [config])

    def test_a_failed_fit_records_no_passes_and_its_error(self, monkeypatch):
        """The averaged fit starts where lambda overflows exp(), so its
        objective is not finite at the start; the survey fit, in the same
        lock-step group, does not depend on it."""
        real = experiments._fit

        def averaged_from_overflow(problems):
            spoilt = []
            for table, designs, family, prior, start in problems:
                if "x4.m" in designs.detection_names:
                    start = dataclasses.replace(start, beta=np.r_[1e3, start.beta[1:]])
                spoilt.append((table, designs, family, prior, start))
            return real(spoilt)

        monkeypatch.setattr(experiments, "_fit", averaged_from_overflow)
        records = run_bias_experiment(runs=1, seed=42, base=SMALL)
        failed = [r for r in records if r.model == "averaged"]
        assert all(math.isnan(r.estimate) and not r.converged for r in failed)
        assert {(r.kernel_passes, r.optimizer_message) for r in failed} == {
            (0, "objective is not finite at the starting point: "
                "abundance linear predictor 1002.99 at row 18 overflows exp()")
        }
        reference = run_bias_experiment(runs=1, seed=42, base=SMALL)
        survey = [r for r in records if r.model == "survey"]
        assert survey == [r for r in reference if r.model == "survey"]


def _assert_records_hold_single_fits(records, configs):
    """The records of each replicate's two fits, in run order, hold to the
    bit what fit_laplace gives each fit alone from the generating values."""
    for run, config in enumerate(configs):
        sim = simulate(config)
        for model, designs in (("averaged", sim.designs_mean), ("survey", sim.designs_survey)):
            fit = fit_laplace(sim.table_survey, designs, config.family, start=config.parameters)
            rows = [r for r in records if (r.run, r.model) == (run, model)]
            assert [r.estimate for r in rows] == fit.estimates.to_array().tolist()
            assert {(r.converged, r.kernel_passes, r.optimizer_message) for r in rows} == {
                (fit.converged, fit.kernel_passes, fit.optimizer_message)
            }


def test_generating_values_in_the_stacked_layout():
    config = SimConfig(beta=(1.0, 2.0, 3.0, 4.0), alpha=(0.5, -0.5, 2.0), theta=2.5)
    params = config.parameters
    assert params.to_array().tolist() == [1.0, 2.0, 3.0, 4.0, 0.5, -0.5, 2.0, float(np.log(2.5))]
    assert params.n_params == 8
    poisson = SimConfig(theta=None).parameters
    assert poisson.log_theta is None and poisson.n_params == 7


def test_paper_scale_round_takes_at_most_44_kernel_passes():
    """One round of the paper-scale sweep (4 replicates, 8 fits) from the
    generating values: 42 passes; from the default start it took 61."""
    records = run_bias_experiment(runs=4, seed=0)
    assert all(r.converged for r in records)
    assert total_kernel_passes(records) <= 44


class TestPassSharing:
    """The fits of the paper-scale round run as one lock-step group."""

    def test_eight_fits_share_each_kernel_call(self, monkeypatch):
        """Its 8 fits still take 42 passes in all, but share at most 8
        kernel calls (one per step of the slowest fit), not 42."""
        moments = []
        kernel = likelihood._batch_series

        def counting(*args, **kwargs):
            moments.append(kwargs["moments"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(likelihood, "_batch_series", counting)
        records = run_bias_experiment(runs=4, seed=0)
        assert total_kernel_passes(records) == 42
        assert all(moments) and len(moments) <= 8

    @pytest.mark.parametrize("runs, workers", [(4, 1), (50, 1), (50, 2), (50, 8), (7, 4), (3, 8)])
    def test_each_worker_takes_as_many_groups(self, monkeypatch, pools, runs, workers):
        """Consecutive groups of near-equal size, each within the group cap
        (6 replicates of the default 648-row tables), and as many for
        every worker while there are runs enough."""
        groups = []
        monkeypatch.setattr(experiments, "_run_group", lambda g: groups.append([p[0] for p in g]) or [])
        run_bias_experiment(runs=runs, seed=0, workers=workers)
        sizes = [len(g) for g in groups]
        assert [run for g in groups for run in g] == list(range(runs))
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= experiments._GROUP_ROWS // (2 * 648)
        assert len(groups) % min(workers, runs) == 0 or len(groups) == runs

    def test_records_hold_single_fits(self, monkeypatch):
        configs, _, records = _recorded_run(monkeypatch, runs=4, seed=0)
        _assert_records_hold_single_fits(records, configs)

    def test_memory_does_not_grow_with_the_runs(self):
        """A group keeps its replicates' tables and designs, not their
        simulations, and at most experiments._GROUP_ROWS rows: 40 runs peak
        within 1 MiB of 12 (numpy reports its buffers to tracemalloc)."""
        peaks = []
        for runs in (12, 40):
            tracemalloc.start()
            try:
                run_bias_experiment(runs=runs, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**20


class TestMedianAbsBias:
    def _rec(self, run, model, parameter, bias, a4=0.0, converged=True):
        return BiasRecord(
            run=run, a4_true=a4, model=model, parameter=parameter,
            truth=1.0, estimate=1.0 + bias, bias=bias, converged=converged,
        )

    def test_median_over_selected_parameters(self):
        recs = [
            self._rec(0, "averaged", "alpha0", 0.1),
            self._rec(0, "averaged", "alpha1", -0.3),
            self._rec(0, "averaged", "alpha4", 0.2),
            self._rec(0, "averaged", "beta0", 9.0),  # not selected
            self._rec(0, "survey", "alpha0", 99.0),  # wrong model
        ]
        assert median_abs_bias(recs, "averaged") == pytest.approx(0.2)

    def test_window_is_half_open(self):
        recs = [
            self._rec(0, "averaged", "alpha0", 0.1, a4=1.0),
            self._rec(1, "averaged", "alpha0", 0.5, a4=2.0),
        ]
        assert median_abs_bias(recs, "averaged", a4_window=(1.0, 2.0)) == pytest.approx(0.1)
        assert median_abs_bias(recs, "averaged", a4_window=(0.0, 2.0)) == pytest.approx(0.1)
        assert median_abs_bias(recs, "averaged", a4_window=(2.0, math.inf)) == pytest.approx(0.5)

    def test_window_applies_to_magnitude(self):
        recs = [
            self._rec(0, "averaged", "alpha0", 0.1, a4=-2.5),
            self._rec(1, "averaged", "alpha0", 0.5, a4=0.5),
        ]
        assert median_abs_bias(recs, "averaged", a4_window=(2.0, math.inf)) == pytest.approx(0.1)

    def test_nonconverged_records_are_excluded(self):
        recs = [
            self._rec(0, "averaged", "alpha0", 0.1),
            self._rec(1, "averaged", "alpha0", 50.0, converged=False),
        ]
        assert median_abs_bias(recs, "averaged") == pytest.approx(0.1)

    def test_empty_selection_is_nan(self):
        assert math.isnan(median_abs_bias([], "averaged"))

    def test_sign_never_cancels(self):
        recs = [
            self._rec(0, "averaged", "alpha0", -0.4),
            self._rec(1, "averaged", "alpha0", 0.4),
        ]
        assert median_abs_bias(recs, "averaged") == pytest.approx(0.4)


class TestCsvRoundTrip:
    def test_write_then_read(self, records, tmp_path):
        path = tmp_path / "bias.csv"
        write_bias_csv(records, path)
        back = read_bias_csv(path)
        assert len(back) == len(records)
        for a, b in zip(back, records):
            assert a.run == b.run
            assert a.model == b.model
            assert a.parameter == b.parameter
            assert a.converged == b.converged
            assert a.a4_true == pytest.approx(b.a4_true, rel=1e-12)
            if b.converged:
                assert a.bias == pytest.approx(b.bias, rel=1e-12)

    def test_header(self, records, tmp_path):
        path = tmp_path / "bias.csv"
        write_bias_csv(records, path)
        head = path.read_text().splitlines()[0]
        assert head == (
            "run,a4_true,model,parameter,truth,estimate,bias,converged,"
            "kernel_passes,optimizer_message"
        )


    def test_failed_fit_and_full_precision_round_trip(self, tmp_path):
        """NaN is an empty cell, booleans are true/false, and a float keeps
        all 17 significant digits."""
        records = [
            BiasRecord(0, 1.0 / 3.0, "averaged", "alpha4", 1.0 / 3.0, math.nan, math.nan, False,
                       0, "objective is not finite at the starting point"),
            BiasRecord(0, 1.0 / 3.0, "survey", "alpha4", 1.0 / 3.0, 0.5, 0.5 - 1.0 / 3.0, True,
                       4, "Optimization terminated successfully."),
        ]
        path = tmp_path / "bias.csv"
        write_bias_csv(records, path)
        assert path.read_text().splitlines()[1:] == [
            "0,0.33333333333333331,averaged,alpha4,0.33333333333333331,,,false,"
            "0,objective is not finite at the starting point",
            "0,0.33333333333333331,survey,alpha4,0.33333333333333331,0.5,0.16666666666666669,true,"
            "4,Optimization terminated successfully.",
        ]
        failed, fitted = read_bias_csv(path)
        assert math.isnan(failed.estimate) and math.isnan(failed.bias)
        assert failed.converged is False
        assert (failed.run, failed.a4_true, failed.truth) == (0, 1.0 / 3.0, 1.0 / 3.0)
        assert (failed.kernel_passes, failed.optimizer_message) == (0, records[0].optimizer_message)
        assert fitted == records[1]

    def test_file_without_the_cost_columns_reads_with_defaults(self, tmp_path):
        path = tmp_path / "bias.csv"
        path.write_text(
            "run,a4_true,model,parameter,truth,estimate,bias,converged\n"
            "0,0.5,survey,alpha4,0.5,0.75,0.25,true\n"
        )
        assert read_bias_csv(path) == [
            BiasRecord(0, 0.5, "survey", "alpha4", 0.5, 0.75, 0.25, True, 0, "")
        ]


class TestCsvFaults:
    """A bias CSV that is not write_bias_csv's output raises DataError
    naming the file."""

    HEADER = "run,a4_true,model,parameter,truth,estimate,bias,converged\n"

    def _read(self, tmp_path, text):
        path = tmp_path / "bias.csv"
        path.write_text(text)
        return path, pytest.raises(DataError, match=re.escape(f"bias CSV {path}"))

    def test_missing_column(self, tmp_path):
        path, raises = self._read(
            tmp_path, "run,a4_true,model,parameter,truth,estimate,bias\n0,1,averaged,alpha4,1,,\n"
        )
        with raises as info:
            read_bias_csv(path)
        assert str(info.value).endswith("lacks the column(s) converged")

    def test_unparsable_cell_names_line_and_column(self, tmp_path):
        path, raises = self._read(
            tmp_path,
            self.HEADER + "0,1,averaged,alpha4,1,,,false\n1,one,averaged,alpha4,1,,,false\n",
        )
        with raises as info:
            read_bias_csv(path)
        assert str(info.value).endswith("line 3: cannot parse a4_true='one' as float")

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(DataError, match=re.escape(f"cannot read bias CSV {path}: ")):
            read_bias_csv(path)

    @pytest.mark.parametrize("token", ["True", "1", ""])
    def test_boolean_other_than_true_or_false(self, tmp_path, token):
        path, raises = self._read(tmp_path, self.HEADER + f"0,1,averaged,alpha4,1,,,{token}\n")
        with raises as info:
            read_bias_csv(path)
        assert str(info.value).endswith(f"line 2: cannot parse converged={token!r} as bool")


class TestRecoveryDirection:
    def test_detection_bias_grows_with_averaging(self, records):
        # even on this tiny grid the averaged model should not beat the
        # survey model on the detection parameters
        avg = median_abs_bias(records, "averaged")
        srv = median_abs_bias(records, "survey")
        assert np.isfinite(avg) and np.isfinite(srv)
        assert avg >= srv
