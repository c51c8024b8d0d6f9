"""Bias experiment mechanics: record layout, determinism, and the
summary statistic."""

import math

import numpy as np
import pytest

from nmixfit import NumericError, SimConfig, experiments
from nmixfit.experiments import (
    BiasRecord,
    median_abs_bias,
    read_bias_csv,
    run_bias_experiment,
    write_bias_csv,
)

SMALL = SimConfig(n_sites=10, n_surveys=3, n_years=2, seed=0)


@pytest.fixture(scope="module")
def records():
    return run_bias_experiment(runs=3, seed=42, base=SMALL)


class TestRunMechanics:
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


class TestSurveyStart:
    def _starts(self, monkeypatch, fail_averaged):
        """Run one replicate, recording each fit's start and result."""
        calls = []
        real = experiments.fit_laplace

        def recording(table, designs, family, start=None, **kwargs):
            if fail_averaged and not calls:
                calls.append((start, None))
                raise NumericError("averaged fit failed")
            fit = real(table, designs, family, start=start, **kwargs)
            calls.append((start, fit))
            return fit

        monkeypatch.setattr(experiments, "fit_laplace", recording)
        run_bias_experiment(runs=1, seed=42, base=SMALL)
        return calls

    def test_survey_fit_starts_at_the_averaged_optimum(self, monkeypatch):
        (avg_start, avg_fit), (srv_start, _) = self._starts(monkeypatch, fail_averaged=False)
        assert avg_start is None
        assert avg_fit.converged
        assert srv_start is avg_fit.estimates

    def test_failed_averaged_fit_leaves_the_default_start(self, monkeypatch):
        _, (srv_start, srv_fit) = self._starts(monkeypatch, fail_averaged=True)
        assert srv_start is None
        assert srv_fit.converged


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
        assert median_abs_bias(recs, "averaged", a4_window=(None, 2.0)) == pytest.approx(0.1)
        assert median_abs_bias(recs, "averaged", a4_window=(2.0, None)) == pytest.approx(0.5)

    def test_window_applies_to_magnitude(self):
        recs = [
            self._rec(0, "averaged", "alpha0", 0.1, a4=-2.5),
            self._rec(1, "averaged", "alpha0", 0.5, a4=0.5),
        ]
        assert median_abs_bias(recs, "averaged", a4_window=(2.0, None)) == pytest.approx(0.1)

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
        assert head == "run,a4_true,model,parameter,truth,estimate,bias,converged"


class TestRecoveryDirection:
    def test_detection_bias_grows_with_averaging(self, records):
        # even on this tiny grid the averaged model should not beat the
        # survey model on the detection parameters
        avg = median_abs_bias(records, "averaged")
        srv = median_abs_bias(records, "survey")
        assert np.isfinite(avg) and np.isfinite(srv)
        assert avg >= srv
