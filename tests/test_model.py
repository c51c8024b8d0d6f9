"""Container validation and linear-predictor evaluation."""

import numpy as np
import pytest

from nmixfit import (
    DesignMatrices,
    MixtureFamily,
    ModelError,
    NumericError,
    ObservationTable,
    ParameterVector,
    detection_probs,
    lambda_values,
)
from nmixfit.model import P_CLAMP, stacked_parameter_names


def _table(counts):
    return ObservationTable(np.asarray(counts, dtype=float))


class TestObservationTable:
    def test_basic_properties(self):
        t = _table([[1, 2, 0], [4, np.nan, 3]])
        assert t.n_rows == 2
        assert t.n_surveys == 3
        assert t.mask.tolist() == [[True, True, True], [True, False, True]]
        assert t.filled_counts()[1, 1] == 0.0
        assert t.row_max().tolist() == [2.0, 4.0]

    def test_default_labels_are_one_based(self):
        t = _table([[1], [2], [3]])
        assert t.site.tolist() == [1, 2, 3]
        assert t.year.tolist() == [1, 1, 1]

    def test_rejects_negative_counts(self):
        with pytest.raises(ModelError):
            _table([[1, -1]])

    def test_rejects_fractional_counts(self):
        with pytest.raises(ModelError):
            _table([[1.5, 2]])

    def test_rejects_infinite_counts(self):
        with pytest.raises(ModelError):
            _table([[np.inf, 2]])

    def test_rejects_fully_missing_row(self):
        with pytest.raises(ModelError, match="row 1"):
            _table([[1, 2], [np.nan, np.nan]])

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ModelError):
            ObservationTable(np.ones((2, 2)), site=np.array([1]), year=np.array([1, 2]))

    def test_counts_are_read_only(self):
        t = _table([[1, 2]])
        with pytest.raises(ValueError):
            t.counts[0, 0] = 5.0


class TestDesignMatrices:
    def test_shapes_and_names(self):
        d = DesignMatrices(
            abundance_design=np.ones((4, 2)),
            detection_design=np.ones((4, 3, 1)),
            abundance_names=("(Intercept)", "x1"),
            detection_names=("(Intercept)",),
        )
        assert d.n_rows == 4
        assert d.n_surveys == 3
        assert d.p_lambda == 2
        assert d.p_detect == 1

    def test_row_count_must_agree(self):
        with pytest.raises(ModelError):
            DesignMatrices(np.ones((4, 1)), np.ones((5, 3, 1)))

    def test_rejects_non_finite(self):
        a = np.ones((4, 1))
        a[2, 0] = np.nan
        with pytest.raises(ModelError):
            DesignMatrices(a, np.ones((4, 3, 1)))

    def test_name_width_mismatch(self):
        with pytest.raises(ModelError, match="names"):
            DesignMatrices(
                np.ones((4, 2)), np.ones((4, 3, 1)), abundance_names=("only-one",)
            )


class TestParameterVector:
    def test_round_trip_with_dispersion(self):
        pv = ParameterVector(
            beta=np.array([1.0, -0.5]), alpha=np.array([0.3]), log_theta=0.7
        )
        x = pv.to_array()
        assert x.tolist() == [1.0, -0.5, 0.3, 0.7]
        back = ParameterVector.from_array(x, 2, 1, has_dispersion=True)
        assert back.beta.tolist() == [1.0, -0.5]
        assert back.log_theta == 0.7
        assert back.theta == pytest.approx(np.exp(0.7))

    def test_round_trip_without_dispersion(self):
        pv = ParameterVector(beta=np.array([1.0]), alpha=np.array([0.0, 2.0]))
        assert pv.theta is None
        assert pv.n_params == 3
        back = ParameterVector.from_array(pv.to_array(), 1, 2, has_dispersion=False)
        assert back.log_theta is None

    def test_from_array_length_check(self):
        with pytest.raises(ModelError):
            ParameterVector.from_array(np.zeros(3), 2, 2, has_dispersion=False)

    def test_rejects_non_finite(self):
        with pytest.raises(ModelError):
            ParameterVector(beta=np.array([np.nan]), alpha=np.array([0.0]))


class TestMixtureFamily:
    def test_dispersion_flags(self):
        assert not MixtureFamily.POISSON.has_dispersion
        assert MixtureFamily.NEGBIN.has_dispersion

    def test_constructed_from_wire_values(self):
        assert MixtureFamily("poisson") is MixtureFamily.POISSON
        assert MixtureFamily("nb") is MixtureFamily.NEGBIN


class TestLinearPredictors:
    def _setup(self):
        designs = DesignMatrices(
            abundance_design=np.array([[1.0, 0.5], [1.0, -0.5]]),
            detection_design=np.tile(
                np.array([[[1.0, 0.2]], [[1.0, -0.2]]]), (1, 2, 1)
            ),
            abundance_names=("(Intercept)", "x"),
            detection_names=("(Intercept)", "w"),
        )
        params = ParameterVector(
            beta=np.array([1.0, 2.0]), alpha=np.array([0.5, -1.0])
        )
        return designs, params

    def test_lambda_values_log_link(self):
        designs, params = self._setup()
        lam = lambda_values(params, designs)
        np.testing.assert_allclose(lam, np.exp([2.0, 0.0]))
        assert lam[1] == pytest.approx(1.0)

    def test_detection_probs_logit_link(self):
        designs, params = self._setup()
        p = detection_probs(params, designs)
        expected = 1.0 / (1.0 + np.exp(-np.array([0.3, 0.7])))
        np.testing.assert_allclose(p[:, 0], expected)
        assert p[0, 1] == pytest.approx(expected[0])

    def test_lambda_overflow_guard(self):
        designs, params = self._setup()
        big = ParameterVector(beta=np.array([400.0, 800.0]), alpha=params.alpha)
        with pytest.raises(NumericError):
            lambda_values(big, designs)

    def test_detection_clamped_inside_unit_interval(self):
        designs, _ = self._setup()
        extreme = ParameterVector(
            beta=np.array([0.0, 0.0]), alpha=np.array([60.0, 0.0])
        )
        p = detection_probs(extreme, designs)
        assert np.all(p < 1.0)
        assert np.all(p >= P_CLAMP)

    def test_wrong_parameter_width(self):
        designs, _ = self._setup()
        bad = ParameterVector(beta=np.array([1.0]), alpha=np.array([0.5, -1.0]))
        with pytest.raises(ModelError):
            lambda_values(bad, designs)


def test_stacked_names_cover_all_blocks():
    designs = DesignMatrices(
        np.ones((3, 2)),
        np.ones((3, 2, 1)),
        abundance_names=("(Intercept)", "x1"),
        detection_names=("(Intercept)",),
    )
    names = stacked_parameter_names(designs, MixtureFamily.NEGBIN)
    assert names == (
        "lambda:(Intercept)",
        "lambda:x1",
        "p:(Intercept)",
        "log_theta",
    )
    assert stacked_parameter_names(designs, MixtureFamily.POISSON)[-1] == "p:(Intercept)"
