import numpy as np
import pytest

from maskcast.evaluation import MAPE_FLOOR, metrics


def naive_metrics(y_hat, y, floor=MAPE_FLOOR):
    """Straight-line reimplementation with explicit loops."""
    w, f, n, c = y.shape
    per_step = []
    for h in range(f):
        abs_errs, sq_errs, pct = [], [], []
        for i in range(w):
            for j in range(n):
                for k in range(c):
                    e = y_hat[i, h, j, k] - y[i, h, j, k]
                    abs_errs.append(abs(e))
                    sq_errs.append(e * e)
                    if abs(y[i, h, j, k]) >= floor:
                        pct.append(abs(e) / abs(y[i, h, j, k]))
        per_step.append({
            "mae": sum(abs_errs) / len(abs_errs),
            "rmse": (sum(sq_errs) / len(sq_errs)) ** 0.5,
            "mape": 100.0 * sum(pct) / len(pct) if pct else None,
        })
    return per_step


class TestMetricsHandExamples:
    def test_mae_and_rmse(self):
        # errors 1 and 3: MAE 2, RMSE sqrt(5)
        y_hat = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        y = np.zeros((2, 1, 1, 1))
        report = metrics(y_hat, y)
        step = report["per_step"][0]
        assert step["mae"] == 2.0
        np.testing.assert_allclose(step["rmse"], np.sqrt(5.0), rtol=1e-15)

    def test_mape_ten_percent(self):
        y = np.full((1, 1, 1, 1), 10.0)
        y_hat = np.full((1, 1, 1, 1), 11.0)
        report = metrics(y_hat, y)
        np.testing.assert_allclose(report["per_step"][0]["mape"], 10.0, rtol=1e-12)

    def test_zero_targets_excluded_from_mape(self):
        y = np.array([0.0, 10.0]).reshape(2, 1, 1, 1)
        y_hat = np.array([5.0, 11.0]).reshape(2, 1, 1, 1)
        report = metrics(y_hat, y)
        # only the 10 -> 11 point qualifies: 10%
        np.testing.assert_allclose(report["per_step"][0]["mape"], 10.0, rtol=1e-12)

    def test_all_targets_below_floor_gives_none(self):
        y = np.zeros((2, 1, 1, 1))
        report = metrics(np.ones_like(y), y)
        assert report["per_step"][0]["mape"] is None
        assert report["overall"]["mape"] is None

    def test_overall_is_mean_of_steps(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(1, 2, size=(4, 3, 2, 1))
        y_hat = y + rng.normal(size=y.shape)
        report = metrics(y_hat, y)
        np.testing.assert_allclose(
            report["overall"]["mae"],
            np.mean([s["mae"] for s in report["per_step"]]), rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            metrics(np.zeros((2, 1, 1, 1)), np.zeros((3, 1, 1, 1)))


class TestMetricsAgainstNaiveOracle:
    def test_thousand_point_agreement(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(-3, 3, size=(10, 5, 10, 2))  # 1000 points
        y_hat = y + rng.normal(scale=0.5, size=y.shape)
        report = metrics(y_hat, y)
        oracle = naive_metrics(y_hat, y)
        for got, want in zip(report["per_step"], oracle):
            np.testing.assert_allclose(got["mae"], want["mae"], atol=1e-9)
            np.testing.assert_allclose(got["rmse"], want["rmse"], atol=1e-9)
            np.testing.assert_allclose(got["mape"], want["mape"], atol=1e-9)

    def test_denormalization_changes_scale(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(1, 2, size=(4, 3, 2, 1))
        y_hat = y + rng.normal(scale=0.1, size=y.shape)
        plain = metrics(y_hat, y)
        scaled = metrics(y_hat, y, denorm=lambda a: a * 10.0 + 100.0)
        np.testing.assert_allclose(scaled["overall"]["mae"],
                                   10.0 * plain["overall"]["mae"], rtol=1e-12)
        # MAPE shrinks: same absolute spread around much larger targets
        assert scaled["overall"]["mape"] < plain["overall"]["mape"]
