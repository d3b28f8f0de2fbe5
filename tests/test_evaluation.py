"""Error metrics, mispricing classification, report assembly, and the
closed-form baselines."""

import csv
import json
import math
from datetime import date

import numpy as np
import pytest

from optionlab.bs import call_price_grid
from optionlab.evaluation import (
    DEFAULT_MARGIN,
    baseline_window_table,
    bs_baseline,
    build_report,
    class_masks,
    class_percentages,
    constant_mean_mse,
    error_metrics,
    format_report_text,
    format_window_table,
    pricing_class,
    report_to_dict,
    report_to_json,
    write_report_csv,
)
from optionlab.market_data import FeatureTable
from optionlab.vol import STANDARD_WINDOWS

from reference_impls import FeatureRecord, feature_columns

D0 = date(2021, 3, 1)


def _row(s_over_k=1.0, ttm=0.25, rate=0.02, sigmas=None, target=None, ticker="T"):
    sigmas = sigmas if sigmas is not None else {w: 0.2 for w in STANDARD_WINDOWS}
    if target is None:
        target = float(call_price_grid(s_over_k, 1.0, rate, sigmas[90], ttm))
    return FeatureRecord(
        quote_date=D0,
        ticker=ticker,
        s_over_k=s_over_k,
        strike=100.0,
        ttm_years=ttm,
        rate=rate,
        sigmas=sigmas,
        target=target,
    )


def _table(rows):
    return FeatureTable.of(*feature_columns(rows))


class TestErrorMetrics:
    def test_hand_example(self):
        mse, rmse, mae = error_metrics([1.0, 2.0, 3.0], [2.0, 2.0, 5.0])
        assert mse == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert rmse == math.sqrt(mse)
        assert mae == pytest.approx(1.0, rel=1e-15)

    def test_perfect_prediction(self):
        assert error_metrics([0.5, 0.7], [0.5, 0.7]) == (0.0, 0.0, 0.0)

    def test_rmse_squares_back_to_mse(self):
        rng = np.random.default_rng(1)
        pred, actual = rng.normal(size=50), rng.normal(size=50)
        mse, rmse, _ = error_metrics(pred, actual)
        assert rmse * rmse == pytest.approx(mse, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            error_metrics([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            error_metrics([], [])


class TestPricingClass:
    def test_margin_boundary_is_correct(self):
        # dyadic values so |pred - actual| == margin * actual exactly
        assert pricing_class(1.25, 1.0, margin=0.25) == "correct"
        assert pricing_class(0.75, 1.0, margin=0.25) == "correct"
        assert pricing_class(1.0499, 1.0) == "correct"
        assert pricing_class(0.9501, 1.0) == "correct"

    def test_beyond_margin_by_sign(self):
        assert pricing_class(1.0501, 1.0) == "over"
        assert pricing_class(0.9499, 1.0) == "under"

    def test_zero_margin_requires_equality(self):
        assert pricing_class(0.3, 0.3, margin=0.0) == "correct"
        assert pricing_class(0.3 + 1e-12, 0.3, margin=0.0) == "over"

    def test_margin_scales_with_actual(self):
        assert pricing_class(20.9, 20.0) == "correct"  # 4.5% off
        assert pricing_class(0.209, 0.2) == "correct"
        assert pricing_class(21.1, 20.0) == "over"  # 5.5% off

    def test_actual_must_be_positive(self):
        with pytest.raises(ValueError, match="actual"):
            pricing_class(1.0, 0.0)

    def test_margin_must_be_non_negative(self):
        with pytest.raises(ValueError, match="margin"):
            pricing_class(1.0, 1.0, margin=-0.1)


class TestClassPercentages:
    def test_constructed_fixture(self):
        actual = np.ones(10)
        pred = np.concatenate([
            np.full(2, 1.20),   # over
            np.full(3, 0.80),   # under
            np.full(5, 1.01),   # correct
        ])
        over, under, correct = class_percentages(pred, actual)
        assert (over, under, correct) == (20.0, 30.0, 50.0)

    def test_sums_to_one_hundred(self):
        rng = np.random.default_rng(2)
        actual = rng.uniform(0.1, 1.0, size=37)
        pred = actual * rng.uniform(0.8, 1.2, size=37)
        over, under, correct = class_percentages(pred, actual)
        assert over + under + correct == pytest.approx(100.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            class_percentages([], [])

    def test_masks_classify_as_pricing_class_does(self):
        rng = np.random.default_rng(11)
        actual = rng.uniform(0.01, 1.0, size=200)
        # on the margin and one ulp to either side of it, plus random draws
        edge = actual * (1.0 + DEFAULT_MARGIN)
        pred = np.concatenate([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0),
                               actual * rng.uniform(0.9, 1.1, size=200)])
        actual = np.tile(actual, 4)
        over, under, correct = class_masks(pred, actual)
        labels = np.where(correct, "correct", np.where(over, "over", "under"))
        assert not (over & under).any()
        assert labels.tolist() == [pricing_class(p, a) for p, a in zip(pred, actual)]

    def test_rejected_element_raises_the_scalar_error(self):
        with pytest.raises(ValueError, match="actual must be positive, got 0.0"):
            class_percentages([0.1, 0.2], [0.1, 0.0])
        with pytest.raises(ValueError, match="margin must be >= 0"):
            class_percentages([0.1], [0.1], margin=-0.01)


class TestBuildReport:
    def _mixed_rows(self):
        rows = []
        for ticker in ("AA", "BB"):
            for s_over_k in (0.85, 1.0, 1.15):  # otm, atm, itm
                rows.append(_row(s_over_k=s_over_k, ticker=ticker))
        return rows

    def test_overall_matches_direct_metrics(self):
        rows = self._mixed_rows()
        rng = np.random.default_rng(3)
        pred = np.array([r.target for r in rows]) * rng.uniform(0.9, 1.1, len(rows))
        report = build_report(pred, _table(rows))
        mse, rmse, mae = error_metrics(pred, [r.target for r in rows])
        assert (report.mse, report.rmse, report.mae) == (mse, rmse, mae)
        assert report.n == len(rows)

    def test_breakdown_ns_sum_to_total(self):
        rows = self._mixed_rows()
        pred = np.array([r.target for r in rows])
        report = build_report(pred, _table(rows))
        assert sum(r.n for r in report.by_ticker.values()) == report.n
        assert sum(r.n for r in report.by_moneyness.values()) == report.n
        assert set(report.by_ticker) == {"AA", "BB"}
        assert set(report.by_moneyness) == {"otm", "atm", "itm"}

    def test_breakdown_slices_score_their_own_rows(self):
        rows = self._mixed_rows()
        rng = np.random.default_rng(4)
        pred = np.array([r.target for r in rows]) * rng.uniform(0.9, 1.1, len(rows))
        report = build_report(pred, _table(rows))
        aa_idx = [i for i, r in enumerate(rows) if r.ticker == "AA"]
        mse, _, _ = error_metrics(pred[aa_idx], [rows[i].target for i in aa_idx])
        assert report.by_ticker["AA"].mse == mse
        assert report.by_ticker["AA"].n == len(aa_idx)

    def test_absent_category_is_omitted(self):
        rows = [_row(s_over_k=1.0), _row(s_over_k=1.02)]  # atm only
        report = build_report([r.target for r in rows], _table(rows))
        assert set(report.by_moneyness) == {"atm"}

    def test_percentages_sum_to_one_hundred(self):
        rows = self._mixed_rows()
        rng = np.random.default_rng(5)
        pred = np.array([r.target for r in rows]) * rng.uniform(0.8, 1.2, len(rows))
        report = build_report(pred, _table(rows))
        for r in [report, *report.by_ticker.values(), *report.by_moneyness.values()]:
            assert r.pct_over + r.pct_under + r.pct_correct == pytest.approx(100.0, abs=1e-9)

    def test_perfect_predictions_fully_correct(self):
        rows = self._mixed_rows()
        report = build_report([r.target for r in rows], _table(rows))
        assert report.pct_correct == 100.0
        assert report.mse == 0.0

    def test_length_mismatch(self):
        rows = self._mixed_rows()
        with pytest.raises(ValueError, match="predictions"):
            build_report(np.zeros(2), _table(rows))

    def test_unclassifiable_moneyness_raises_the_scalar_error(self):
        rows = [_row(s_over_k=1.0), _row(s_over_k=1.3), _row(s_over_k=0.7)]
        with pytest.raises(ValueError, match=r"s_over_k 1\.3 outside the classified range"):
            build_report([r.target for r in rows], _table(rows))


class TestBsBaseline:
    def test_reprices_targets_built_from_window_vol(self):
        rng = np.random.default_rng(6)
        rows = []
        for _ in range(40):
            sigmas = {w: float(rng.uniform(0.1, 0.5)) for w in STANDARD_WINDOWS}
            rows.append(
                _row(
                    s_over_k=float(rng.uniform(0.85, 1.15)),
                    ttm=float(rng.uniform(0.1, 1.5)),
                    rate=float(rng.uniform(0.0, 0.08)),
                    sigmas=sigmas,
                )
            )
        pred = bs_baseline(_table(rows), window=90)
        actual = np.array([r.target for r in rows])
        np.testing.assert_allclose(pred, actual, rtol=1e-12)

    def test_homogeneity_against_full_scale_pricing(self):
        # C(S, K)/K must equal C(S/K, 1) for the baseline to be well-defined.
        rng = np.random.default_rng(7)
        for _ in range(20):
            spot = rng.uniform(50, 150)
            k = spot / rng.uniform(0.85, 1.15)
            r, sigma, ttm = rng.uniform(0, 0.1), rng.uniform(0.1, 0.6), rng.uniform(0.1, 2)
            full = float(call_price_grid(spot, k, r, sigma, ttm)) / k
            unit = float(call_price_grid(spot / k, 1.0, r, sigma, ttm))
            assert unit == pytest.approx(full, rel=1e-12)

    def test_missing_window_raises(self):
        with pytest.raises(ValueError, match="sigma_55"):
            bs_baseline(_table([_row()]), window=55)


class TestBaselineWindowTable:
    def test_six_windows_in_order(self):
        rows = [_row(s_over_k=s) for s in np.linspace(0.85, 1.15, 12)]
        table = baseline_window_table(_table(rows))
        assert [w for w, _ in table] == list(STANDARD_WINDOWS)
        assert all(rep.n == len(rows) for _, rep in table)

    def test_pricing_window_wins_when_targets_use_it(self):
        # Targets priced with sigma_90; the sigma_20 feature is deliberately
        # wrong, so the window-90 baseline must dominate the window-20 one.
        rng = np.random.default_rng(8)
        rows = []
        for _ in range(30):
            sigmas = {w: 0.2 if w == 90 else 0.45 for w in STANDARD_WINDOWS}
            rows.append(
                _row(
                    s_over_k=float(rng.uniform(0.85, 1.15)),
                    ttm=float(rng.uniform(0.2, 1.0)),
                    sigmas=sigmas,
                )
            )
        table = dict(baseline_window_table(_table(rows)))
        assert table[90].mse < table[20].mse
        assert table[90].mse == pytest.approx(0.0, abs=1e-25)
        assert table[90].pct_correct == 100.0


class TestConstantMeanMse:
    def test_hand_example(self):
        # train mean 2; eval errors 0 and 2 -> mse 2
        assert constant_mean_mse([1.0, 3.0], [2.0, 4.0]) == 2.0

    def test_equals_variance_on_same_split(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=200)
        assert constant_mean_mse(y, y) == pytest.approx(float(np.var(y)), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            constant_mean_mse([], [1.0])
        with pytest.raises(ValueError, match="empty"):
            constant_mean_mse([1.0], [])


class TestEmitters:
    def _report(self):
        rows = [
            _row(s_over_k=0.9, ticker="AA"),
            _row(s_over_k=1.0, ticker="AA"),
            _row(s_over_k=1.1, ticker="BB"),
        ]
        rng = np.random.default_rng(10)
        pred = np.array([r.target for r in rows]) * rng.uniform(0.9, 1.1, 3)
        return build_report(pred, _table(rows))

    def test_dict_shape(self):
        d = report_to_dict(self._report())
        assert set(d) == {
            "n", "mse", "rmse", "mae", "pct_over", "pct_under", "pct_correct",
            "by_ticker", "by_moneyness",
        }
        assert set(d["by_ticker"]) == {"AA", "BB"}
        assert "by_ticker" not in d["by_ticker"]["AA"]  # leaves are flat

    def test_json_round_trip(self):
        report = self._report()
        parsed = json.loads(report_to_json(report))
        assert parsed["n"] == report.n
        assert parsed["by_moneyness"]["atm"]["n"] == report.by_moneyness["atm"].n

    def test_text_table_lists_every_slice(self):
        report = self._report()
        text = format_report_text(report, title="test-split")
        lines = text.splitlines()
        assert "test-split" in lines[1]
        assert len(lines) == 1 + 1 + len(report.by_ticker) + len(report.by_moneyness)

    def test_csv_preserves_floats_exactly(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        overall = next(r for r in rows if r["scope"] == "overall")
        assert float(overall["mse"]) == report.mse
        assert float(overall["pct_correct"]) == report.pct_correct
        assert len(rows) == 1 + len(report.by_ticker) + len(report.by_moneyness)

    def test_csv_is_csv_writer_bytes(self, tmp_path):
        """report.csv is what csv.writer writes for the same rows, with
        ticker labels that need quoting."""
        rows = [_row(s_over_k=s, ticker=t)
                for s, t in ((0.9, 'A,"B'), (1.0, "C\rD"), (1.1, "é\n"), (1.0, "plain"))]
        pred = np.array([r.target for r in rows]) * np.array([0.9, 1.0, 1.1, 1.05])
        report = build_report(pred, _table(rows))
        path, oracle = tmp_path / "report.csv", tmp_path / "oracle.csv"
        write_report_csv(report, path)
        with open(oracle, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["scope", "label", "n", "mse", "rmse", "mae", "pct_over", "pct_under",
                        "pct_correct"])
            slices = [("overall", "", report), *(("ticker", k, v) for k, v in
                                                 report.by_ticker.items()),
                      *(("moneyness", k, v) for k, v in report.by_moneyness.items())]
            for scope, label, r in slices:
                w.writerow([scope, label, r.n, *(repr(v) for v in (
                    r.mse, r.rmse, r.mae, r.pct_over, r.pct_under, r.pct_correct))])
        assert path.read_bytes() == oracle.read_bytes()

    def test_window_table_text(self):
        rows = [_row(s_over_k=s) for s in np.linspace(0.9, 1.1, 10)]
        table = baseline_window_table(_table(rows))
        text = format_window_table(table)
        assert len(text.splitlines()) == 1 + len(STANDARD_WINDOWS)
        assert "window" in text.splitlines()[0]
