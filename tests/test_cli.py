"""End-to-end workflow through the command-line interface: synth -> prepare ->
train -> evaluate -> compare -> grid, plus the bs utility and error paths.

Everything runs through cli.main(argv) in-process; artifacts land in pytest
temp dirs.  The workflow fixture is module-scoped so the chain runs once.
"""

import argparse
import concurrent.futures
import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optionlab import cli, schema
from optionlab import evaluation as ev
from optionlab import market_data as md
from optionlab.bs import BsInputs, bs_call_price, mc_call_price, McConfig
from optionlab.cli import main
from optionlab.layers import ModelSpec, load_model, save_model
from optionlab.market_data import read_feature_table, read_quotes_csv
from optionlab.schema import check
from optionlab.training import TrainConfig
from reference_impls import windows_causal, windows_overlapping
from test_acceptance import ACCEPT_SYNTH

SYNTH_CONFIG = {
    "tickers": [{"name": "AA", "s0": 100.0, "drift": 0.05, "vol": 0.2}],
    "start": "2021-06-01",
    "n_quote_days": 30,
    "strike_multipliers": [0.95, 1.0, 1.05],
    "expiry_days": [30, 91],
    "warmup_days": 95,
    "rate": 0.03,
    "noise": 0.01,
    "seed": 42,
}

MODEL_SPEC = {
    "layers": [
        {"kind": "dense", "width": 16, "activation": "tanh"},
        {"kind": "dense", "width": 16, "activation": "tanh"},
    ],
    "input_dim": 10,
}

TRAIN_SETTINGS = {
    "epochs": 15,
    "patience": 15,
    "batch_size": 64,
    "learning_rate": 3e-3,
}


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the full chain once; return the directory layout."""
    root = tmp_path_factory.mktemp("cli")
    synth_dir = root / "synth"
    data_dir = root / "data"
    model_dir = root / "model"
    eval_dir = root / "eval"

    rc = main(
        ["synth", "--config", str(_write(root / "synth.json", SYNTH_CONFIG)),
         "--out", str(synth_dir)]
    )
    assert rc == 0

    prepare_cfg = {
        "quotes": str(synth_dir / "quotes.csv"),
        "underlying": str(synth_dir / "underlying.csv"),
        "rates": str(synth_dir / "rates.csv"),
    }
    rc = main(
        ["prepare", "--config", str(_write(root / "prepare.json", prepare_cfg)),
         "--out", str(data_dir)]
    )
    assert rc == 0

    train_cfg = {
        "features": str(data_dir / "features.csv"),
        "model": MODEL_SPEC,
        "train": TRAIN_SETTINGS,
        "seed": 7,
    }
    rc = main(
        ["train", "--config", str(_write(root / "train.json", train_cfg)),
         "--out", str(model_dir)]
    )
    assert rc == 0

    eval_cfg = {
        "features": str(data_dir / "features.csv"),
        "checkpoint": str(model_dir / "model.bin"),
    }
    rc = main(
        ["evaluate", "--config", str(_write(root / "eval.json", eval_cfg)),
         "--out", str(eval_dir)]
    )
    assert rc == 0

    return {
        "root": root, "synth": synth_dir, "data": data_dir,
        "model": model_dir, "eval": eval_dir,
    }


class TestSynth:
    def test_artifacts(self, workspace):
        d = workspace["synth"]
        for name in ("quotes.csv", "underlying.csv", "rates.csv", "manifest.json"):
            assert (d / name).is_file()
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["n_quotes"] == 30 * 3 * 2
        assert manifest["seed"] == 42
        assert len(read_quotes_csv(d / "quotes.csv")) == manifest["n_quotes"]

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        rc = main(
            ["synth", "--config", str(workspace["root"] / "synth.json"),
             "--out", str(tmp_path / "again")]
        )
        assert rc == 0
        for name in ("quotes.csv", "underlying.csv", "rates.csv", "manifest.json"):
            assert (tmp_path / "again" / name).read_bytes() == (
                workspace["synth"] / name
            ).read_bytes()

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        cfg = dict(SYNTH_CONFIG, seed=1)
        rc = main(
            ["synth", "--config", str(_write(tmp_path / "s.json", cfg)),
             "--out", str(tmp_path / "flag"), "--seed", "42"]
        )
        assert rc == 0
        assert (tmp_path / "flag" / "quotes.csv").read_bytes() == (
            workspace["synth"] / "quotes.csv"
        ).read_bytes()

    def test_missing_seed_fails(self, tmp_path, capsys):
        cfg = {k: v for k, v in SYNTH_CONFIG.items() if k != "seed"}
        rc = main(
            ["synth", "--config", str(_write(tmp_path / "s.json", cfg)),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "seed is required" in capsys.readouterr().err


class TestPrepare:
    def test_manifest_counts_chain(self, workspace):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        joined = manifest["n_quotes_read"] - sum(manifest["join_skipped"].values())
        assert manifest["n_feature_rows"] + sum(manifest["build_skipped"].values()) == joined
        assert (
            manifest["n_final_rows"] + sum(manifest["filter_dropped"].values())
            == manifest["n_feature_rows"]
        )
        table = read_feature_table(workspace["data"] / "features.csv")
        assert len(table) == manifest["n_final_rows"]
        assert manifest["n_final_rows"] == 180  # nothing dropped in this market

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        """A second prepare writes the same features.csv and the same image."""
        argv = ["prepare", "--config", str(workspace["root"] / "prepare.json"),
                "--out", str(tmp_path)]
        assert main(argv) == 0
        for name in ("features.csv", "features.csv.table", "manifest.json"):
            assert (tmp_path / name).read_bytes() == (workspace["data"] / name).read_bytes()

    def test_vol_window_columns(self, workspace):
        with open(workspace["data"] / "features.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header[:6] == ["quote_date", "ticker", "s_over_k", "strike", "ttm_years", "rate"]
        assert [c for c in header if c.startswith("sigma_")] == [
            "sigma_20", "sigma_30", "sigma_40", "sigma_50", "sigma_65", "sigma_90",
        ]


class TestTrain:
    def test_artifacts(self, workspace):
        d = workspace["model"]
        for name in ("model.bin", "model_spec.json", "history.csv", "train_summary.json"):
            assert (d / name).is_file()

    def test_summary_consistency(self, workspace):
        summary = json.loads((workspace["model"] / "train_summary.json").read_text())
        # 10->16 (176) + 16->16 (272) + 16->1 (17)
        assert summary["param_count"] == 176 + 272 + 17
        assert summary["n_train"] == 126 and summary["n_val"] == 27 and summary["n_test"] == 27
        history = (workspace["model"] / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_mse,val_mse"
        assert len(history) == 1 + summary["epochs_run"]
        val_col = [float(line.split(",")[2]) for line in history[1:]]
        assert summary["best_val_mse"] == min(val_col)
        assert math.isfinite(summary["test_mse"])

    def test_spec_round_trips(self, workspace):
        spec_dict = json.loads((workspace["model"] / "model_spec.json").read_text())
        model = load_model(workspace["model"] / "model.bin")
        assert model.spec.to_dict() == spec_dict
        assert model.scaler is not None  # standardisation artifact travels along

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        rc = main(
            ["train", "--config", str(workspace["root"] / "train.json"),
             "--out", str(tmp_path / "again")]
        )
        assert rc == 0
        for name in ("model.bin", "history.csv", "train_summary.json"):
            assert (tmp_path / "again" / name).read_bytes() == (
                workspace["model"] / name
            ).read_bytes()

    def test_unknown_train_key_fails(self, workspace, tmp_path, capsys):
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg["train"] = dict(cfg["train"], optimizer="sgd")
        rc = main(
            ["train", "--config", str(_write(tmp_path / "t.json", cfg)),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "unknown train keys" in capsys.readouterr().err


class TestEvaluate:
    def test_artifacts(self, workspace):
        d = workspace["eval"]
        for name in (
            "report.json", "report.csv", "report.txt",
            "baseline_windows.txt", "baseline_windows.csv", "predictions.csv",
        ):
            assert (d / name).is_file()

    def test_report_scores_test_split(self, workspace):
        report = json.loads((workspace["eval"] / "report.json").read_text())
        assert report["n"] == 27
        assert report["pct_over"] + report["pct_under"] + report["pct_correct"] == pytest.approx(100.0)
        assert sum(r["n"] for r in report["by_moneyness"].values()) == report["n"]

    def test_baseline_table_has_six_windows(self, workspace):
        lines = (workspace["eval"] / "baseline_windows.csv").read_text().splitlines()
        assert lines[0] == "window,mse,rmse,mae,pct_correct"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [20, 30, 40, 50, 65, 90]

    def test_predictions_align_with_split(self, workspace):
        lines = (workspace["eval"] / "predictions.csv").read_text().splitlines()
        assert lines[0] == "quote_date,ticker,actual,predicted,class"
        assert len(lines) == 1 + 27
        assert all(l.split(",")[4] in ("over", "under", "correct") for l in lines[1:])

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        rc = main(
            ["evaluate", "--config", str(workspace["root"] / "eval.json"),
             "--out", str(tmp_path / "again")]
        )
        assert rc == 0
        assert (tmp_path / "again" / "report.json").read_bytes() == (
            workspace["eval"] / "report.json"
        ).read_bytes()

    def test_bad_split_name_fails(self, workspace, tmp_path, capsys):
        cfg = json.loads((workspace["root"] / "eval.json").read_text())
        cfg["split"] = "holdout"
        rc = main(
            ["evaluate", "--config", str(_write(tmp_path / "e.json", cfg)),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "split must be" in capsys.readouterr().err

    def test_val_split_selectable(self, workspace, tmp_path):
        cfg = json.loads((workspace["root"] / "eval.json").read_text())
        cfg["split"] = "val"
        rc = main(
            ["evaluate", "--config", str(_write(tmp_path / "e.json", cfg)),
             "--out", str(tmp_path / "val")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "val" / "report.json").read_text())
        assert report["n"] == 27


class TestCompare:
    def test_ranking(self, workspace, tmp_path):
        report = workspace["eval"] / "report.json"
        second = tmp_path / "copy.json"
        shutil.copy(report, second)
        cfg = {
            "reports": [
                {"name": "mlp", "path": str(report)},
                {"name": "mlp-copy", "path": str(second)},
            ]
        }
        out = tmp_path / "cmp"
        rc = main(
            ["compare", "--config", str(_write(tmp_path / "c.json", cfg)),
             "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "ranking.csv").read_text().splitlines()
        assert lines[0] == "rank,model,n,mse,rmse,mae,pct_correct"
        assert len(lines) == 3
        assert (out / "ranking.txt").is_file()
        mses = [float(l.split(",")[3]) for l in lines[1:]]
        assert mses == sorted(mses)

    def test_extra_entry_key_fails(self, workspace, tmp_path, capsys):
        cfg = {"reports": [{"name": "x", "path": "y", "weight": 2}]}
        rc = main(
            ["compare", "--config", str(_write(tmp_path / "c.json", cfg)),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "name/path" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda report: [1, 2], "report must be an object, got [1, 2]"),
            (lambda report: {k: v for k, v in report.items() if k != "mse"},
             "missing report keys ['mse']"),
            (lambda report: dict(report, mse="0.1"), 'report.mse must be a number, got "0.1"'),
            (lambda report: dict(report, mse=math.nan),
             "report.mse must be a finite number, got NaN"),
        ],
        ids=["list", "without-mse", "string-mse", "nan-mse"],
    )
    def test_malformed_report_fails_cleanly(self, workspace, tmp_path, capsys, edit, expected):
        report = json.loads((workspace["eval"] / "report.json").read_text())
        bad = _write(tmp_path / "bad.json", edit(report))
        cfg = {"reports": [{"name": "mlp", "path": str(workspace["eval"] / "report.json")},
                           {"name": "bad", "path": str(bad)}]}
        argv = ["compare", "--config", str(_write(tmp_path / "c.json", cfg)),
                "--out", str(tmp_path / "out")]
        _fails(capsys, argv, f"{bad}: {expected}")


class TestConfigHygiene:
    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = dict(SYNTH_CONFIG, fancy_mode=True)
        rc = main(
            ["synth", "--config", str(_write(tmp_path / "s.json", cfg)),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_required_key_fails(self, tmp_path, capsys):
        cfg = {k: v for k, v in SYNTH_CONFIG.items() if k != "tickers"}
        rc = main(
            ["synth", "--config", str(_write(tmp_path / "s.json", cfg)),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "missing config keys" in capsys.readouterr().err

    def test_missing_config_file_fails(self, tmp_path, capsys):
        rc = main(
            ["synth", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestBsSubcommand:
    BASE = ["bs", "--spot", "100", "--strike", "95", "--rate", "0.05", "--ttm", "0.75"]

    def test_price_mode(self, capsys):
        rc = main(self.BASE + ["--mode", "price", "--vol", "0.3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        expected = bs_call_price(BsInputs(100.0, 95.0, 0.05, 0.3, 0.75))
        assert payload["price"] == expected

    def test_iv_round_trip(self, capsys):
        price = bs_call_price(BsInputs(100.0, 95.0, 0.05, 0.3, 0.75))
        rc = main(self.BASE + ["--mode", "iv", "--price", repr(price)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["implied_vol"] == pytest.approx(0.3, abs=1e-6)

    def test_mc_mode_deterministic(self, capsys):
        args = self.BASE + [
            "--mode", "mc", "--vol", "0.3", "--paths", "20000",
            "--seed", "11", "--antithetic",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        price, se = mc_call_price(
            BsInputs(100.0, 95.0, 0.05, 0.3, 0.75),
            McConfig(paths=20000, seed=11, antithetic=True),
        )
        assert first == {"price": price, "std_error": se}

    def test_prices_without_scipy_or_a_process_pool(self):
        """A fresh process that imports the CLI and prices loads no scipy
        module and no process pool."""
        code = "\n".join([
            "import json, sys",
            "from optionlab.cli import main",
            f"assert main({self.BASE + ['--mode', 'price', '--vol', '0.3']!r}) == 0",
            "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy'",
            "    or m.startswith('scipy.') or m == 'concurrent.futures.process')))",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert done.returncode == 0, done.stderr
        price_line, loaded = done.stdout.splitlines()
        assert "price" in json.loads(price_line)
        assert json.loads(loaded) == []

    def test_price_needs_vol(self, capsys):
        rc = main(self.BASE + ["--mode", "price"])
        assert rc == 2
        assert "--vol is required" in capsys.readouterr().err

    def test_mc_needs_seed(self, capsys):
        rc = main(self.BASE + ["--mode", "mc", "--vol", "0.3"])
        assert rc == 2
        assert "--seed is required" in capsys.readouterr().err

    def test_iv_needs_price(self, capsys):
        rc = main(self.BASE + ["--mode", "iv"])
        assert rc == 2
        assert "--price is required" in capsys.readouterr().err

    def test_arbitrage_violation_reports_error(self, capsys):
        rc = main(self.BASE + ["--mode", "iv", "--price", "200"])
        assert rc == 2
        assert "arbitrage" in capsys.readouterr().err

    @pytest.mark.parametrize("mode_args", [
        ["--mode", "price", "--vol", "0.3"],
        ["--mode", "iv", "--price", "10"],
        ["--mode", "mc", "--vol", "0.3", "--seed", "1", "--paths", "100"],
    ], ids=["price", "iv", "mc"])
    def test_discount_overflow_reports_error(self, capsys, mode_args):
        argv = ["bs", "--spot", "100", "--strike", "100", "--rate", "-1000",
                "--ttm", "1", *mode_args]
        _fails(capsys, argv, "rate -1000.0 with ttm 1.0")

    @pytest.mark.parametrize("antithetic", [[], ["--antithetic"]], ids=["plain", "antithetic"])
    def test_mc_growth_overflow_reports_error(self, capsys, antithetic):
        argv = ["bs", "--spot", "100", "--strike", "100", "--rate", "1000", "--ttm", "1",
                "--mode", "mc", "--vol", "0.3", "--seed", "1", "--paths", "100", *antithetic]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _fails(capsys, argv, "Monte Carlo payoffs overflow a float at spot 100.0, rate 1000.0")


# ---------------------------------------------------------------------------
# sequence models


LSTM_SPEC = {
    "layers": [{"kind": "lstm", "width": 4}, {"kind": "attention", "width": 4}],
    "input_dim": 10,
    "timesteps": 3,
}

TDNN_SPEC = {
    "layers": [{"kind": "conv1d", "width": 4, "kernel_size": 3, "activation": "tanh"}],
    "input_dim": 10,
    "timesteps": 3,
}

SEQ_TRAIN = {"epochs": 2, "patience": 2, "batch_size": 32}


def _fails(capsys, argv, expected):
    """The command exits with code 2 and one error line containing ``expected``,
    and warns of nothing on the way (a warning is a line of its own)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert expected in lines[0]


class TestSequenceModels:
    # the 27-row test split gives 24 causal and 25 overlapping 3-step windows
    @pytest.mark.parametrize(
        "spec, windowing, n_test",
        [
            (LSTM_SPEC, None, 24),
            (LSTM_SPEC, {"mode": "overlapping", "timesteps": 3}, 25),
            (TDNN_SPEC, None, 25),
            (TDNN_SPEC, {"mode": "causal", "timesteps": 3}, 24),
        ],
        ids=["lstm-default", "lstm-overlapping", "tdnn-default", "tdnn-causal"],
    )
    def test_train_and_evaluate(self, workspace, tmp_path, spec, windowing, n_test):
        features = str(workspace["data"] / "features.csv")
        train_cfg = {"features": features, "model": spec, "train": SEQ_TRAIN, "seed": 4}
        eval_cfg = {"features": features, "checkpoint": str(tmp_path / "model" / "model.bin")}
        if windowing is not None:
            train_cfg["windowing"] = eval_cfg["windowing"] = windowing
        rc = main(
            ["train", "--config", str(_write(tmp_path / "t.json", train_cfg)),
             "--out", str(tmp_path / "model")]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "model" / "train_summary.json").read_text())
        assert summary["n_test"] == n_test and summary["epochs_run"] == 2
        rc = main(
            ["evaluate", "--config", str(_write(tmp_path / "e.json", eval_cfg)),
             "--out", str(tmp_path / "eval")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["n"] == n_test
        lines = (tmp_path / "eval" / "predictions.csv").read_text().splitlines()
        assert len(lines) == 1 + n_test

    def test_timesteps_conflict_fails(self, workspace, tmp_path, capsys):
        cfg = {
            "features": str(workspace["data"] / "features.csv"), "model": LSTM_SPEC,
            "train": SEQ_TRAIN, "seed": 4, "windowing": {"timesteps": 5},
        }
        _fails(
            capsys,
            ["train", "--config", str(_write(tmp_path / "t.json", cfg)),
             "--out", str(tmp_path / "out")],
            "windowing.timesteps 5 conflicts with model.timesteps 3",
        )

    def test_unknown_mode_fails(self, workspace, tmp_path, capsys):
        cfg = {
            "features": str(workspace["data"] / "features.csv"),
            "checkpoint": str(workspace["model"] / "model.bin"),
            "windowing": {"mode": "sliding"},
        }
        _fails(
            capsys,
            ["evaluate", "--config", str(_write(tmp_path / "e.json", cfg)),
             "--out", str(tmp_path / "out")],
            "windowing.mode must be one of ['causal', 'overlapping'], got \"sliding\"",
        )


RNN_SPEC = {
    "layers": [{"kind": "lstm", "width": 4}, {"kind": "gru", "width": 4},
               {"kind": "attention", "width": 4}],
    "input_dim": 10,
    "timesteps": 3,
}


def _grid_config(workspace, grid, model=MODEL_SPEC, **extra):
    """A grid config: a train config on the workspace's features plus ``grid``."""
    return dict({"features": str(workspace["data"] / "features.csv"), "model": model,
                 "train": {"epochs": 4, "patience": 4, "batch_size": 64}, "seed": 3,
                 "grid": grid}, **extra)


def _grid(tmp_path, cfg, jobs=1):
    """Run grid on ``cfg``; return its output directory and grid.csv's rows."""
    out = tmp_path / "grid"
    argv = ["grid", "--config", str(_write(tmp_path / "g.json", cfg)), "--out", str(out),
            "--jobs", str(jobs)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    with open(out / "grid.csv", newline="") as fh:
        return out, list(csv.DictReader(fh))


class TestGrid:
    def test_small_sweep(self, workspace, tmp_path):
        cfg = _grid_config(workspace, {"model.layers.0.width": [8, 16]})
        out, rows = _grid(tmp_path, cfg)
        assert list(rows[0]) == ["rank", "config", "seed", "val_mse", "error"]
        assert len(rows) == 2
        assert (out / "grid.txt").is_file()
        widths = sorted(json.loads((out / "entries" / f"{rank}.json").read_text())
                        ["model"]["layers"][0]["width"] for rank in (1, 2))
        assert widths == [8, 16]

    @pytest.mark.parametrize(
        "model, windowing, grid",
        [
            (TDNN_SPEC, {"mode": "overlapping"}, {"model.layers.0.width": [4, 6]}),
            (RNN_SPEC, {"mode": "causal"}, {"train.learning_rate": [1e-3, 3e-3]}),
        ],
        ids=["tdnn", "lstm-gru-attention"],
    )
    def test_sequence_sweep(self, workspace, tmp_path, model, windowing, grid):
        cfg = _grid_config(workspace, grid, model=model, windowing=windowing)
        cfg["train"] = SEQ_TRAIN
        out, rows = _grid(tmp_path, cfg)
        assert [r["rank"] for r in rows] == ["1", "2"]
        assert all(r["error"] == "" for r in rows)
        vals = [float(r["val_mse"]) for r in rows]
        assert vals == sorted(vals)
        entry = json.loads((out / "entries" / "2.json").read_text())
        assert entry["windowing"] == windowing and "grid" not in entry
        assert entry["seed"] == int(rows[1]["seed"])

    def test_whole_layer_lists_sweep(self, workspace, tmp_path):
        """A "model.layers" axis sweeps depth and width together; an axis
        into the swept list then edits each list."""
        dense = {"kind": "dense", "width": 8, "activation": "tanh"}
        cfg = _grid_config(workspace, {"model.layers": [[dense], [dense, dense]],
                                       "model.layers.0.width": [4]})
        out, rows = _grid(tmp_path, cfg)
        layers = sorted(json.loads((out / "entries" / f"{rank}.json").read_text())
                        ["model"]["layers"] for rank in (1, 2))
        assert layers == [[dict(dense, width=4)], [dict(dense, width=4), dense]]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_winner_reproduces_under_train(self, workspace, tmp_path, jobs):
        """optionlab train on entries/1.json gives grid.csv's val_mse for
        rank 1 bit for bit, whether the grid ran serially or in a pool."""
        cfg = _grid_config(workspace, {"model.layers.0.width": [4, 6],
                                       "train.learning_rate": [1e-3, 3e-3]},
                           model=TDNN_SPEC)
        cfg["train"] = SEQ_TRAIN
        out, rows = _grid(tmp_path, cfg, jobs=jobs)
        assert len(rows) == 4 and all(r["error"] == "" for r in rows)
        argv = ["train", "--config", str(out / "entries" / "1.json"),
                "--out", str(tmp_path / "winner")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        summary = json.loads((tmp_path / "winner" / "train_summary.json").read_text())
        assert repr(summary["best_val_mse"]) == rows[0]["val_mse"]
        assert summary["seed"] == int(rows[0]["seed"])

    @pytest.mark.parametrize(
        "grid, extra, expected",
        [
            ({"windowing.timesteps": [3]}, {},
             "grid path 'windowing.timesteps': the config has no 'windowing'"),
            ({"model.layers.2.width": [4]}, {},
             "grid path 'model.layers.2.width': model.layers has no '2'"),
            ({"seed": [1, 2]}, {}, "grid.seed: each entry's seed is derived"),
            ({"model.layers.0.width": []}, {}, "grid axis 'model.layers.0.width' is empty"),
            ({}, {}, "grid needs at least one axis"),
            ({"model.layers.0.width": 8}, {}, "grid.model.layers.0.width must be a list, got 8"),
            ({"train.epochs": [4, "3"]}, {},
             'grid entry {"train.epochs": "3"}: train.epochs must be an integer, got "3"'),
            ({"model.layers.0.kind": ["rnn"]}, {},
             'grid entry {"model.layers.0.kind": "rnn"}: unknown layer kind \'rnn\''),
            ({"train.patience": [9]}, {}, "patience 9 exceeds epochs 4"),
            ({"train.learning_rate": [-1.0, 0.001]}, {},
             'grid entry {"train.learning_rate": -1.0}: learning_rate must be positive, got -1.0'),
            ({"model.timesteps": [3, 5]}, {"model": TDNN_SPEC, "windowing": {"timesteps": 3}},
             "windowing.timesteps 3 conflicts with model.timesteps 5"),
        ],
        ids=["missing-parent", "index-out-of-range", "seed-axis", "empty-axis", "empty-grid",
             "axis-not-a-list", "train-schema", "model-spec", "train-config", "learning-rate",
             "window-mode"],
    )
    def test_bad_grid_fails_before_training(self, workspace, tmp_path, capsys, grid, extra,
                                            expected):
        cfg = _grid_config(workspace, grid, **extra)
        argv = ["grid", "--config", str(_write(tmp_path / "g.json", cfg)),
                "--out", str(tmp_path / "out")]
        _fails(capsys, argv, expected)
        assert not (tmp_path / "out" / "grid.csv").exists()

    @pytest.mark.parametrize("widths, jobs, pools", [
        ([8, 16], 64, [2]), ([8, 16, 24], 2, [2]), ([8], 64, []),
    ], ids=["capped", "fewer-jobs", "one-entry-serial"])
    def test_workers_are_capped_at_the_entry_count(self, workspace, tmp_path, monkeypatch,
                                                   widths, jobs, pools):
        """A pool forks all its workers at the first submit, so grid asks for
        no more than it has entries, and none for one entry.  The pool is a
        serial stand-in that records its size; no process starts."""
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        _, rows = _grid(tmp_path, _grid_config(workspace, {"model.layers.0.width": widths}),
                        jobs=jobs)
        assert seen == pools
        assert len(rows) == len(widths) and all(r["val_mse"] for r in rows)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_refused(self, workspace, tmp_path, capsys, jobs):
        cfg = _grid_config(workspace, {"model.layers.0.width": [8, 16]})
        argv = ["grid", "--config", str(_write(tmp_path / "g.json", cfg)),
                "--out", str(tmp_path / "out"), "--jobs", str(jobs)]
        _fails(capsys, argv, f"jobs must be >= 1, got {jobs}")
        assert not (tmp_path / "out").exists()


def _materialized_windows(table, mode, timesteps):
    """Every window of a split as one [M, T, F] array: each ticker's windows
    copied, then concatenated, in ticker order; with the targets and the
    target rows' indices into ``table``."""
    windows = windows_causal if mode == "causal" else windows_overlapping
    xs, ys, targets = [], [], []
    for code in np.unique(table.codes).tolist():
        idx = np.flatnonzero(table.codes == code)
        if idx.size < timesteps + (mode == "causal"):
            continue
        batch = windows(table.x[idx], table.target[idx], timesteps)
        xs.append(batch.inputs.copy())
        ys.append(batch.targets.copy())
        targets.append(idx[idx.size - batch.targets.size :])
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(targets)


def _interleaved_table(seed, sizes):
    """A day-sorted feature table of tickers with ``sizes`` rows each, their
    days interleaved, so every ticker's rows are scattered through it."""
    rng = np.random.default_rng(seed)
    names = [f"T{i}" for i, n in enumerate(sizes) for _ in range(n)]
    days = rng.integers(737000, 737400, size=len(names))
    order = np.argsort(days, kind="stable")
    x = rng.normal(size=(len(names), 10)) * rng.uniform(0.1, 1e4, size=10)
    return md.FeatureTable.of(days[order], [names[i] for i in order.tolist()],
                              x[order], rng.normal(size=len(names)))


def _features(root, synth) -> str:
    """Synth the market ``synth`` and prepare it under ``root``; the
    features.csv path."""
    prepare = {name: str(root / "synth" / f"{name}.csv")
               for name in ("quotes", "underlying", "rates")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--config", str(_write(root / "s.json", synth)),
                     "--out", str(root / "synth")]) == 0
        assert main(["prepare", "--config", str(_write(root / "p.json", prepare)),
                     "--out", str(root / "data")]) == 0
    return str(root / "data" / "features.csv")


class TestWindowsAsRowIndices:
    @pytest.mark.parametrize("timesteps", [1, 3, 10])
    @pytest.mark.parametrize("mode", ["causal", "overlapping"])
    def test_gathered_windows_equal_the_materialized_array(self, mode, timesteps):
        """Windows gathered from the row index carry the bytes of the copied
        and concatenated per-ticker windows, across ticker boundaries; the
        targets and target rows match too.  The third ticker is too short
        for 10-step windows and contributes nothing then."""
        table = _interleaved_table(timesteps, (40, 25, 9))
        inputs, targets, scored = md.sequence_windows(table, mode, timesteps, "train")
        want_x, want_y, want_rows = _materialized_windows(table, mode, timesteps)
        assert isinstance(inputs, md.SequenceWindows) and inputs.shape == want_x.shape
        assert inputs[:].tobytes() == want_x.tobytes()
        assert targets.tobytes() == want_y.tobytes()
        want = table.take(want_rows)
        for field in ("days", "codes", "x", "target"):
            assert getattr(scored, field).tobytes() == getattr(want, field).tobytes()
        first = 40 - timesteps + 1 - (mode == "causal")  # the first ticker's windows
        order = np.random.default_rng(0).permutation(len(inputs))
        for idx in (slice(first - 2, first + 2), order, order[:7], np.arange(0)):
            assert inputs[idx].tobytes() == want_x[idx].tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_constructor_matches_the_per_ticker_oracle(self, data):
        """``sequence_windows`` on 1-4 tickers with interleaved days, in both
        modes, at every ``timesteps`` up to one past the longest ticker:
        the bytes of the per-ticker views, or, when no ticker is long
        enough, the error that ``test_too_short_split_names_itself`` pins.
        Feature 0 is a row's index among its ticker's rows and feature 1 its
        ticker, so the windows' order shows in them as in criterion 07."""
        sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4), label="sizes")
        mode = data.draw(st.sampled_from(["causal", "overlapping"]), label="mode")
        timesteps = data.draw(st.integers(1, max(sizes) + 1), label="timesteps")
        ticker = np.array(data.draw(st.permutations(
            [code for code, n in enumerate(sizes) for _ in range(n)]), label="tickers"))
        days = np.sort(data.draw(st.lists(st.integers(737000, 737020), min_size=ticker.size,
                                          max_size=ticker.size), label="days"))
        rng = np.random.default_rng(ticker.size)
        x = rng.normal(size=(ticker.size, 10))
        for code, n in enumerate(sizes):
            x[ticker == code, 0] = np.arange(n)
        x[:, 1] = ticker
        table = md.FeatureTable.of(days, [f"T{c}" for c in ticker.tolist()], x,
                                   rng.normal(size=ticker.size))
        lag = mode == "causal"
        if max(sizes) < timesteps + lag:
            expected = (f"val split: no ticker has enough rows for {timesteps}-step {mode} "
                        f"windows (the longest ticker has {max(sizes)} rows, "
                        f"{timesteps + lag} are needed)")
            with pytest.raises(ValueError, match=re.escape(expected) + "$"):
                md.sequence_windows(table, mode, timesteps, "val")
            return
        inputs, targets, scored = md.sequence_windows(table, mode, timesteps, "val")
        want_x, want_y, want_rows = _materialized_windows(table, mode, timesteps)
        windows = inputs[:]
        assert windows.tobytes() == want_x.tobytes() and windows.shape == want_x.shape
        assert targets.tobytes() == want_y.tobytes()
        want = table.take(want_rows)
        for field in ("days", "codes", "x", "target"):
            assert getattr(scored, field).tobytes() == getattr(want, field).tobytes()
        # every input row is of the target's ticker and no later than the
        # target's row less the lag, and the last one is exactly that row
        assert np.all(windows[:, :, 1] == scored.x[:, 1:2])
        assert np.all(windows[:, :, 0].max(axis=1) <= scored.x[:, 0] - lag)
        np.testing.assert_array_equal(windows[:, -1, 0], scored.x[:, 0] - lag)

    def test_too_short_split_names_itself(self, tmp_path, capsys):
        """A one-ticker, 12-quote market leaves one row in the validation
        split: train stops with one error line naming that split, the rows
        of its longest ticker and the rows a 2-step causal window needs."""
        train = {"features": _features(tmp_path, dict(SYNTH_CONFIG, n_quote_days=2)),
                 "model": dict(LSTM_SPEC, timesteps=2), "train": SEQ_TRAIN, "seed": 1,
                 "windowing": {"mode": "causal"}}
        _fails(capsys, ["train", "--config", str(_write(tmp_path / "t.json", train)),
                        "--out", str(tmp_path / "model")],
               "val split: no ticker has enough rows for 2-step causal windows "
               "(the longest ticker has 1 rows, 3 are needed)")

    def test_sequence_train_and_evaluate_memory(self, tmp_path):
        """The tracemalloc peaks of a causal LSTM-GRU-attention ``train``
        (T = 10, one epoch) and of its train-split ``evaluate`` on the
        ~20 000-quote acceptance market: 15.0 and 7.5 MiB when measured,
        held with about 25% headroom.  Materializing every window of a split
        as one [M, T, F] array peaked at 28.4 and 26.2 MiB."""
        features, windowing = _features(tmp_path, ACCEPT_SYNTH), {"mode": "causal"}
        rnn = {"input_dim": 10, "timesteps": 10, "layers": [
            {"kind": "lstm", "width": 16}, {"kind": "gru", "width": 16},
            {"kind": "attention", "width": 16}]}
        runs = (
            ("train", 18.8, {"features": features, "model": rnn, "seed": 1,
                             "train": {"epochs": 1, "patience": 1}, "windowing": windowing}),
            ("evaluate", 9.4, {"features": features, "split": "train", "windowing": windowing,
                               "checkpoint": str(tmp_path / "train" / "model.bin")}),
        )
        for command, bound_mib, cfg in runs:
            argv = [command, "--config", str(_write(tmp_path / f"{command}.json", cfg)),
                    "--out", str(tmp_path / command)]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound_mib * 2**20, (command, peak / 2**20)


# ---------------------------------------------------------------------------
# the README's example configs


def _readme_configs():
    """Each ```json block of the README's "Example configs" section, with the
    config name (``synth`` for `synth.json`) named last before it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("### Example configs"):text.index("## File formats")]
    return [
        (re.findall(r"`(\w+)\.json`", section[:m.start()])[-1], json.loads(m.group(1)))
        for m in re.finditer(r"```json\n(.*?)```", section, re.S)
    ]


README_CONFIGS = _readme_configs()
README_SCHEMAS = {"synth": cli._SYNTH_SCHEMA, "prepare": cli._PREPARE_SCHEMA,
                  "train": cli._TRAIN_CONFIG_SCHEMA, "eval": cli._EVALUATE_SCHEMA,
                  "compare": cli._COMPARE_SCHEMA}


def test_readme_shows_every_config():
    names = [name for name, _ in README_CONFIGS]
    assert sorted(set(names)) == sorted([*README_SCHEMAS, "grid"])
    assert names.count("grid") == 2


@pytest.mark.parametrize("name, cfg", README_CONFIGS,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(README_CONFIGS)])
def test_readme_config_passes_its_schema(name, cfg):
    """Every example config in the README passes its command's checks: the
    schema, and for train the model spec, loop config and window mode; a
    grid example also resolves and checks each of its entries."""
    if name == "grid":
        assert cli._resolve_grid(cfg, argparse.Namespace(seed=None))
    else:
        checked = check(cfg, README_SCHEMAS[name])
        if name == "train":
            cli._check_train(checked)


def _key_text(key, field) -> str:
    """``key: type = default`` of one schema field, as the README lists keys:
    ``–`` for a None default, JSON for the others, nested objects inline."""
    default = ""
    if isinstance(field, tuple):
        field, value = field
        default = " = –" if value is None else f" = {json.dumps(value)}"
    return f"{key}: {_type_text(field)}{default}"


def _type_text(field) -> str:
    if isinstance(field, dict):
        return "{" + ", ".join(_key_text(k, f) for k, f in field.items()) + "}"
    if isinstance(field, list):
        return f"[{_type_text(field[0])}]"
    return field.__name__


@pytest.mark.parametrize("name, fields", [
    ("synth", schema.of(md.SynthConfig)),
    # a train config's seed is a top-level key, listed on its own
    ("train", {k: f for k, f in schema.of(TrainConfig).items() if k != "seed"}),
    ("model", schema.of(ModelSpec)),
])
def test_readme_lists_the_config_dataclass_keys(name, fields):
    """The README's listing of config keys shows each field of the config
    dataclasses with its type and default, so it cannot drift from them."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = " ".join(text[text.index("The keys, as `key: type = default`"):
                            text.index("`synth.json` —")].split())
    for key, field in fields.items():
        assert _key_text(key, field) in listing, (name, key)


# ---------------------------------------------------------------------------
# config checking


def _at(cfg, path):
    """The value at a key path: dict keys and list indices."""
    for key in path:
        cfg = cfg[key]
    return cfg


def _set(path, value):
    """A config edit that sets the value at a key path."""

    def edit(cfg):
        _at(cfg, path[:-1])[path[-1]] = value

    return edit


def _drop(path):
    """A config edit that deletes the key at a key path."""

    def edit(cfg):
        del _at(cfg, path[:-1])[path[-1]]

    return edit


def _edits(*edits):
    """A config edit that applies ``edits`` in order."""

    def edit(cfg):
        for e in edits:
            e(cfg)

    return edit


def _mlp_checkpoint(cfg):
    """Point an evaluate config at the workspace's MLP checkpoint, which sits
    beside the directory of its features."""
    cfg["checkpoint"] = str(Path(cfg["features"]).parents[1] / "model" / "model.bin")


# Each case once ran to completion, crashed with a traceback, or failed with
# an error that named the wrong cause.
DEFECTS = {
    "train-epochs-string": (
        "train", _set(("train", "epochs"), "3"), 'train.epochs must be an integer, got "3"',
    ),
    "train-width-string": (
        "train", _set(("model", "layers", 0, "width"), "8"),
        'ModelSpec.layers[0].width must be an integer, got "8"',
    ),
    "train-lstm-degree": (
        "train", _set(("model", "layers", 0, "degree"), 2), "lstm layers take no degree",
    ),
    "train-mode-typo": (
        "train", _set(("windowing",), {"mode": "causl"}), "windowing.mode must be one of",
    ),
    "grid-shuffle-string": (
        "grid", _set(("grid", "train.shuffle", 0), "no"),
        'grid entry {"model.layers.0.family": "legendre", "train.shuffle": "no"}: '
        'train.shuffle must be true or false, got "no"',
    ),
    "grid-batch-size-string": (
        "grid", _set(("train", "batch_size"), "64"), 'train.batch_size must be an integer, got "64"',
    ),
    "grid-seed-fraction": ("grid", _set(("seed",), 1.7), "seed must be an integer, got 1.7"),
    "grid-kan-activation": (
        "grid", _set(("model", "layers", 0, "activation"), "relu"),
        'grid entry {"model.layers.0.family": "legendre", "train.shuffle": false}: '
        "kan layers take no activation",
    ),
    "evaluate-margin-string": (
        "evaluate", _set(("margin",), "0.05"), 'margin must be a number, got "0.05"',
    ),
    "evaluate-windowing-unknown-key": (
        "evaluate", _set(("windowing",), {"bogus": 1}), "unknown windowing keys ['bogus']",
    ),
    "evaluate-timesteps-conflict": (
        "evaluate", _set(("windowing",), {"timesteps": 5}),
        "windowing.timesteps 5 conflicts with model.timesteps 3",
    ),
    "evaluate-mlp-windowing": (
        "evaluate", _mlp_checkpoint, "mlp models take no windowing; got windowing.mode",
    ),
    "train-mlp-windowing": (
        "train", _edits(_set(("model",), MODEL_SPEC), _set(("windowing",), {"mode": "causal"})),
        "mlp models take no windowing; got windowing.mode",
    ),
    "train-mlp-windowing-timesteps": (
        "train", _edits(_set(("model",), MODEL_SPEC), _set(("windowing",), {"timesteps": 7})),
        "mlp models take no windowing; got windowing.timesteps",
    ),
    "train-mlp-timesteps": (
        "train", _edits(_set(("model",), dict(MODEL_SPEC, timesteps=5)), _drop(("windowing",))),
        "mlp models take no timesteps",
    ),
    "train-mlp-kan-init": (
        "train", _edits(_set(("model",), dict(MODEL_SPEC, kan_init="eq")), _drop(("windowing",))),
        "mlp models take no kan_init",
    ),
    "synth-start-not-a-day": (
        "synth", _set(("start",), "2021-02-30"),
        'start must be a YYYY-MM-DD date, got "2021-02-30": day is out of range for month',
    ),
    "synth-vol-underflows-spot": (
        "synth", _edits(_set(("tickers", 0, "vol"), 50.0), _set(("n_quote_days",), 250)),
        "tickers[0].vol 50.0 with drift 0.05 and s0 100.0 underflows the simulated spot "
        "of 'AA' to 0.0 on",
    ),
    "synth-vol-squares-to-inf": (
        "synth", _set(("tickers", 0, "vol"), 1e155),
        "tickers[0].vol 1e+155 with drift 0.05 and s0 100.0 underflows the simulated spot",
    ),
    "synth-s0-past-float-range": (
        "synth", _set(("tickers", 0, "s0"), 10**400),
        "tickers[0].s0 must be a finite number, got 1000000000",
    ),
    "synth-s0-nan": (
        "synth", _set(("tickers", 0, "s0"), math.nan),
        "tickers[0].s0 must be a finite number, got NaN",
    ),
    "synth-vol-infinity": (
        "synth", _set(("tickers", 0, "vol"), math.inf),
        "tickers[0].vol must be a finite number, got Infinity",
    ),
    "synth-strike-nan": (
        "synth", _set(("strike_multipliers", 1), math.nan),
        "strike_multipliers[1] must be a finite number, got NaN",
    ),
    "synth-warmup-before-year-one": (
        "synth", _set(("start",), "0001-02-01"),
        "start 0001-02-01 minus warmup_days 95 falls before 0001-01-01",
    ),
    "synth-quote-days-past-year-9999": (
        "synth", _set(("n_quote_days",), 4000000),
        "start 2021-06-01 plus n_quote_days 4000000 - 1 plus expiry_days[1] 91 falls after "
        "9999-12-31",
    ),
    "synth-expiry-past-year-9999": (
        "synth", _set(("expiry_days",), [30, 10**19]),
        "start 2021-06-01 plus n_quote_days 2 - 1 plus expiry_days[1] 10000000000000000000 "
        "falls after 9999-12-31",
    ),
    "synth-start-in-year-9999": (
        "synth", _set(("start",), "9999-12-01"),
        "start 9999-12-01 plus n_quote_days 2 - 1 plus expiry_days[1] 91 falls after 9999-12-31",
    ),
    "synth-rate-walk-negative": (
        "synth", _set(("rate_walk_std",), -0.1), "rate_walk_std must be >= 0, got -0.1",
    ),
    "synth-pricing-vol-window-not-an-integer": (
        "synth", _set(("pricing_vol",), "realized:x"),
        "pricing_vol must be 'gbm' or 'realized:<window>', got 'realized:x'",
    ),
    "train-output-dim-two": (
        "train", _set(("model", "output_dim"), 2), "output_dim must be 1 (one price per row), got 2",
    ),
    "train-input-dim-narrower-than-features": (
        "train", _set(("model", "input_dim"), 3),
        "the input has 10 features, but the model's input_dim is 3",
    ),
    "synth-strike-past-float-range": (
        "synth", _set(("strike_multipliers",), [1e307, 1.0]),
        "the strike_price of 'AA' on 2021-06-01 at strike_multipliers[0] and expiry_days[0] "
        "is inf, not a finite number",
    ),
    "synth-discount-past-float-range": (
        "synth", _edits(_set(("rate",), -100.0), _set(("expiry_days",), [30, 36500])),
        "the bid of 'AA' on 2021-06-01 at strike_multipliers[0] and expiry_days[1] is",
    ),
    "synth-ticker-typo": (
        "synth", _set(("tickers", 0), {"name": "AA", "s0": 100.0, "drfit": 0.05, "vol": 0.2}),
        "unknown tickers[0] keys ['drfit']",
    ),
    "compare-entry-without-name": (
        "compare", _drop(("reports", 0, "name")), "missing reports[0] keys ['name']",
    ),
    "prepare-vol-windows": (
        "prepare", _set(("vol_windows",), [20, 90]), "unknown config keys ['vol_windows']",
    ),
}


@pytest.fixture(scope="module")
def valid_configs(workspace):
    """One valid config per config-driven subcommand, each seen to run."""
    root, features = workspace["root"], str(workspace["data"] / "features.csv")
    configs = {
        "synth": dict(SYNTH_CONFIG, n_quote_days=2),
        "prepare": json.loads((root / "prepare.json").read_text()),
        "train": {
            "features": features, "model": LSTM_SPEC, "seed": 1,
            "train": {"epochs": 1, "patience": 1, "shuffle": True},
            "windowing": {"mode": "causal", "timesteps": 3},
        },
        "evaluate": {
            "features": features, "checkpoint": str(root / "valid" / "train" / "model.bin"),
            "split": "val", "margin": 0.05, "windowing": {"mode": "causal"},
        },
        "compare": {"reports": [{"name": "mlp", "path": str(workspace["eval"] / "report.json")}]},
        "grid": {
            "features": features, "seed": 1,
            "model": {"layers": [{"kind": "kan", "width": 4, "degree": 2}]},
            "train": {"epochs": 1, "patience": 1},
            "grid": {"model.layers.0.family": ["legendre"], "train.shuffle": [False]},
        },
    }
    for command, cfg in configs.items():
        path = _write(root / f"valid_{command}.json", cfg)
        argv = [command, "--config", str(path), "--out", str(root / "valid" / command)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return configs


@pytest.mark.parametrize("case", sorted(DEFECTS))
def test_config_defect_fails_cleanly(valid_configs, tmp_path, capsys, case):
    command, edit, expected = DEFECTS[case]
    cfg = copy.deepcopy(valid_configs[command])
    edit(cfg)
    config = _write(tmp_path / "c.json", cfg)
    _fails(capsys, [command, "--config", str(config), "--out", str(tmp_path / "out")], expected)


@pytest.mark.parametrize(
    "name, column, expected",
    [
        ("quotes", "expiry_date",
         "quotes header must be quote_date,expiry_date,ticker,best_bid,best_offer,strike_price"),
        ("underlying", "ticker", "underlying header must be date,ticker,close"),
        ("rates", "rate", "rates header must be date,rate"),
    ],
    ids=["quotes", "underlying", "rates"],
)
def test_raw_csv_without_a_column_fails_cleanly(
    workspace, tmp_path, capsys, name, column, expected
):
    cfg = json.loads((workspace["root"] / "prepare.json").read_text())
    with open(cfg[name], newline="") as fh:
        table = list(csv.reader(fh))
    keep = [i for i, col in enumerate(table[0]) if col != column]
    bad = tmp_path / f"{name}.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows([row[i] for i in keep] for row in table)
    cfg[name] = str(bad)
    argv = ["prepare", "--config", str(_write(tmp_path / "p.json", cfg)),
            "--out", str(tmp_path / "out")]
    _fails(capsys, argv, f"{bad}: {expected}")


def _with_field(src, dst, row: int, column: int, value: str) -> Path:
    """A copy of the CSV ``src`` at ``dst`` with one field replaced."""
    with open(src, newline="") as fh:
        table = list(csv.reader(fh))
    table[row][column] = value
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(table)
    return dst


@pytest.mark.parametrize(
    "name, column, value, expected",
    [
        ("quotes", 0, "2021-13-01", "month must be in 1..12"),
        ("underlying", 2, "abc", "could not convert string to float: 'abc'"),
    ],
    ids=["quote-date", "underlying-close"],
)
def test_raw_csv_value_that_does_not_parse_fails_cleanly(
    workspace, tmp_path, capsys, name, column, value, expected
):
    cfg = json.loads((workspace["root"] / "prepare.json").read_text())
    cfg[name] = str(_with_field(cfg[name], tmp_path / f"{name}.csv", 4, column, value))
    argv = ["prepare", "--config", str(_write(tmp_path / "p.json", cfg)),
            "--out", str(tmp_path / "out")]
    _fails(capsys, argv, f"{cfg[name]}: line 5: {expected}")


def test_misspelled_ticker_with_one_close_fails_cleanly(workspace, tmp_path, capsys):
    """A ticker with a single close in underlying.csv has no log return, so
    no realized vol: prepare names the file and the ticker."""
    cfg = json.loads((workspace["root"] / "prepare.json").read_text())
    cfg["underlying"] = str(_with_field(cfg["underlying"], tmp_path / "u.csv", 4, 1, "BB"))
    argv = ["prepare", "--config", str(_write(tmp_path / "p.json", cfg)),
            "--out", str(tmp_path / "out")]
    _fails(capsys, argv, f"{cfg['underlying']}: ticker 'BB' has 1 close; need at least 2")


def test_subnormal_strike_fails_cleanly(workspace, tmp_path, capsys):
    """A positive strike_price too small to survive the division by 1000
    gives an infinite S/K: prepare rejects the row, it does not divide by 0."""
    cfg = json.loads((workspace["root"] / "prepare.json").read_text())
    cfg["quotes"] = str(_with_field(cfg["quotes"], tmp_path / "q.csv", 4, 5, "5e-324"))
    argv = ["prepare", "--config", str(_write(tmp_path / "p.json", cfg)),
            "--out", str(tmp_path / "out")]
    _fails(capsys, argv, "non-finite feature row for AA")


@pytest.mark.parametrize(
    "edit, expected",
    [
        ({"tickers": [SYNTH_CONFIG["tickers"][0], dict(SYNTH_CONFIG["tickers"][0], s0=50.0)]},
         "tickers[1].name 'AA' repeats tickers[0].name"),
        ({"strike_multipliers": [0.95, 1.0, 0.95]},
         "strike_multipliers[2] 0.95 repeats strike_multipliers[0]"),
        ({"expiry_days": [30, 91, 30]}, "expiry_days[2] 30 repeats expiry_days[0]"),
    ],
    ids=["ticker", "strike", "expiry"],
)
def test_repeated_synth_key_fails_cleanly(tmp_path, capsys, edit, expected):
    """A repeated ticker name would write both paths' quotes beside the last
    path's closes only; a repeated strike multiplier or expiry offset would
    write each of its quotes twice.  synth names the key and writes nothing."""
    synth = _write(tmp_path / "s.json", dict(SYNTH_CONFIG, **edit))
    _fails(capsys, ["synth", "--config", str(synth), "--out", str(tmp_path / "synth")],
           expected)
    assert not (tmp_path / "synth").exists()


def _with_header(src: Path, dst: Path, edit) -> Path:
    """A copy of checkpoint ``src`` whose JSON header is ``edit(header)``,
    with a valid CRC."""
    blob = src.read_bytes()
    meta_len = int.from_bytes(blob[12:16], "little")
    meta = json.dumps(edit(json.loads(blob[16 : 16 + meta_len]))).encode()
    body = len(meta).to_bytes(4, "little") + meta + blob[16 + meta_len :]
    dst.write_bytes(blob[:8] + zlib.crc32(body).to_bytes(4, "little") + body)
    return dst


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda h: dict(h, scaler=[1.0, 2.0]),
         "checkpoint header.scaler must be an object, got [1.0, 2.0]"),
        (lambda h: dict(h, scaler="standard"),
         'checkpoint header.scaler must be an object, got "standard"'),
        (lambda h: dict(h, spec=dict(h["spec"], layers=[
            dict(h["spec"]["layers"][0], kernel_size=3), h["spec"]["layers"][1]])),
         "dense layers take no kernel_size"),
        (lambda h: dict(h, spec=dict(h["spec"], timesteps=5)), "mlp models take no timesteps"),
        (lambda h: dict(h, spec=dict(h["spec"], kan_init="eq")), "mlp models take no kan_init"),
    ],
    ids=["scaler-list", "scaler-string", "dense-kernel-size", "mlp-timesteps", "mlp-kan-init"],
)
def test_malformed_checkpoint_header_fails_cleanly(workspace, tmp_path, capsys, edit, expected):
    """A header that passes the CRC is still checked against its schema:
    a scaler that is a list or a string once ended in a TypeError traceback."""
    bad = _with_header(workspace["model"] / "model.bin", tmp_path / "bad.bin", edit)
    cfg = _write(tmp_path / "e.json", {"features": str(workspace["data"] / "features.csv"),
                                       "checkpoint": str(bad)})
    _fails(capsys, ["evaluate", "--config", str(cfg), "--out", str(tmp_path / "out")], expected)


def test_version_1_checkpoint_fails_cleanly(workspace, tmp_path, capsys):
    """A version-1 checkpoint (this layout without the CRC word) is refused:
    evaluate prints one error line, exits 2 and writes nothing."""
    blob = (workspace["model"] / "model.bin").read_bytes()
    v1 = tmp_path / "v1.bin"
    v1.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[12:])
    cfg = _write(tmp_path / "e.json", {"features": str(workspace["data"] / "features.csv"),
                                       "checkpoint": str(v1)})
    _fails(capsys, ["evaluate", "--config", str(cfg), "--out", str(tmp_path / "out")],
           "error: unsupported checkpoint version 1")
    assert not (tmp_path / "out").exists()


def test_ticker_past_the_csv_field_limit_fails_synth(tmp_path, capsys):
    """No read of the CSVs could parse a name longer than the CSV field
    limit, so synth refuses it, as write_features_csv does, and writes nothing."""
    limit = csv.field_size_limit()
    synth = dict(SYNTH_CONFIG, tickers=[dict(SYNTH_CONFIG["tickers"][0], name="A" * (limit + 1))])
    argv = ["synth", "--config", str(_write(tmp_path / "s.json", synth)),
            "--out", str(tmp_path / "synth")]
    _fails(capsys, argv, f"tickers[0].name 'AAAAAAAAAAAAAAAAAAAA'... is longer than the CSV"
                         f" field limit ({limit})")
    assert not (tmp_path / "synth").exists()


def test_astronomical_spot_fails_training_cleanly(tmp_path, capsys):
    """Strikes near 1e300 pass synth and prepare, but their squares overflow
    the scaler's std: train rejects the infinite scale instead of saving it."""
    synth = dict(SYNTH_CONFIG, tickers=[dict(SYNTH_CONFIG["tickers"][0], s0=1e300)])
    argv = ["synth", "--config", str(_write(tmp_path / "s.json", synth)),
            "--out", str(tmp_path / "synth")]
    assert main(argv) == 0
    prepare = {name: str(tmp_path / "synth" / f"{name}.csv")
               for name in ("quotes", "underlying", "rates")}
    argv = ["prepare", "--config", str(_write(tmp_path / "p.json", prepare)),
            "--out", str(tmp_path / "data")]
    assert main(argv) == 0
    train = {"features": str(tmp_path / "data" / "features.csv"), "model": MODEL_SPEC,
             "train": {"epochs": 1, "patience": 1}, "seed": 1}
    argv = ["train", "--config", str(_write(tmp_path / "t.json", train)),
            "--out", str(tmp_path / "model")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _fails(capsys, argv, "scaler mean and scale must be finite; feature 1 has mean")
    assert not (tmp_path / "model" / "model.bin").exists()


def test_diverging_train_prints_one_error_line(workspace, tmp_path, capsys):
    """A learning rate of 1e308 overflows the first layer's matmul: train
    ends in the one TrainingDiverged line, with no numpy warning before it."""
    with open(workspace["data"] / "features.csv", newline="") as fh:
        head = list(csv.reader(fh))[:30]  # the header and 29 rows
    features = tmp_path / "features.csv"
    with open(features, "w", newline="") as fh:
        csv.writer(fh).writerows(head)
    train = {"features": str(features), "model": MODEL_SPEC, "seed": 1,
             "train": dict(TRAIN_SETTINGS, learning_rate=1e308)}
    argv = ["train", "--config", str(_write(tmp_path / "t.json", train)),
            "--out", str(tmp_path / "model")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _fails(capsys, argv, "produced non-finite values")


def test_overflowing_errors_fail_evaluate_cleanly(workspace, tmp_path, capsys):
    """A checkpoint whose head weights are scaled by 1e200 predicts finite
    prices whose squared errors overflow: evaluate prints one error line,
    exits 2 and writes no report, where it once wrote "mse": Infinity."""
    model = load_model(workspace["model"] / "model.bin")
    model.head.weights.data *= 1e200
    save_model(model, tmp_path / "model.bin")
    cfg = _write(tmp_path / "e.json", {"features": str(workspace["data"] / "features.csv"),
                                       "checkpoint": str(tmp_path / "model.bin")})
    _fails(capsys, ["evaluate", "--config", str(cfg), "--out", str(tmp_path / "out")],
           "error: the error metrics are not finite: the largest |prediction - actual| is ")
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command, value", [("train", "0.0"), ("evaluate", "-0.1")])
def test_non_positive_target_fails_cleanly(workspace, tmp_path, capsys, command, value):
    """A features.csv row whose target is not positive is refused where the
    file is read, with its file and line, before anything is trained or
    scored."""
    features = _with_field(workspace["data"] / "features.csv", tmp_path / "features.csv",
                           4, 12, value)
    cfg = {"features": str(features)}
    cfg.update({"model": MODEL_SPEC, "train": TRAIN_SETTINGS, "seed": 1} if command == "train"
               else {"checkpoint": str(workspace["model"] / "model.bin")})
    argv = [command, "--config", str(_write(tmp_path / "c.json", cfg)),
            "--out", str(tmp_path / "out")]
    _fails(capsys, argv, f"{features}: line 5: target must be positive")
    assert not (tmp_path / "out").exists()


def test_raw_csv_that_is_not_utf8_fails_cleanly(workspace, tmp_path, capsys):
    """A Latin-1 byte in quotes.csv ends prepare in one line that names the
    file and the line, as every other CSV error does."""
    cfg = json.loads((workspace["root"] / "prepare.json").read_text())
    quotes = Path(cfg["quotes"]).read_bytes().split(b"\r\n")
    quotes[5] = quotes[5].replace(b",AA,", b",A\xe9,")
    bad = tmp_path / "quotes.csv"
    bad.write_bytes(b"\r\n".join(quotes))
    cfg["quotes"] = str(bad)
    argv = ["prepare", "--config", str(_write(tmp_path / "p.json", cfg)),
            "--out", str(tmp_path / "out")]
    _fails(capsys, argv, f"{bad}: line 6: not UTF-8 text (byte 0xe9)")


def test_rate_too_negative_for_exp_drops_nothing(workspace, tmp_path):
    """A rate so negative that exp(-r*tau) overflows takes the limit, an
    infinite discount: the arbitrage bound is -inf, so prepare keeps the
    day's quotes instead of ending in an OverflowError traceback."""
    cfg = json.loads((workspace["root"] / "prepare.json").read_text())
    cfg["rates"] = str(_with_field(cfg["rates"], tmp_path / "r.csv", 100, 1, "-1e4"))
    argv = ["prepare", "--config", str(_write(tmp_path / "p.json", cfg)),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["filter_dropped"] == {"maturity": 0, "moneyness": 0, "arbitrage": 0}
    assert manifest["n_final_rows"] == 180


def test_cli_data_path_builds_no_feature_rows(workspace, tmp_path, monkeypatch):
    """synth and prepare carry the quote table, and prepare, train and
    evaluate the feature table, end to end: no prediction is classified one
    at a time."""
    calls = {"pricing_class": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ev, "pricing_class", counted("pricing_class", ev.pricing_class))
    synth = tmp_path / "synth"
    assert main(["synth", "--config", str(workspace["root"] / "synth.json"),
                 "--out", str(synth)]) == 0
    prepare = _write(tmp_path / "p.json", {name: str(synth / f"{name}.csv")
                                           for name in ("quotes", "underlying", "rates")})
    assert main(["prepare", "--config", str(prepare), "--out", str(tmp_path / "data")]) == 0
    features = str(tmp_path / "data" / "features.csv")
    train_cfg = {"features": features, "model": MODEL_SPEC, "seed": 7,
                 "train": {"epochs": 2, "patience": 2, "batch_size": 64}}
    assert main(["train", "--config", str(_write(tmp_path / "t.json", train_cfg)),
                 "--out", str(tmp_path / "model")]) == 0
    eval_cfg = {"features": features, "checkpoint": str(tmp_path / "model" / "model.bin")}
    assert main(["evaluate", "--config", str(_write(tmp_path / "e.json", eval_cfg)),
                 "--out", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "predictions.csv").read_text().count("\n") > 1
    assert calls == {"pricing_class": 0}


def test_train_and_evaluate_load_the_features_image(workspace, tmp_path, monkeypatch):
    """train and evaluate load features.csv from the image that prepare wrote
    beside it, parsing the CSV 0 times; with the image deleted each parses it
    once, and every output is byte-identical."""
    assert main(["prepare", "--config", str(workspace["root"] / "prepare.json"),
                 "--out", str(tmp_path / "data")]) == 0
    features = str(tmp_path / "data" / "features.csv")
    parsed = []
    parse = md._read_columns
    monkeypatch.setattr(md, "_read_columns",
                        lambda path, *a, **k: parsed.append(str(path)) or parse(path, *a, **k))
    train_cfg = _write(tmp_path / "t.json", {"features": features, "model": MODEL_SPEC,
                                              "seed": 7, "train": TRAIN_SETTINGS})
    counts = {}
    for source in ("image", "csv"):
        if source == "csv":
            Path(features + ".table").unlink()
        out = tmp_path / source
        eval_cfg = _write(tmp_path / f"e_{source}.json", {
            "features": features, "checkpoint": str(out / "train" / "model.bin")})
        for command, cfg in (("train", train_cfg), ("evaluate", eval_cfg)):
            parsed.clear()
            assert main([command, "--config", str(cfg), "--out", str(out / command)]) == 0
            counts[source, command] = parsed.count(features)
    assert counts == {("image", "train"): 0, ("image", "evaluate"): 0,
                      ("csv", "train"): 1, ("csv", "evaluate"): 1}
    files = sorted(p.relative_to(tmp_path / "image") for p in (tmp_path / "image").rglob("*")
                   if p.is_file())
    assert len(files) == 10
    for name in files:
        assert (tmp_path / "image" / name).read_bytes() == (tmp_path / "csv" / name).read_bytes()


def test_text_fields_in_output_csvs_are_quoted(workspace, tmp_path):
    """Tickers in predictions.csv, model names in ranking.csv and errors in
    grid.csv that hold a comma, a quote or a line break are quoted, so every
    row reads back with csv.reader as one field per column."""
    tickers = ["A,B", 'say "hi"', "C\rD\n"]
    synth = dict(SYNTH_CONFIG, tickers=[dict(SYNTH_CONFIG["tickers"][0], name=t)
                                        for t in tickers])
    assert main(["synth", "--config", str(_write(tmp_path / "s.json", synth)),
                 "--out", str(tmp_path / "synth")]) == 0
    prepare = _write(tmp_path / "p.json", {name: str(tmp_path / "synth" / f"{name}.csv")
                                           for name in ("quotes", "underlying", "rates")})
    assert main(["prepare", "--config", str(prepare), "--out", str(tmp_path / "data")]) == 0
    features = str(tmp_path / "data" / "features.csv")
    train = {"features": features, "model": MODEL_SPEC, "seed": 7,
             "train": {"epochs": 1, "patience": 1, "batch_size": 64}}
    assert main(["train", "--config", str(_write(tmp_path / "t.json", train)),
                 "--out", str(tmp_path / "model")]) == 0
    evaluate = {"features": features, "checkpoint": str(tmp_path / "model" / "model.bin")}
    assert main(["evaluate", "--config", str(_write(tmp_path / "e.json", evaluate)),
                 "--out", str(tmp_path / "eval")]) == 0
    report = str(tmp_path / "eval" / "report.json")
    names = ["mlp, run 1", 'mlp "b"', "mlp\rc"]
    compare = {"reports": [{"name": n, "path": report} for n in names]}
    assert main(["compare", "--config", str(_write(tmp_path / "c.json", compare)),
                 "--out", str(tmp_path / "cmp")]) == 0
    grid = {"features": features, "model": MODEL_SPEC, "seed": 3,
            "grid": {"train.learning_rate": [1e300]},
            "train": {"epochs": 1, "patience": 1, "batch_size": 64}}
    assert main(["grid", "--config", str(_write(tmp_path / "g.json", grid)),
                 "--out", str(tmp_path / "grid")]) == 0
    columns = {}
    for path in (tmp_path / "eval" / "predictions.csv", tmp_path / "cmp" / "ranking.csv",
                 tmp_path / "grid" / "grid.csv"):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and {len(r) for r in rows} == {len(header)}, path.name
        columns[path.name] = {name: {r[i] for r in rows} for i, name in enumerate(header)}
    assert columns["predictions.csv"]["ticker"] == set(tickers)
    assert columns["ranking.csv"]["model"] == set(names)
    assert columns["grid.csv"]["error"] == {"mse_loss: produced non-finite values at epoch 0, "
                                            "batch row 64; reduce the learning rate"}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flipped_checkpoint_byte_fails_cleanly(workspace, data):
    """Any one byte of a valid checkpoint changed: evaluate ends in one error
    line with exit code 2."""
    root = workspace["root"]
    blob = bytearray((workspace["model"] / "model.bin").read_bytes())
    at = data.draw(st.one_of(st.integers(0, 15), st.integers(0, len(blob) - 1)))
    blob[at] ^= data.draw(st.integers(1, 255))
    (root / "flipped.bin").write_bytes(blob)
    cfg = _write(root / "flipped.json", {"features": str(workspace["data"] / "features.csv"),
                                         "checkpoint": str(root / "flipped.bin")})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["evaluate", "--config", str(cfg), "--out", str(root / "flipped")])
    lines = err.getvalue().strip().splitlines()
    assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: "), (at, lines)


FIELD_VALUES = st.one_of(
    st.text(max_size=6),
    st.sampled_from([
        "", "abc", "nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "1e400",
        "2021-13-01", "2021-02-30", "2021-06-01", "1999-01-01", "AA", "BB",
    ]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
)


@pytest.mark.parametrize("name", ["quotes", "underlying", "rates", "features"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupted_csv_field_fails_cleanly(workspace, name, data):
    """Any one field of a valid CSV replaced by any text: the command that
    reads the file succeeds, or ends in one error line with exit code 2."""
    root = workspace["root"]
    if name == "features":
        source = workspace["data"] / "features.csv"
        cfg = {"features": None, "model": MODEL_SPEC, "seed": 7,
               "train": {"epochs": 1, "patience": 1, "batch_size": 64}}
        command = "train"
    else:
        cfg = json.loads((root / "prepare.json").read_text())
        source = cfg[name]
        command = "prepare"
    with open(source, newline="") as fh:
        table = list(csv.reader(fh))
    row = data.draw(st.integers(1, len(table) - 1))
    column = data.draw(st.integers(0, len(table[0]) - 1))
    value = data.draw(FIELD_VALUES)
    cfg[name] = str(_with_field(source, root / f"corrupted_{name}.csv", row, column, value))
    config = _write(root / "corrupted.json", cfg)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--config", str(config), "--out", str(root / "corrupted")])
    lines = err.getvalue().strip().splitlines()
    assert rc in (0, 2), (row, column, value)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), (row, column, value, lines)


def test_zero_mid_quote_is_skipped(workspace, tmp_path):
    """A quote with bid = offer = 0 is counted and skipped by prepare, so
    evaluate scores every surviving row instead of stopping on a zero target."""
    with open(workspace["synth"] / "quotes.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    day, strike = header.index("quote_date"), header.index("strike_price")
    first_day = min(r[day] for r in rows)
    top = max(float(r[strike]) for r in rows if r[day] == first_day)
    zeroed = 0
    for r in rows:
        if r[day] == first_day and float(r[strike]) == top:
            r[header.index("best_bid")] = r[header.index("best_offer")] = "0.0"
            zeroed += 1
    with open(tmp_path / "quotes.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)

    prepare_cfg = {
        "quotes": str(tmp_path / "quotes.csv"),
        "underlying": str(workspace["synth"] / "underlying.csv"),
        "rates": str(workspace["synth"] / "rates.csv"),
    }
    assert main(["prepare", "--config", str(_write(tmp_path / "p.json", prepare_cfg)),
                 "--out", str(tmp_path / "data")]) == 0
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    assert zeroed == 2 and manifest["build_skipped"]["zero_mid"] == zeroed
    assert manifest["n_final_rows"] == 180 - zeroed

    features = str(tmp_path / "data" / "features.csv")
    train_cfg = {"features": features, "model": MODEL_SPEC, "train": TRAIN_SETTINGS, "seed": 7}
    assert main(["train", "--config", str(_write(tmp_path / "t.json", train_cfg)),
                 "--out", str(tmp_path / "model")]) == 0
    eval_cfg = {"features": features, "checkpoint": str(tmp_path / "model" / "model.bin"),
                "split": "train"}
    assert main(["evaluate", "--config", str(_write(tmp_path / "e.json", eval_cfg)),
                 "--out", str(tmp_path / "eval")]) == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["n"] == (70 * (180 - zeroed)) // 100


# Keys whose absence leaves a valid config above still valid.
OPTIONAL = {
    "drift", "warmup_days", "rate", "noise", "windowing", "mode", "timesteps",
    "input_dim", "split", "margin", "family", "shuffle",
    "model.layers.0.family", "train.shuffle",  # each of the two grid axes
}

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
)


def _paths(node, prefix=()):
    """Every key path under ``node``: dict keys and list indices, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _other_type(value, original) -> bool:
    """True when ``value`` has another JSON type than ``original``; an
    integer counts as another type for an integer field, not for a float one."""
    if type(value) is type(original):
        return False
    return not (type(original) is float and type(value) is int)


@pytest.mark.parametrize("command", ["synth", "prepare", "train", "evaluate", "compare", "grid"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_config_fails_cleanly(valid_configs, workspace, command, data):
    """Dropping a required key, adding an unknown one, or giving a value
    another JSON type, at any depth, ends in one error line naming the key."""
    cfg = copy.deepcopy(valid_configs[command])
    paths = list(_paths(cfg))
    op = data.draw(st.sampled_from(["drop", "add", "swap"]))
    if op == "drop":
        path = data.draw(st.sampled_from(
            [p for p in paths if isinstance(p[-1], str) and p[-1] not in OPTIONAL]
        ))
        _drop(path)(cfg)
        key = path[-1]
    elif op == "add":
        path = data.draw(st.sampled_from(
            [()] + [p for p in paths if isinstance(_at(cfg, p), dict)]
        ))
        key = "zz_" + data.draw(st.text(alphabet="abc_", max_size=3))
        _set(path + (key,), data.draw(JSON_VALUES))(cfg)
    else:
        path = data.draw(st.sampled_from(paths))
        original = _at(cfg, path)
        _set(path, data.draw(JSON_VALUES.filter(lambda v: _other_type(v, original))))(cfg)
        key = [k for k in path if isinstance(k, str)][-1]

    config = _write(workspace["root"] / "mutated.json", cfg)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--config", str(config), "--out", str(workspace["root"] / "mutated")])
    lines = err.getvalue().strip().splitlines()
    assert rc == 2, (op, path)
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in lines[0] and key in lines[0], (op, path, lines)


def test_outputs_do_not_depend_on_the_inherited_blas_thread_count(tmp_path):
    """A synth -> prepare -> train (an RNN and a TDNN, one epoch each) ->
    evaluate chain in a fresh process writes the same bytes whether the
    process inherits one BLAS thread or two: the CLI pins one thread before
    numpy loads, and the child sees the pinned value."""
    rnn = {"layers": [{"kind": "lstm", "width": 8}, {"kind": "gru", "width": 8},
                      {"kind": "attention", "width": 8}], "input_dim": 10, "timesteps": 5}
    tdnn = {"layers": [{"kind": "conv1d", "width": 8, "kernel_size": 3,
                        "activation": "tanh"}] * 2, "input_dim": 10, "timesteps": 5}
    configs = {
        "synth.json": SYNTH_CONFIG,
        "prepare.json": {"quotes": "synth/quotes.csv", "underlying": "synth/underlying.csv",
                         "rates": "synth/rates.csv"},
    }
    argvs = [["synth", "--config", "synth.json", "--out", "synth"],
             ["prepare", "--config", "prepare.json", "--out", "data"]]
    for kind, spec in (("rnn", rnn), ("tdnn", tdnn)):
        configs[f"train_{kind}.json"] = {
            "features": "data/features.csv", "model": spec, "seed": 3,
            "train": {"epochs": 1, "patience": 1, "batch_size": 32}}
        configs[f"eval_{kind}.json"] = {
            "features": "data/features.csv", "checkpoint": f"train_{kind}/model.bin"}
        argvs += [["train", "--config", f"train_{kind}.json", "--out", f"train_{kind}"],
                  ["evaluate", "--config", f"eval_{kind}.json", "--out", f"eval_{kind}"]]
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = "\n".join([
        "import json, os, sys",
        "from optionlab.cli import main",
        "for argv in json.loads(sys.argv[1]):",
        "    assert main(argv) == 0, argv",
        f"print(json.dumps([os.environ[v] for v in {blas!r}]))",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        run.mkdir()
        for name, payload in configs.items():
            _write(run / name, payload)
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argvs)], cwd=run, capture_output=True,
            text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path, **dict.fromkeys(blas, threads)})
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == ["1", "1", "1"]
        runs[threads] = {p.relative_to(run): p.read_bytes()
                         for p in sorted(run.rglob("*")) if p.is_file()}
    assert len(runs["1"]) > len(configs) + 10
    assert runs["1"].keys() == runs["2"].keys()
    differ = [str(p) for p in runs["1"] if runs["1"][p] != runs["2"][p]]
    assert differ == []
