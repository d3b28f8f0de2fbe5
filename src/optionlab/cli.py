"""Batch command-line interface.

Seven subcommands cover the full workflow::

    optionlab synth     --config synth.json    --out runs/synth
    optionlab prepare   --config prepare.json  --out runs/data
    optionlab train     --config train.json    --out runs/mlp
    optionlab evaluate  --config eval.json     --out runs/mlp
    optionlab compare   --config compare.json  --out runs/cmp
    optionlab grid      --config grid.json     --out runs/grid [--jobs N]
    optionlab bs        --mode price|iv|mc --spot .. --strike .. ...

Every stochastic command needs an explicit seed (config key or --seed; the
flag wins); nothing ever falls back to wall-clock entropy.  Config files are
JSON, checked against one schema per subcommand (the ``_*_SCHEMA`` dicts
below, in the format of ``optionlab.schema``): unknown keys, missing keys and
values of the wrong JSON type are all rejected with an error naming the key
path, so typos fail loudly.  All outputs are deterministic functions of
(config, seed), byte for byte, at any inherited BLAS thread count: the
module sets the OpenBLAS, OpenMP and MKL thread counts to one before numpy
loads, overriding inherited values, because a BLAS product split over
threads can round differently.  That holds for ``python -m optionlab.cli``
and the ``optionlab`` script, not for a process that loaded numpy first.
The variables are set in ``os.environ`` on import, so they hold for the
whole importing process: a program that imports this module keeps its own
BLAS if numpy was loaded first, but every subprocess it starts later, and
any OpenMP library it loads later, gets one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from . import evaluation as ev  # noqa: E402
from . import market_data as md  # noqa: E402
from .bs import BsInputs, McConfig, bs_call_price, implied_vol, mc_call_price  # noqa: E402
from .layers import ModelSpec, build_model, load_model, param_count, save_model  # noqa: E402
from .schema import check, load_config  # noqa: E402
from .training import GridSpec, TrainConfig, grid_search, train  # noqa: E402

__all__ = ["main"]

_TRAIN_SCHEMA = {
    "epochs": int,
    "batch_size": (int, 256),
    "patience": (int, 10),
    "restore_best": (bool, True),
    "learning_rate": (float, 1e-3),
    "shuffle": (bool, False),
    "standardize": (bool, True),
}
# an unset windowing.mode is overlapping for conv1d models and causal otherwise
_WINDOWING_SCHEMA = {"mode": ({"causal", "overlapping"}, None), "timesteps": (int, None)}
_WINDOWING = (_WINDOWING_SCHEMA, dict.fromkeys(_WINDOWING_SCHEMA))

_SYNTH_SCHEMA = {
    "tickers": [{"name": str, "s0": float, "drift": (float, 0.0), "vol": float}],
    "start": str,
    "n_quote_days": int,
    "strike_multipliers": [float],
    "expiry_days": [int],
    "seed": (int, None),
    "warmup_days": (int, 120),
    "rate": (float, 0.03),
    "rate_walk_std": (float, 0.0),
    "half_spread": (float, 0.0),
    "noise": (float, 0.0),
    "pricing_vol": (str, "gbm"),
}
_PREPARE_SCHEMA = {"quotes": str, "underlying": str, "rates": str}
_TRAIN_CONFIG_SCHEMA = {
    "features": str,
    "model": dict,  # checked by ModelSpec.from_dict, as in a checkpoint header
    "train": _TRAIN_SCHEMA,
    "seed": (int, None),
    "windowing": _WINDOWING,
}
_EVALUATE_SCHEMA = {
    "features": str,
    "checkpoint": str,
    "split": ({"train", "val", "test"}, "test"),
    "margin": (float, ev.DEFAULT_MARGIN),
    "windowing": _WINDOWING,
}
_COMPARE_SCHEMA = {"reports": [{"name": str, "path": str}]}
# the fields compare reads from each report.json; the others are ignored
_REPORT_FIELDS = {"n": int, "mse": float, "rmse": float, "mae": float, "pct_correct": float}
# an axis left out keeps _SpecBuilder's default (or the train learning_rate)
_SHARED_AXES = {"dropout": ([float], None), "learning_rate": ([float], None)}
_GRID_AXES = {
    "mlp": {
        "width": [int], "n_layers": ([int], None), "activation": ([str], None), **_SHARED_AXES,
    },
    "kan": {"width": [int], "degrees": [[int]], "family": ([str], None), **_SHARED_AXES},
}
_GRID_SCHEMA = {
    "features": str,
    "kind": set(_GRID_AXES),
    "grid": dict,  # checked against _GRID_AXES[kind]
    "train": _TRAIN_SCHEMA,
    "seed": (int, None),
}


def _need_seed(seed: int | None, args) -> int:
    """The --seed flag if given, else the config's seed; one is required."""
    seed = args.seed if args.seed is not None else seed
    if seed is None:
        raise ValueError("a seed is required (config key 'seed' or --seed)")
    return seed


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    cfg = load_config(args.config, _SYNTH_SCHEMA)
    seed = _need_seed(cfg.pop("seed"), args)
    try:
        start = date.fromisoformat(cfg["start"])
    except ValueError as exc:
        raise ValueError(
            f"start must be a YYYY-MM-DD date, got {json.dumps(cfg['start'])}: {exc}"
        ) from None
    synth_cfg = md.SynthConfig(**dict(
        cfg, tickers=[md.TickerConfig(**t) for t in cfg["tickers"]], start=start,
    ))
    data = md.generate_synthetic_dataset(synth_cfg, seed)
    out = _outdir(args)
    md.write_quotes_csv(data.quotes, out / "quotes.csv")
    md.write_underlying_csv(data.underlying, out / "underlying.csv")
    md.write_rates_csv(data.rates, out / "rates.csv")
    _write_json(
        out / "manifest.json",
        {
            "seed": seed,
            "n_quotes": len(data.quotes),
            "n_tickers": len(synth_cfg.tickers),
            "n_quote_days": synth_cfg.n_quote_days,
            "pricing_vol": synth_cfg.pricing_vol,
        },
    )
    print(f"synth: wrote {len(data.quotes)} quotes to {out}")
    return 0


# ---------------------------------------------------------------------------
# prepare


def cmd_prepare(args) -> int:
    cfg = load_config(args.config, _PREPARE_SCHEMA)
    quotes = md.read_quotes_csv(cfg["quotes"])
    underlying = md.read_underlying_csv(cfg["underlying"])
    rates = md.read_rates_csv(cfg["rates"])

    joined, join_skipped = md.attach_market_data(quotes, underlying, rates)
    built = md.build_features(joined, underlying)
    t = built.table
    keep, dropped = md.filter_mask(t.column("s_over_k"), t.column("ttm_years"),
                                   t.column("rate"), t.target)
    table = t.take(keep)

    out = _outdir(args)
    md.write_features_csv(table, out / "features.csv")
    _write_json(
        out / "manifest.json",
        {
            "n_quotes_read": len(quotes),
            "join_skipped": join_skipped,
            "build_skipped": built.skipped,
            "n_feature_rows": len(t),
            "filter_dropped": dropped,
            "n_final_rows": len(table),
        },
    )
    print(f"prepare: {len(quotes)} quotes -> {len(table)} rows (dropped {dropped})")
    return 0


# ---------------------------------------------------------------------------
# windowing shared by train/evaluate


def _window_mode(windowing: dict, spec: ModelSpec) -> str | None:
    """Check a ``windowing`` section against the model; return its window
    mode, or None for flat (mlp/kan) models, which take no windows."""
    timesteps = windowing["timesteps"]
    if timesteps is not None and timesteps != spec.timesteps:
        raise ValueError(
            f"windowing.timesteps {timesteps} conflicts with model.timesteps {spec.timesteps}"
        )
    if spec.mode() in ("mlp", "kan"):
        return None
    if spec.timesteps is None:
        raise ValueError("sequence models need 'timesteps' in the model spec")
    return windowing["mode"] or ("overlapping" if spec.mode() == "conv" else "causal")


def _window_split(table, mode: str, timesteps: int):
    """Per-ticker sequence windows over a feature table sorted by day.

    Returns (inputs [M, T, F], targets [M], target rows as a table), tickers
    in name order.  Tickers with too few rows contribute nothing.  ``mode``
    is "causal" (targets strictly after their window) or "overlapping"
    (target = last window row).
    """
    windows = md.windows_causal if mode == "causal" else md.windows_overlapping
    xs, ys, targets = [], [], []
    for code in np.unique(table.codes).tolist():
        idx = np.flatnonzero(table.codes == code)
        try:
            batch = windows(table.x[idx], table.target[idx], timesteps)
        except ValueError:
            continue  # not enough rows for one window
        xs.append(batch.inputs)
        ys.append(batch.targets)
        targets.append(idx[idx.size - batch.targets.size :])  # the last rows are targets
    if not xs:
        raise ValueError(f"no ticker has enough rows for {timesteps}-step windows")
    return np.concatenate(xs), np.concatenate(ys), table.take(np.concatenate(targets))


def _split_arrays(table, wmode: str | None, timesteps, names=("train", "val", "test")):
    """Chronological split, then (inputs, targets, target rows) of each part
    in ``names``: flat when ``wmode`` is None, else windowed in that mode."""
    split = md.split_indices(table.days)
    out = {}
    for name in names:
        part = table.take(getattr(split, name))
        out[name] = (
            (part.x, part.target, part) if wmode is None
            else _window_split(part, wmode, timesteps)
        )
    return out


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = load_config(args.config, _TRAIN_CONFIG_SCHEMA)
    seed = _need_seed(cfg["seed"], args)
    spec = ModelSpec.from_dict(cfg["model"])
    train_cfg = TrainConfig(seed=seed, **cfg["train"])
    wmode = _window_mode(cfg["windowing"], spec)

    arrays = _split_arrays(md.read_feature_table(cfg["features"]), wmode, spec.timesteps)
    x_train, y_train, _ = arrays["train"]
    x_val, y_val, _ = arrays["val"]
    x_test, y_test, _ = arrays["test"]

    model = build_model(spec, seed)
    result = train(model, (x_train, y_train), (x_val, y_val), train_cfg)

    test_pred = model.predict(x_test)
    test_mse, test_rmse, test_mae = ev.error_metrics(test_pred, y_test)

    out = _outdir(args)
    save_model(model, out / "model.bin")
    _write_json(out / "model_spec.json", spec.to_dict())
    with open(out / "history.csv", "w") as fh:
        fh.write("epoch,train_mse,val_mse\n")
        for epoch, tr, va in result.history:
            fh.write(f"{epoch},{tr!r},{va!r}\n")
    _write_json(
        out / "train_summary.json",
        {
            "seed": seed,
            "param_count": param_count(spec),
            "epochs_run": len(result.history),
            "stopped_early": result.stopped_early,
            "best_epoch": result.best_epoch,
            "best_val_mse": result.best_val_mse,
            "test_mse": test_mse,
            "test_rmse": test_rmse,
            "test_mae": test_mae,
            "n_train": int(np.asarray(x_train).shape[0]),
            "n_val": int(np.asarray(x_val).shape[0]),
            "n_test": int(np.asarray(x_test).shape[0]),
        },
    )
    print(
        f"train: {param_count(spec)} params, best val mse {result.best_val_mse:.6g} "
        f"at epoch {result.best_epoch}, test mse {test_mse:.6g}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, _EVALUATE_SCHEMA)
    which, margin = cfg["split"], cfg["margin"]
    model = load_model(cfg["checkpoint"])
    wmode = _window_mode(cfg["windowing"], model.spec)
    table = md.read_feature_table(cfg["features"])
    x, y, scored = _split_arrays(table, wmode, model.spec.timesteps, (which,))[which]
    pred = model.predict(x)
    report = ev.build_report(pred, scored, margin=margin)
    windows = ev.baseline_window_table(scored, margin=margin)

    out = _outdir(args)
    (out / "report.json").write_text(ev.report_to_json(report) + "\n")
    ev.write_report_csv(report, out / "report.csv")
    (out / "report.txt").write_text(ev.format_report_text(report, title=which) + "\n")
    (out / "baseline_windows.txt").write_text(ev.format_window_table(windows) + "\n")
    with open(out / "baseline_windows.csv", "w") as fh:
        fh.write("window,mse,rmse,mae,pct_correct\n")
        for w, r in windows:
            fh.write(f"{w},{r.mse!r},{r.rmse!r},{r.mae!r},{r.pct_correct!r}\n")
    over, _, correct = ev.class_masks(pred, scored.target, margin)
    labels = np.where(correct, "correct", np.where(over, "over", "under")).tolist()
    days = {d: date.fromordinal(d).isoformat() for d in np.unique(scored.days).tolist()}
    tickers = [md._csv_text(t) for t in scored.tickers]
    with open(out / "predictions.csv", "w") as fh:
        fh.write("quote_date,ticker,actual,predicted,class\n")
        fh.writelines(
            f"{days[d]},{tickers[c]},{a!r},{p!r},{label}\n"
            for d, c, a, p, label in zip(scored.days.tolist(), scored.codes.tolist(),
                                         scored.target.tolist(), pred.tolist(), labels)
        )
    print(ev.format_report_text(report, title=which))
    print()
    print(ev.format_window_table(windows))
    return 0


# ---------------------------------------------------------------------------
# compare


def _load_report(path: str) -> dict:
    """The ``_REPORT_FIELDS`` of the report.json at ``path``, checked."""
    try:
        report = json.loads(Path(path).read_text())
        if isinstance(report, dict):
            report = {k: v for k, v in report.items() if k in _REPORT_FIELDS}
        return check(report, _REPORT_FIELDS, "report")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_compare(args) -> int:
    cfg = load_config(args.config, _COMPARE_SCHEMA)
    entries = [(item["name"], _load_report(item["path"])) for item in cfg["reports"]]
    entries.sort(key=lambda e: e[1]["mse"])

    out = _outdir(args)
    lines = ["{:<20} {:>10} {:>12} {:>12} {:>9}".format("model", "n", "mse", "rmse", "correct%")]
    with open(out / "ranking.csv", "w") as fh:
        fh.write("rank,model,n,mse,rmse,mae,pct_correct\n")
        for rank, (name, r) in enumerate(entries, start=1):
            fh.write(
                f"{rank},{md._csv_text(name)},{r['n']},{r['mse']!r},{r['rmse']!r},"
                f"{r['mae']!r},{r['pct_correct']!r}\n"
            )
            lines.append(
                "{:<20} {:>10} {:>12.6g} {:>12.6g} {:>9.2f}".format(
                    name, r["n"], r["mse"], r["rmse"], r["pct_correct"]
                )
            )
    text = "\n".join(lines)
    (out / "ranking.txt").write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class _SpecBuilder:
    """Module-level (hence picklable) model factory for grid entries."""

    kind: str
    input_dim: int

    def spec_for(self, combo: dict) -> ModelSpec:
        shared = {"width": combo["width"], "dropout": combo.get("dropout", 0.0)}
        if self.kind == "mlp":
            activation = combo.get("activation", "tanh")
            layers = [dict(shared, kind="dense", activation=activation)] * combo.get("n_layers", 2)
        else:  # kan
            family = combo.get("family", "chebyshev2")
            layers = [dict(shared, kind="kan", degree=d, family=family) for d in combo["degrees"]]
        return ModelSpec.from_dict({"layers": layers, "input_dim": self.input_dim})

    def __call__(self, combo: dict, seed: int):
        return build_model(self.spec_for(combo), seed)


def cmd_grid(args) -> int:
    cfg = load_config(args.config, _GRID_SCHEMA)
    seed = _need_seed(cfg["seed"], args)
    kind = cfg["kind"]
    axes = check(cfg["grid"], _GRID_AXES[kind], "grid")
    train_cfg = TrainConfig(seed=seed, **cfg["train"])

    arrays = _split_arrays(md.read_feature_table(cfg["features"]), None, None, ("train", "val"))
    x_train, y_train, _ = arrays["train"]
    x_val, y_val, _ = arrays["val"]

    grid = GridSpec(axes={k: tuple(v) for k, v in axes.items() if v is not None})
    builder = _SpecBuilder(kind=kind, input_dim=x_train.shape[1])
    results = grid_search(
        grid, builder, (x_train, y_train), (x_val, y_val),
        train_cfg, master_seed=seed, jobs=args.jobs,
    )

    out = _outdir(args)
    lines = ["{:<60} {:>12}".format("config", "val_mse")]
    with open(out / "grid.csv", "w") as fh:
        fh.write("rank,config,seed,val_mse,error\n")
        for rank, r in enumerate(results, start=1):
            blob = json.dumps(r.config, sort_keys=True)
            val = "" if r.val_mse is None else repr(r.val_mse)
            error = md._csv_text(r.error or "")
            fh.write(f"{rank},{md._csv_text(blob)},{r.seed},{val},{error}\n")
            lines.append(
                "{:<60} {:>12}".format(
                    blob, f"{r.val_mse:.6g}" if r.val_mse is not None else f"FAILED"
                )
            )
    text = "\n".join(lines)
    (out / "grid.txt").write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# bs


def cmd_bs(args) -> int:
    if args.mode == "price":
        if args.vol is None:
            raise ValueError("--vol is required for --mode price")
        p = BsInputs(args.spot, args.strike, args.rate, args.vol, args.ttm)
        print(json.dumps({"price": bs_call_price(p)}))
    elif args.mode == "iv":
        if args.price is None:
            raise ValueError("--price is required for --mode iv")
        vol = implied_vol(args.price, args.spot, args.strike, args.rate, args.ttm)
        print(json.dumps({"implied_vol": vol}))
    else:  # mc
        if args.vol is None:
            raise ValueError("--vol is required for --mode mc")
        if args.seed is None:
            raise ValueError("--seed is required for --mode mc")
        p = BsInputs(args.spot, args.strike, args.rate, args.vol, args.ttm)
        price, se = mc_call_price(
            p, McConfig(paths=args.paths, seed=args.seed, antithetic=args.antithetic)
        )
        print(json.dumps({"price": price, "std_error": se}))
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optionlab",
        description="Option-pricing laboratory: synthesis, features, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_out=True, needs_seed=False, needs_jobs=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        if needs_seed:
            p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        if needs_jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.set_defaults(func=func)
        return p

    add("synth", cmd_synth, "generate a synthetic market", needs_seed=True)
    add("prepare", cmd_prepare, "quotes + underlying + rates -> filtered feature rows")
    add("train", cmd_train, "train one model from a features file", needs_seed=True)
    add("evaluate", cmd_evaluate, "score a checkpoint and emit reports")
    add("compare", cmd_compare, "rank evaluation reports")
    add("grid", cmd_grid, "exhaustive hyperparameter sweep", needs_seed=True, needs_jobs=True)

    p_bs = sub.add_parser("bs", help="closed-form price, implied vol, or Monte Carlo check")
    p_bs.add_argument("--mode", required=True, choices=("price", "iv", "mc"))
    p_bs.add_argument("--spot", type=float, required=True)
    p_bs.add_argument("--strike", type=float, required=True)
    p_bs.add_argument("--rate", type=float, required=True)
    p_bs.add_argument("--ttm", type=float, required=True)
    p_bs.add_argument("--vol", type=float, default=None)
    p_bs.add_argument("--price", type=float, default=None)
    p_bs.add_argument("--paths", type=int, default=100_000)
    p_bs.add_argument("--seed", type=int, default=None)
    p_bs.add_argument("--antithetic", action="store_true")
    p_bs.set_defaults(func=cmd_bs)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
