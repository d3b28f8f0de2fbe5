"""The three workloads and the loop that drives optionlab.cli.main through them.

Every workload runs the same units, in-process, through the real CLI:

* a set-up: ``synth`` then ``prepare`` of the workload's market;
* a training: ``train`` of one of the workload's models;
* an evaluation: ``evaluate`` of one model's checkpoint on one split.

Every unit runs once in chain order and its outputs are checked against
recomputations (checks.py).  Then, until the run's seconds are used, the
stage (set-up, training or evaluation) that has had the least measured time
for its weight runs its next unit; every repetition must reproduce the
checked outputs byte for byte.  Every CLI call is one operation, timed
alone; untraced, an operation's k-th run is pinned to the k-th CPU the
process may use.  A rate is the work of one run of each of the stage's
operations over the sum of their mean times (see README.md, "Timing on a
shared machine").  With tracing on, every second repetition of each unit
runs under the tracer, and the per-layer figures are, per unit, the median
over its traced runs, summed over the units.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import os
import io
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

from checks import check_market, check_model
from optionlab import cli
from tracing import Tracer

CPUS = sorted(os.sched_getaffinity(0))
SPLITS = ("train", "val", "test")

# criterion 08's acceptance market: ~20 000 quotes, two tickers
ACCEPTANCE_MARKET = {
    "tickers": [
        {"name": "AA", "s0": 100.0, "drift": 0.05, "vol": 0.2},
        {"name": "BB", "s0": 250.0, "drift": 0.02, "vol": 0.35},
    ],
    "start": "2020-01-06",
    "n_quote_days": 250,
    "strike_multipliers": [0.84, 0.88, 0.92, 0.96, 1.0, 1.05, 1.10, 1.15, 1.20, 1.24],
    "expiry_days": [30, 60, 120, 240],
    "warmup_days": 95,
    "rate": 0.03,
    "half_spread": 0.002,
    "noise": 0.01,
    "pricing_vol": "realized:90",
}

# four tickers, a rate random walk, and strikes and expiries past the
# moneyness [0.8, 1.2] and 15-day bounds, so every filter drops rows
WIDE_MARKET = {
    "tickers": [
        {"name": "AA", "s0": 100.0, "drift": 0.05, "vol": 0.15},
        {"name": "BB", "s0": 250.0, "drift": 0.02, "vol": 0.3},
        {"name": "CC", "s0": 40.0, "drift": 0.0, "vol": 0.45},
        {"name": "DD", "s0": 1200.0, "drift": 0.08, "vol": 0.6},
    ],
    "start": "2021-03-01",
    "n_quote_days": 115,
    "strike_multipliers": [0.76, 0.8, 0.84, 0.9, 0.95, 1.0, 1.05, 1.1, 1.16, 1.22, 1.26, 1.3],
    "expiry_days": [7, 14, 30, 60, 120, 240],
    "warmup_days": 95,
    "rate": 0.03,
    "rate_walk_std": 0.0004,
    "half_spread": 0.002,
    "noise": 0.01,
    "pricing_vol": "realized:90",
}


@dataclass(frozen=True)
class Model:
    key: str
    spec: dict
    epochs: int
    # largest allowed ratio of the checkpoint's train-split MSE to that of
    # predicting the training mean; the test-split ratio swings with how far
    # the test period drifts from the training one (see README.md)
    bar: float
    windowing: dict | None = None


MLP = {"input_dim": 10, "layers": [{"kind": "dense", "width": 32, "activation": "tanh"}] * 2}
KAN = {"input_dim": 10,
       "layers": [{"kind": "kan", "width": 16, "degree": 3, "family": "chebyshev2"}] * 2}
TDNN = {"input_dim": 10, "timesteps": 10,
        "layers": [{"kind": "conv1d", "width": 16, "kernel_size": 3, "activation": "tanh"}] * 2}
RNN = {"input_dim": 10, "timesteps": 10,
       "layers": [{"kind": "lstm", "width": 16}, {"kind": "gru", "width": 16},
                  {"kind": "attention", "width": 16}]}


@dataclass(frozen=True)
class Workload:
    name: str
    market: dict
    models: tuple
    filters_all_drop: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("market-data", WIDE_MARKET, (Model("mlp", MLP, 2, 0.7),),
                 filters_all_drop=True),
        Workload("train-flat", ACCEPTANCE_MARKET,
                 (Model("mlp", MLP, 20, 0.1), Model("kan", KAN, 5, 0.1))),
        Workload("train-seq", ACCEPTANCE_MARKET, (
            Model("tdnn", TDNN, 2, 0.8, {"mode": "overlapping", "timesteps": 10}),
            Model("rnn", RNN, 1, 0.7, {"mode": "causal", "timesteps": 10}),
        )),
    )
}

COMPARED = ("model.bin", "history.csv", "train_summary.json", "report.json",
            "baseline_windows.csv", "predictions.csv", "quotes.csv", "underlying.csv",
            "rates.csv", "features.csv")

# how many end-to-end rates each stage carries: the scheduler gives every
# stage measured time in this proportion, so each rate samples about as much
# of the run as the others
STAGE_WEIGHTS = {"setup": 2, "train": 1, "evaluate": 1}


@dataclass(frozen=True)
class Unit:
    """One kind of step the run repeats: a set-up, one model's training, or one evaluation."""
    stage: str
    key: str
    model: Model | None = None
    split: str | None = None


def units(workload):
    return ([Unit("setup", "setup")]
            + [Unit("train", f"train_{m.key}", m) for m in workload.models]
            + [Unit("evaluate", f"eval_{m.key}_{s}", m, s)
               for m in workload.models for s in SPLITS])


def _write(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def _same_files(a, b):
    """Relative paths of compared files that differ between two output trees."""
    return [str(p.relative_to(a)) for p in sorted(a.rglob("*"))
            if p.name in COMPARED and p.read_bytes() != (b / p.relative_to(a)).read_bytes()]


class Run:
    def __init__(self, workload, seed, out, tracer=None):
        self.w, self.seed, self.out, self.tracer = workload, seed, out, tracer
        self.attempted = 0
        self.runs = collections.Counter()  # CLI operation -> runs so far
        self.done = collections.Counter()  # unit key -> runs so far
        self.failures = []  # operations that did not complete
        self.errors = []  # checks that found wrong output
        self.table = None  # features.csv of the first set-up, checked
        self.samples = collections.defaultdict(list)  # operation -> [(work, seconds)], untraced
        self.setups = []  # seconds of each untraced set-up (synth + prepare)
        self.traced = collections.defaultdict(list)  # unit key -> [(seconds, self times)]
        self.later = collections.defaultdict(list)  # unit key -> seconds of untraced runs after the first
        self.per_step = collections.defaultdict(list)  # model key -> primitive calls per step
        self.configs = out / "configs"
        self.configs.mkdir(parents=True)

    def cli(self, op, *argv):
        """Run operation ``op`` through the CLI in-process; return its wall time or None."""
        self.attempted += 1
        # a traced run stays on one CPU, so traced and untraced runs compare
        cpu = CPUS[0] if self.tracer else CPUS[self.runs[op] % len(CPUS)]
        os.sched_setaffinity(0, {cpu})
        self.runs[op] += 1
        sink_out, sink_err = io.StringIO(), io.StringIO()
        gc.collect()  # each command starts from a collected heap, as in a fresh process
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                rc = cli.main(list(argv))
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self.failures.append(f"{op} failed ({rc}): {sink_err.getvalue().strip()}")
            return None
        return elapsed

    def do(self, unit):
        """Run the unit's next repetition; return the wall seconds it took.

        The first repetition of every unit is kept for the checks; later ones
        must reproduce it byte for byte.  With a tracer, every second
        repetition is traced.
        """
        k = self.done[unit.key]
        self.done[unit.key] += 1
        step = {"setup": self._setup, "train": self._train, "evaluate": self._evaluate}[unit.stage]
        traced = self.tracer is not None and k % 2 == 1
        t0 = time.perf_counter()
        with self.tracer.recording() if traced else contextlib.nullcontext() as start:
            result = step(unit, k)
        wall = time.perf_counter() - t0
        if result is None:
            return wall
        seconds = sum(t for _, t in result.values())
        if traced:
            self.traced[unit.key].append((seconds, self.tracer.self_times(start)))
            if unit.stage == "train":
                self.per_step[unit.model.key].append(
                    self.tracer.primitive_calls_per_step(start, len(self.tracer.spans)))
            return wall
        for op, sample in result.items():
            self.samples[op].append(sample)
        if unit.stage == "setup":
            self.setups.append(seconds)
        if k:
            self.later[unit.key].append(seconds)
        return wall

    def _setup(self, unit, k):
        d = self.out / f"setup{k}"
        d.mkdir(parents=True)
        market = dict(self.w.market, seed=20240801 + self.seed)
        synth = d / "synth"
        t_synth = self.cli("synth", "synth", "--config", _write(d / "synth.json", market),
                           "--out", str(synth))
        t_prep = self.cli("prepare", "prepare", "--config", _write(d / "prepare.json", {
            "quotes": str(synth / "quotes.csv"), "underlying": str(synth / "underlying.csv"),
            "rates": str(synth / "rates.csv")}), "--out", str(d / "data"))
        if t_synth is None or t_prep is None:
            return None
        if k == 0:
            errors, self.table = check_market(synth, d / "data", self.w.market,
                                              self.w.filters_all_drop)
            self.errors += errors
        else:
            self._compare(d, self.out / "setup0")
        n = market_quotes(self.w.market)
        return {"synth": (n, t_synth), "prepare": (n, t_prep)}

    def _train(self, unit, k):
        m = unit.model
        cfg = self.configs / f"{unit.key}.json"
        if k == 0:
            payload = {"features": self._features(), "model": m.spec, "seed": 11 + self.seed,
                       "train": {"epochs": m.epochs, "patience": m.epochs, "batch_size": 256,
                                 "learning_rate": 3e-3, "shuffle": True}}
            if m.windowing:
                payload["windowing"] = m.windowing
            _write(cfg, payload)
        d = self.out / f"{unit.key}-{k}"
        t = self.cli(unit.key, "train", "--config", str(cfg), "--out", str(d))
        if t is None:
            return None
        summary = json.loads((d / "train_summary.json").read_text())
        if k:
            self._compare(d, self.out / f"{unit.key}-0")
        return {unit.key: (summary["n_train"] * summary["epochs_run"], t)}

    def _evaluate(self, unit, k):
        m = unit.model
        cfg = self.configs / f"{unit.key}.json"
        if k == 0:
            payload = {"features": self._features(), "split": unit.split,
                       "checkpoint": str(self.out / f"train_{m.key}-0" / "model.bin")}
            if m.windowing:
                payload["windowing"] = m.windowing
            _write(cfg, payload)
        d = self.out / f"{unit.key}-{k}"
        t = self.cli(unit.key, "evaluate", "--config", str(cfg), "--out", str(d))
        if t is None:
            return None
        with open(d / "predictions.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if k:
            self._compare(d, self.out / f"{unit.key}-0")
        return {unit.key: (rows, t)}

    def _features(self):
        return str(self.out / "setup0" / "data" / "features.csv")

    def check_models(self):
        """Check every model's first training and first evaluations."""
        if self.table is None:
            self.errors.append("the first set-up gave no features.csv to check models against")
            return
        for m in self.w.models:
            evals = {s: self.out / f"eval_{m.key}_{s}-0" for s in SPLITS}
            if not (self.out / f"train_{m.key}-0").is_dir() or not all(
                    (d / "predictions.csv").is_file() for d in evals.values()):
                self.errors.append(f"{m.key}: no complete first training and evaluations")
                continue
            self.errors += check_model(self.out / f"train_{m.key}-0", evals, self.table, m,
                                       self.w.market["noise"])

    def _compare(self, d, first):
        diff = _same_files(d, first)
        if diff:
            self.errors.append(f"{d.name} differs from {first.name} in {diff}")
        shutil.rmtree(d)


def market_quotes(market):
    return (len(market["tickers"]) * market["n_quote_days"]
            * len(market["strike_multipliers"]) * len(market["expiry_days"]))


def _rate(samples, ops):
    """Work over time of a group of operations: the work of one run of each,
    over the sum of each one's mean seconds, so the mix stays fixed however
    many times each ran."""
    if not ops or not all(samples.get(op) for op in ops):
        return float("nan")
    work = sum(samples[op][0][0] for op in ops)
    return work / sum(statistics.fmean(t for _, t in samples[op]) for op in ops)


def run_workload(workload, seed, seconds, trace, out, layer_names=()):
    """Run one workload; return (correct, attempted, failed, {metric: value}, messages).

    Every unit runs once, in chain order, and is checked.  Then, while
    ``seconds`` last, the stage that has had the least measured time for its
    weight runs its next unit, round robin within the stage.  Untraced, the
    metrics are the end-to-end ones; traced, ``layer_names``, and every unit
    runs at least three times (untraced, traced, untraced).
    """
    tracer = Tracer() if trace else None
    run = Run(workload, seed, out, tracer)
    all_units = units(workload)
    by_stage = {s: [u for u in all_units if u.stage == s] for s in STAGE_WEIGHTS}
    spent = dict.fromkeys(STAGE_WEIGHTS, 0.0)
    turn = collections.Counter()
    last = {}

    t0 = time.perf_counter()
    for u in all_units:
        last[u.key] = run.do(u)
        spent[u.stage] += last[u.key]
    run.check_models()
    while not run.errors:
        stage = min(STAGE_WEIGHTS, key=lambda s: spent[s] / STAGE_WEIGHTS[s])
        u = by_stage[stage][turn[stage] % len(by_stage[stage])]
        if time.perf_counter() - t0 + last[u.key] > seconds:
            break
        turn[stage] += 1
        last[u.key] = run.do(u)
        spent[stage] += last[u.key]
    if trace:
        for u in all_units:
            while not run.errors and run.done[u.key] < 3:
                run.do(u)

    if not trace:
        s = run.samples
        metrics = {
            "setup_s": statistics.median(run.setups) if run.setups else float("nan"),
            "synth_quotes_per_s": _rate(s, ["synth"]),
            "prepare_quotes_per_s": _rate(s, ["prepare"]),
            "train_samples_per_s": _rate(s, [u.key for u in by_stage["train"]]),
            "evaluate_rows_per_s": _rate(s, [u.key for u in by_stage["evaluate"]]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        data = per_layer_metrics(tracer, run, [u.key for u in all_units])
        metrics = {name: layer_metric(name, data) for name in layer_names} if data else {}
        tracer.write_spans(out / "spans.csv.gz")
    return not run.errors, run.attempted, len(run.failures), metrics, run.failures + run.errors


def per_layer_metrics(tracer, run, keys):
    """Self times and counts of one chain: for every unit, the median over
    its traced runs, summed over the units."""
    if not all(run.traced[k] and run.later[k] for k in keys):
        run.errors.append("the traced run lacks a traced or a later untraced run of some unit")
        return {}
    names = set()
    for k in keys:
        for _, times in run.traced[k]:
            names |= set(times)

    def value(name, field):
        return sum(statistics.median(t.get(name, (0.0, 0))[field] for _, t in run.traced[k])
                   for k in keys)

    for model, counts in run.per_step.items():
        if len(set(counts)) != 1:
            run.errors.append(f"{model}: primitive calls per step differ between traced runs: "
                              f"{counts}")
    traced = sum(statistics.median(t for t, _ in run.traced[k]) for k in keys)
    untraced = sum(statistics.median(run.later[k]) for k in keys)
    return {
        "self_s": {n: value(n, 0) for n in names},
        "calls": {n: value(n, 1) for n in names},
        "primitives": sorted(tracer.primitives),
        "per_step": {model: counts[0] for model, counts in run.per_step.items()},
        "overhead_s": traced - untraced,
    }


# per-layer metrics that add up several traced functions
GROUPS = {
    "layers.blocks": ("layers.dense_forward", "layers.kan_layer_forward", "layers.kan_poly_eval",
                      "layers.conv1d_forward", "layers.lstm_step", "layers.gru_step",
                      "layers.self_attention"),
    "market_data.windows": ("market_data.windows_causal", "market_data.windows_overlapping"),
}


def layer_metric(name, data):
    """One per-layer metric, by its BENCHMARK.json name, from per_layer_metrics()."""
    if name == "trace.overhead_s":
        return data["overhead_s"]
    if name.startswith("autodiff.primitive_calls_per_step."):
        return data["per_step"].get(name.rsplit(".", 1)[1], 0.0)
    if name == "training.steps":
        return data["calls"].get("training.adam_step", 0)
    base, kind = name.rsplit(".", 1)
    table = data["calls"] if kind == "calls" else data["self_s"]
    parts = data["primitives"] if base == "autodiff.primitives" else GROUPS.get(base, (base,))
    return sum(table.get(p, 0) for p in parts)
