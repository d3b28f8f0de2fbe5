"""The whole CLI chain under hypothesis: synth -> prepare -> train ->
evaluate -> compare, run through ``main`` on tiny markets with schema-valid
but extreme configs.  Every command either succeeds or prints exactly one
``error:`` line with exit code 2; none ends in a traceback."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from optionlab.cli import main

KAN = {"kind": "kan", "width": 3, "degree": 2, "family": "legendre"}
LSTM = {"kind": "lstm", "width": 2}
# each model as its layer stack and whether it reads windows
MODELS = {
    "mlp": ([{"kind": "dense", "width": 3, "activation": "tanh", "dropout": 0.5}], False),
    "kan": ([dict(KAN, dropout=0.3)], False),
    "tdnn": ([{"kind": "conv1d", "width": 2, "kernel_size": 2, "activation": "relu",
               "dropout": 0.25}], True),
    "gru": ([{"kind": "gru", "width": 2, "activation": "softmax"}], True),
    "lstm-attention": ([LSTM, {"kind": "attention", "width": 2, "dropout": 0.2}], True),
}


@st.composite
def chains(draw):
    """The synth, train and evaluate configs of one chain, less their paths.
    ``timesteps`` is drawn near the rows one ticker has, and a sequence
    model's evaluate may window in another mode than train did.  At most one
    value that a config check must reject (``flaw``, returned last) is drawn,
    so that most chains reach train and evaluate."""
    flaw = draw(st.sampled_from([None, None, None, "pricing_vol", "output_dim", "input_dim",
                                 "kan_activation", "flat_windowing"]))
    n_days = draw(st.integers(3, 20))
    strikes = draw(st.sampled_from([[1.0], [0.95, 1.05], [0.9, 1.0, 1.1]]))
    expiries = draw(st.sampled_from([[30], [30, 91]]))
    synth = {
        "tickers": [{"name": name, "s0": draw(st.sampled_from([100.0, 1e6, 1e-3, 1e306])),
                     "vol": draw(st.sampled_from([0.2, 3.0, 0.0]))}
                    for name in draw(st.sampled_from([["AA"], ["AA", "B,B"]]))],
        "start": "2021-06-01",
        "n_quote_days": n_days,
        "strike_multipliers": strikes,
        "expiry_days": expiries,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "noise": draw(st.sampled_from([0.0, 0.5])),
        "rate": draw(st.sampled_from([0.03, -0.5, 2.0])),
        "pricing_vol": draw(st.sampled_from(["realized:x", "realized:1"] if flaw == "pricing_vol"
                                            else ["gbm", "realized:20"])),
    }
    layers, windowed = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    if flaw == "kan_activation":  # a kan layer reads no activation
        layers, windowed = [dict(KAN, activation="tanh")], False
    rows = n_days * len(strikes) * len(expiries)  # one ticker's rows, before the split
    model = {"layers": layers,
             "input_dim": 3 if flaw == "input_dim" else 10,
             "output_dim": 2 if flaw == "output_dim" else 1}
    windowing = {}
    if flaw == "flat_windowing":  # an mlp or kan model reads no windows
        layers, windowed = MODELS[draw(st.sampled_from(["mlp", "kan"]))]
        windowing = draw(st.sampled_from([{"mode": "causal"}, {"mode": "overlapping"},
                                          {"timesteps": 2}]))
    if windowed:
        model["timesteps"] = draw(st.one_of(st.integers(1, 3),
                                            st.integers(max(1, rows // 7 - 1), rows // 7 + 1),
                                            st.integers(max(1, rows - 1), rows + 1)))
        windowing = draw(st.sampled_from([{}, {"mode": "causal"}, {"mode": "overlapping"},
                                          {"timesteps": model["timesteps"]}]))
    train = {"epochs": 2, "patience": 1,
             "batch_size": draw(st.sampled_from([1, 5, 256])),
             "learning_rate": draw(st.sampled_from([1e-3, 1e3])),
             "shuffle": draw(st.booleans()),
             "standardize": draw(st.booleans())}
    evaluate = {"split": draw(st.sampled_from(["train", "val", "test"])),
                "margin": draw(st.sampled_from([0.0, 0.05, 1e300])),
                "windowing": draw(st.sampled_from([windowing, {"mode": "causal"},
                                                   {"mode": "overlapping"}]))
                if windowed else windowing}
    train = {"model": model, "train": train, "seed": 1, "windowing": windowing}
    return synth, train, evaluate, flaw


def _run(root: Path, command: str, cfg: dict) -> bool:
    """Run one command through ``main``: True when it succeeds; otherwise it
    must print one ``error:`` line and exit with 2.  A warning counts as a
    line of its own, since the command line prints it."""
    config = root / f"{command}.json"
    config.write_text(json.dumps(cfg))
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        rc = main([command, "--config", str(config), "--out", str(root / command)])
    lines = err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]
    if rc == 0:
        assert lines == [], (command, lines)
        return True
    assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: "), (command, rc, lines)
    return False


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains())
def test_every_command_succeeds_or_prints_one_error_line(chain):
    synth, train, evaluate, flaw = chain
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        features = str(root / "prepare" / "features.csv")
        steps = (
            ("synth", synth),
            ("prepare", {name: str(root / "synth" / f"{name}.csv")
                         for name in ("quotes", "underlying", "rates")}),
            ("train", dict(train, features=features)),
            ("evaluate", dict(evaluate, features=features,
                              checkpoint=str(root / "train" / "model.bin"))),
            ("compare", {"reports": [{"name": "m",
                                      "path": str(root / "evaluate" / "report.json")}]}),
        )
        for command, cfg in steps:
            if not _run(root, command, cfg):
                break
            # a flat model given windowing must not train
            assert not (command == "train" and flaw == "flat_windowing")
