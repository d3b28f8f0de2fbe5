"""Benchmark of optionlab's synth -> prepare -> train -> evaluate chain.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload train-flat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in its own process
    python3 perfbench/run.py --self-test                  # counts repeat, second seed passes

One workload per process.  The process pins BLAS to one thread before numpy
loads, drives ``optionlab.cli.main`` from the checkout's ``src/``, writes its
files under ``perfbench/out/<workload>/`` and prints, last, one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer ones.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 1
SECOND_SEED = 2


def run_one(spec, workload, seed, seconds, trace):
    src = ROOT / "src"
    if not (src / "optionlab" / "cli.py").is_file():
        print(f"error: no optionlab sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import chain
    import optionlab

    if Path(optionlab.__file__).resolve().parent != (src / "optionlab").resolve():
        print(f"error: imported optionlab from {optionlab.__file__}, not {src}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if trace else "end_to_end"]
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    correct, attempted, failed, values, messages = chain.run_workload(
        chain.WORKLOADS[workload], seed, seconds, trace, out,
        layer_names=[m["name"] for m in spec["per_layer"]])
    for msg in messages:
        print(f"{workload}: {msg}", file=sys.stderr)
    bad = [m["name"] for m in wanted
           if not isinstance(values.get(m["name"]), (int, float))
           or not math.isfinite(values[m["name"]])]
    if bad:
        print(f"error: {workload} produced no value for {bad}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{workload:<12} {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def _subprocess(workload, seed, seconds, trace):
    """One workload in a fresh process; its printed lines and parsed result (or None)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def run_all(spec, seed, seconds, trace):
    """Every workload, one process at a time; exit 1 unless all are correct."""
    results = {}
    for w in spec["workloads"]:
        lines, result = _subprocess(w["name"], seed, seconds, trace)
        print("\n".join(lines))
        results[w["name"]] = result
        if result:
            print(f"{w['name']:<12} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def self_test(spec, seconds):
    """Per-layer counts repeat exactly across two traced runs, and a second seed passes."""
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        seen = []
        for _ in range(2):
            _, result = _subprocess(name, DEFAULT_SEED, seconds, 1)
            seen.append(None if result is None else
                        {c: result["metrics"][c]["value"] for c in counts})
        repeat = seen[0] is not None and seen[0] == seen[1]
        _, second = _subprocess(name, SECOND_SEED, seconds, 0)
        passes = bool(second and second["correct"] and second["failed"] == 0)
        print(f"{name:<12} counts repeat: {repeat}  seed {SECOND_SEED} correct: {passes}")
        if not repeat and seen[0] and seen[1]:
            diff = {c: (seen[0][c], seen[1][c]) for c in counts if seen[0][c] != seen[1][c]}
            print(f"{name:<12} differing counts: {diff}")
        ok = ok and repeat and passes
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]] + ["all"],
                   default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test(spec, seconds=1)
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, args.trace)
    return run_one(spec, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
