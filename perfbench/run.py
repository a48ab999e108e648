"""Certification benchmark for subsystem_codes.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py        # every workload, untraced then traced

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (``worker.py``) that imports the library
from ``src``.  This process makes the inputs from the seed, runs the
brute-force oracle (``oracle.py``) outside the timed region, checks the
worker's outputs (``plans.py``) and prints the metrics.  Times are
rescaled by the worker's host-speed probe (see ``rescaled_times``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 1``
reports the per-layer metrics of ``spans.py`` instead of the end-to-end
ones.
Intermediate files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plans
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REQUIRED = ("src/subsystem_codes/__init__.py", "data/five_qubit.json",
            "data/bacon_shor.json")
TIME_LIMIT_S = 175

# operation times are rescaled to a host on which the probe loop of
# worker.SpeedProbe takes PROBE_REF_S; the samples within PROBE_WINDOW_S
# of an operation give the host's speed during it
PROBE_REF_S = 2e-4
PROBE_WINDOW_S = 1.0

END_TO_END = {"run_s": "s", "op_ms.p50": "ms", "setup_s": "s",
              "peak_rss_mb": "MB", "certified_claims": "count"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUBSYS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(plan: dict, rundir: Path, deadline: float) -> dict:
    plan_path, result_path = rundir / "plan.json", rundir / "result.json"
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan_path),
         str(result_path)], cwd=ROOT, env=_worker_env())
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("the worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"the worker exited with status {code}")
    with open(result_path) as fh:
        return json.load(fh)


def _rescaled(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s


def rescaled_times(op_t: list, probe: list) -> list:
    """Per pass, each operation's time without probe samples, at reference speed.

    An operation of wall time w that contains probe samples of total
    duration p and has samples of durations s_1..s_j within
    PROBE_WINDOW_S counts as (w - p) * mean(PROBE_REF_S / s_i).
    """
    starts = [t for t, _ in probe]
    spent = list(itertools.accumulate((d for _, d in probe), initial=0.0))
    speed = list(itertools.accumulate((PROBE_REF_S / d for _, d in probe),
                                      initial=0.0))
    out = []
    for intervals in op_t:
        row = []
        for start, end in intervals:
            i = bisect.bisect_left(starts, start)
            j = bisect.bisect_left(starts, end)
            lo = bisect.bisect_left(starts, start - PROBE_WINDOW_S)
            hi = bisect.bisect_left(starts, end + PROBE_WINDOW_S)
            if hi == lo:
                raise BenchError("no probe sample near an operation")
            row.append((end - start - (spent[j] - spent[i]))
                       * (speed[hi] - speed[lo]) / (hi - lo))
        out.append(row)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float):
    """One run; returns the result object and every check or operation failure."""
    rundir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    plan = plans.make_plan(workload, seed, seconds, trace, str(rundir),
                           str(ROOT))
    res = _run_worker(plan, rundir, deadline)

    errors = plans.check(plan, res["summaries"])
    if res["mismatches"]:
        errors.append(f"{res['mismatches']} outputs changed between passes")
    # each operation's median rescaled time over the passes
    per_op = [statistics.median(times) for times in
              zip(*rescaled_times(res["op_t"], res["probe"]))]
    if trace:
        values = dict(res["layers"], **{"trace.run_s": sum(per_op)})
        units = spans.LAYER_METRICS
    else:
        values = {
            "run_s": sum(per_op),
            "op_ms.p50": statistics.median(per_op) * 1e3,
            "setup_s": (
                statistics.median(_rescaled(*t) for t in res["import_s"])
                + statistics.median(_rescaled(*t) for t in res["setup_s"])),
            "peak_rss_mb": res["peak_rss_mb"],
            "certified_claims": plans.certified_claims(res["summaries"]),
        }
        units = END_TO_END
    out = {"correct": not errors,
           "attempted": res["attempted"], "failed": res["failed"],
           "metrics": {k: {"value": values[k], "unit": units[k]}
                       for k in units}}
    return out, errors + res["errors"]


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced; prints both and the overhead."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in plans.WORKLOADS:
        for trace in (False, True):
            res, errors = run_workload(workload, seed, seconds, trace,
                                       time.monotonic() + TIME_LIMIT_S)
            for e in errors[:10]:
                print(f"{workload}: {e}", file=sys.stderr)
            label = "per-layer (traced)" if trace else "end-to-end"
            _print_metrics(f"{workload} {label}: attempted {res['attempted']}, "
                           f"failed {res['failed']}, correct {res['correct']}",
                           res["metrics"])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
        overhead = (combined["metrics"][f"{workload}.trace.run_s"]["value"]
                    - combined["metrics"][f"{workload}.run_s"]["value"])
        combined["metrics"][f"{workload}.trace.overhead_s"] = {
            "value": overhead, "unit": "s"}
        print(f"{workload} tracing overhead (traced - untraced run_s, both "
              f"rescaled): {overhead:.3f} s")
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + plans.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a subsystem_codes checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            res = run_all(args.seed, args.seconds)
        else:
            res, errors = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace),
                                       time.monotonic() + TIME_LIMIT_S)
            for e in errors[:10]:
                print(f"{args.workload}: {e}", file=sys.stderr)
            _print_metrics(f"{args.workload} seed {args.seed}", res["metrics"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
