"""Run one workload plan in a fresh process and time it.

    python3 perfbench/worker.py PLAN.json RESULT.json

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's ``src``
and one thread per numeric library.  The worker times the package import
in fresh interpreters, imports the library, sets up the workload's
fields and input codes, then runs whole passes over the plan's
operations while the next pass still fits in the plan's seconds.  While
the passes run, a ``SpeedProbe`` samples the host's speed.  The worker
writes the start and end of every operation, the probe samples and a
summary of every first-pass output; ``run.py`` turns them into metrics
and checks the summaries.  With ``trace`` set it runs one pass with the
wrappers of ``spans.py`` installed and adds the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

SETUP_REPS = 5
PROBE_INTERVAL_S = 0.025
_SPAN_FILE = "spans.jsonl"


def _spin() -> int:
    acc = 0
    for i in range(4000):
        acc += i
    return acc


def _probe_seconds(reps: int = 15) -> float:
    """Median duration of the probe loop, sampled now."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        _spin()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _timed(fn) -> list:
    """[seconds of fn(), probe seconds around it]."""
    before = _probe_seconds()
    t = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t
    return [seconds, (before + _probe_seconds()) / 2]


def _import_package() -> None:
    import subsystem_codes  # noqa: F401


def _import_seconds(reps: int) -> list:
    """``_timed`` imports of the package, each in a fresh interpreter."""
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, __file__, "--time-import"],
                              check=True, capture_output=True, text=True,
                              timeout=60)
        out.append(json.loads(proc.stdout))
    return out


class SpeedProbe:
    """Times the probe loop every ``PROBE_INTERVAL_S`` of wall time.

    The loop runs in a SIGALRM handler, so it samples the speed the host
    gives this process while the workload runs (a handler waits for a
    running C call to return).  On a shared host that speed drifts by
    tens of percent over tens of seconds; ``run.py`` uses the samples to
    rescale operation times.
    """

    def __init__(self):
        self.samples = []            # [start, duration]

    def _sample(self, signum, frame):
        t = time.perf_counter()
        _spin()
        self.samples.append([t, time.perf_counter() - t])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _field_for_q(gf, q: int):
    for p in (2, 3, 5, 7):
        m, x = 0, q
        while x % p == 0:
            x //= p
            m += 1
        if x == 1 and m:
            return gf.FieldSpec(p, m)
    raise ValueError(f"unsupported q = {q}")


def _code_summary(code) -> dict:
    return {"n": code.n, "m": code.field.m, "k_exp": code.k_exp,
            "r_exp": code.r_exp, "d": code.d, "d_method": code.d_method,
            "swt_c": code.swt_c, "swt_c_method": code.swt_c_method}


class Workload:
    """Set-up and operations of one plan; library modules are passed in."""

    def __init__(self, plan: dict, lib: dict, tracer=None):
        self.plan, self.lib, self.tracer = plan, lib, tracer

    def setup(self) -> None:
        gf, codes = self.lib["gf"], self.lib["codes"]
        gf.conway_polynomial.cache_clear()   # each set-up starts cold
        if self.plan["workload"] == "small-codes":
            fields = {(p, m): gf.FieldSpec(p, m) for p, m in self.plan["fields"]}
            for inp in self.plan["inputs"]:
                if "generators" not in inp:
                    continue            # a data file of the repository
                code = codes.AdditiveCode(inp["n"], fields[(inp["p"], inp["m"])],
                                          inp["generators"], inp["t"])
                code.save(inp["path"])
        else:
            for q in self.plan["fields"]:
                gf.TowerSpec(_field_for_q(gf, q))

    def run(self, op: dict):
        kind = op["kind"]
        if kind == "table":
            rows = self.lib["table1"].generate_table(op["q"])
            return [dict(_code_summary(r.code), subsystem=list(r.subsystem),
                         verification=dict(r.verification)) for r in rows]
        if kind == "family":
            rules = self.lib["rules"]
            res = rules.mds_family(rules.MdsFamilySpec(
                q=op["q"], family=op["family"], delta=op["delta"], r=op["r"]))
            out = res.output
            if isinstance(out, self.lib["subsystem"].SubsystemCode):
                summary = dict(_code_summary(out), kind="code")
            else:
                summary = {"kind": "params", "n": out.n, "k": str(out.k),
                           "r": str(out.r), "d": out.d}
            summary["verification"] = dict(res.verification)
            return summary
        if kind == "cli":
            out = io.StringIO()
            span = (self.tracer.manual("cli.main") if self.tracer
                    else contextlib.nullcontext())
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), span:
                self.lib["cli"].main.main(args=list(op["args"]),
                                          prog_name="subsys",
                                          standalone_mode=False)
            return json.loads(out.getvalue())
        raise ValueError(f"unknown operation kind {kind!r}")


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    clock = time.perf_counter
    reps = 1 if plan["trace"] else SETUP_REPS
    import_s = _import_seconds(reps)
    from subsystem_codes import cli, codes, gf, rules, subsystem, table1
    lib = {"cli": cli, "codes": codes, "gf": gf, "rules": rules,
           "subsystem": subsystem, "table1": table1}

    tracer = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    work = Workload(plan, lib, tracer)
    setup_s = [_timed(work.setup) for _ in range(reps)]

    summaries, first = [], None
    op_t, pass_s, errors = [], [], []
    attempted = failed = mismatches = 0
    run_start = clock()
    with SpeedProbe() as probe:
        while True:
            t_pass = clock()
            current, intervals = [], []
            op_t.append(intervals)
            for op in plan["ops"]:
                attempted += 1
                t = clock()
                try:
                    current.append(work.run(op))
                except Exception as exc:     # counted, reported, never fatal
                    failed += 1
                    current.append(None)
                    if len(errors) < 5:
                        errors.append(f"{op}: {type(exc).__name__}: {exc}")
                intervals.append([t, clock()])
            pass_s.append(clock() - t_pass)
            if first is None:
                first = [json.dumps(s, sort_keys=True) for s in current]
                summaries = current
            else:
                mismatches += sum(json.dumps(s, sort_keys=True) != f
                                  for s, f in zip(current, first))
            elapsed = clock() - run_start
            if tracer or elapsed + pass_s[-1] > plan["seconds"]:
                break

    result = {
        "import_s": import_s, "setup_s": setup_s, "pass_s": pass_s,
        "op_t": op_t, "probe": probe.samples, "attempted": attempted,
        "failed": failed, "errors": errors, "mismatches": mismatches,
        "summaries": summaries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(
            tracer.spans, tracer.counts, run_start, pass_s[0])
        tracer.write(os.path.join(os.path.dirname(result_path), _SPAN_FILE))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--time-import"]:
        print(json.dumps(_timed(_import_package)))
        sys.exit(0)
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
