"""The benchmark's traced worker runs the library end to end.

``test_trace_targets.py`` checks only that the names ``perfbench/spans.py``
wraps exist.  Here one-operation ``catalog`` and ``families`` plans run
through ``perfbench/worker.py`` with the tracer installed, as
``perfbench/run.py --trace 1`` runs them: the wrappers (classmethods
included), the field caches, the table and family entry points and the
summaries all have to work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


@pytest.mark.parametrize("workload", ["catalog", "families"])
def test_traced_worker_runs_one_operation(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import plans
    plan = plans.make_plan(workload, 1, 1.0, trace=True,
                           workdir=str(tmp_path), root=str(ROOT))
    plan["ops"] = plan["ops"][:1]
    plan_path, result_path = tmp_path / "plan.json", tmp_path / "result.json"
    plan_path.write_text(json.dumps(plan))
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUBSYS_")}
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path),
         str(result_path)], env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert (result["attempted"], result["failed"]) == (1, 0), result["errors"]
    assert "layers" in result
    assert not plans.check(plan, result["summaries"])
