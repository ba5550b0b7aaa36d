"""Self-tests of the benchmark harness on the tiny ``smoke`` problem.

    python3 -m pytest -q perfbench        # from the root of a checkout

They exercise the whole harness (fresh-interpreter passes, spans, checks,
the result line), and check that the count metrics repeat exactly, that a
corrupted bound is counted as a failure, and that the benchmark refuses to run
without the program's sources.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_passes():
    """Two traced passes of the smoke problem, through the harness's Runner."""
    work = ROOT / run.WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problem = workloads.generate("smoke", 0)
    runner = run.Runner(ROOT, work, problem, time.monotonic() + 120)
    passes = [runner.start("trace") for _ in range(2)]
    assert all(res is not None for res, _, _ in passes)
    return problem, passes


def test_manifest_is_current():
    declared = json.loads((ROOT / run.MANIFEST).read_text())
    assert declared == run.manifest(run.RUN_SECONDS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_declared_metric(trace, kind):
    result = result_line(bench("--workload", "smoke", "--seed", "3",
                               "--seconds", "1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = json.loads((ROOT / run.MANIFEST).read_text())[kind]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_count_metrics_repeat_exactly(smoke_passes):
    _, passes = smoke_passes
    counts = [{name: agg["calls"] for name, agg in spans.aggregate(res["spans"]).items()}
              for res, _, _ in passes]
    assert counts[0] == counts[1]
    assert counts[0]["sdp.solve_sdp"] == 2 and counts[0]["cli.sample_density"] == 1
    reports = [json.loads(text) for _, text, _ in passes]
    iterations = [[r["solver"]["iterations"] for r in rep["rows"]] for rep in reports]
    assert iterations[0] == iterations[1]


def test_reports_pass_the_checks(smoke_passes):
    problem, passes = smoke_passes
    refs = json.loads((HERE / "reference.json").read_text())["smoke"]["0"]
    first = passes[0][1:]
    for res, report, density in passes:
        v = checks.check_report(problem, json.loads(report), refs,
                                (report, density) == first, problem.sample_points())
        assert v.attempted == 2 and v.failures == []


@pytest.mark.parametrize("field,delta", [("rho", 1e-3), ("rho", -1e-3), ("u", 1e-3)])
def test_corrupted_bound_is_counted(smoke_passes, field, delta):
    problem, passes = smoke_passes
    refs = json.loads((HERE / "reference.json").read_text())["smoke"]["0"]
    report = json.loads(passes[0][1])
    bad = copy.deepcopy(report)
    bad["rows"][1][field] += delta
    v = checks.check_report(problem, bad, refs, True, problem.sample_points())
    assert v.failed == 1 and v.failures[0].startswith("t=3")
    assert checks.check_report(problem, report, refs, False,
                               problem.sample_points()).failed == 2


def test_missing_wrap_target_is_absent():
    code = ("import cdmos.cli, spans\n"
            "spans.TARGETS.append(('cdmos.sdp', 'no_such_helper', 'sdp.gone'))\n"
            "print(spans.install(spans.Recorder()))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": f"{ROOT / 'src'}:{HERE}"}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['sdp.gone']"


def test_refuses_to_run_without_sources():
    (ROOT / run.WORK_DIR).mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / run.WORK_DIR))
    try:
        shutil.copy(ROOT / run.MANIFEST, bare / run.MANIFEST)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "box_dense", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=170)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare)
