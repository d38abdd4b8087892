"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
            smoke=True,
        )
    assert rc == 0
    return buf.getvalue().splitlines()


def _installed() -> dict:
    return {
        (path, attr): tracing._owner(path).__dict__[attr] for path, attr, _ in tracing.WRAPPED
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    lines = _smoke(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    for name, unit in wanted.items():
        assert printed[name] == unit
    meta = json.loads(lines[0].removeprefix("# meta "))
    assert meta["workload"] == workload and meta["draw_stream"] == "v1"


def test_tracer_installs_and_fully_removes_its_wrappers():
    run.load_package()
    originals = _installed()
    with tracing.Tracer():
        assert all(hasattr(fn, tracing._MARK) for fn in _installed().values())
        with pytest.raises(RuntimeError):
            tracing.assert_clean()
    tracing.assert_clean()
    assert all(fn is originals[key] for key, fn in _installed().items())


def test_traced_run_removes_wrappers_before_any_untraced_timing(monkeypatch):
    run.load_package()
    originals = _installed()
    calls = []
    real = run.Bench.simulate

    def spy(self, threads, tracer=None):
        wrapped = any(hasattr(fn, tracing._MARK) for fn in _installed().values())
        calls.append((tracer is not None, wrapped))
        return real(self, threads, tracer)

    monkeypatch.setattr(run.Bench, "simulate", spy)
    _smoke("nested-256", 1)
    assert (True, True) in calls
    assert all(wrapped == traced for traced, wrapped in calls)
    assert all(fn is originals[key] for key, fn in _installed().items())


def test_untraced_timing_refuses_to_run_under_a_tracer(tmp_path):
    run.load_package()
    bench = run.Bench(WORKLOADS["bonferroni-64"], 0, 200, tmp_path)
    with tracing.Tracer():
        assert bench.simulate(1) is None
    assert bench.failed == 1
    assert bench.simulate(1) is not None
    assert bench.failed == 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nested-256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
