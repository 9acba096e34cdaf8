"""Tests of the benchmark itself: span self time, the output oracle, and a smoke run.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import speedprobe  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    spans = [
        [0, None, "a", 0.0, 10.0, None],
        [1, 0, "b", 1.0, 4.0, None],
        [2, 1, "c", 2.0, 3.0, None],
        [3, 0, "b", 5.0, 6.0, None],
        [4, 3, "b", 5.2, 5.7, None],  # recursive call
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    assert sum(got.values()) == pytest.approx(10.0)  # self times partition the root


def test_recorder_links_parents_and_records_errors():
    rec = tracer.Recorder()

    def leaf(x):
        if x < 0:
            raise ArithmeticError("negative")
        return x

    leaf_t = rec.wrap("m.leaf", leaf)
    outer_t = rec.wrap("m.outer", lambda: [leaf_t(1), leaf_t(2)])
    outer_t()
    with pytest.raises(ArithmeticError):
        leaf_t(-1)
    assert [(s[1], s[2]) for s in rec.spans] == [
        (None, "m.outer"), (0, "m.leaf"), (0, "m.leaf"), (None, "m.leaf")
    ]
    assert rec.spans[3][5] == {"error": "ArithmeticError"}
    assert rec.stack == []


def test_speed_factor_is_the_median_unit_time_over_the_reference():
    ref = speedprobe.REFERENCE_S
    samples = [(t * 0.1, ref * (2.0 if 10 <= t < 20 else 1.0)) for t in range(40)]
    assert speedprobe.factor_of(samples, 1.0, 1.95) == pytest.approx(2.0)
    assert speedprobe.factor_of(samples, 2.5, 3.5) == pytest.approx(1.0)
    # an interval too short for MIN_SAMPLES samples takes the nearest ones
    assert speedprobe.factor_of(samples, 1.52, 1.53) == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        speedprobe.factor_of([], 0.0, 1.0)


def test_speed_probe_samples_and_restores_the_affinity():
    before = os.sched_getaffinity(0)
    with speedprobe.SpeedProbe() as probe:
        assert len(os.sched_getaffinity(0)) == 1
        time.sleep(10 * speedprobe.PERIOD_S)
    assert os.sched_getaffinity(0) == before
    assert len(probe.samples) >= 3 and all(d > 0 for _, d in probe.samples)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)


EXPECTED = oracle.load_expected()


@pytest.mark.parametrize("key, code", [
    ("count --k 4 --n 10 --method formula", 0),
    ("expand sg --k 4 --order 8", 0),
    ("expand csg --k 4 --order 6", 0),
    ("formal-k --r 3", 0),
    ("validate --which sg --k 3,4,5 --n 10:100:10 --r 3", 6),
    ("validate --which csg --k 3,4 --n 10:100:2 --r 3 --precision 4096", 0),
])
def test_oracle_accepts_recorded_outcome(key, code):
    assert oracle.check(key, code, EXPECTED[key], EXPECTED) == []


def test_oracle_rejects_unexpected_exit_code():
    key = "validate --which sg --k 3,4,5 --n 10:100:10 --r 3"
    assert oracle.check(key, 0, EXPECTED[key], EXPECTED)  # the known-red cell exits 6
    key = "count --k 4 --n 10 --method formula"
    assert oracle.check(key, 1, EXPECTED[key], EXPECTED)


@pytest.mark.parametrize("key, corrupt", [
    ("count --k 4 --n 10 --method formula", lambda s: s.replace("66462606", "66462607")),
    ("count --k 4 --n 10 --method formula", lambda s: ""),
    ("expand sg --k 3 --order 8", lambda s: s.replace("-71/18", "-71/19")),
    ("expand sg --k 4 --order 8", lambda s: s[:-3] + "1\n"),
    ("expand csg --k 4 --order 6", lambda s: EXPECTED["expand sg --k 4 --order 8"]),
    ("formal-k --r 3", lambda s: s.replace("-1/5184", "1/5184")),
    ("validate --which sg --k 3,4,5 --n 10:100:10 --r 3", lambda s: s.replace("2.13", "2.16")),
    ("validate --which sg --k 3,4,5 --n 10:100:10 --r 3", lambda s: s.replace("5.43", "NA")),
])
def test_oracle_rejects_corrupted_stdout(key, corrupt):
    code = 6 if key.startswith("validate --which sg") else 0
    assert oracle.check(key, code, corrupt(EXPECTED[key]), EXPECTED)


SMALLEST = {
    "coeffs": "formal-k --r 3",
    "counts": "count --k 3 --n 12 --method formula",
    "grids": "validate --which sg --k 3,4,5 --n 10:100:10 --r 3",
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_smoke_run_prints_every_metric_with_its_unit(name, trace):
    inv = next(i for i in run.WORKLOADS[name].invocations if i.key == SMALLEST[name])
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    out = io.StringIO()
    result = run.measure(run.ROOT, run.Workload((inv,)), 1, 0, bool(trace), metrics, out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in metrics
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    text = out.getvalue()
    assert "fail_frac" in text and "mpmath_backend" in text
    if trace:
        assert "tracing overhead" in text and result["metrics"]["cli.import_s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coeffs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
