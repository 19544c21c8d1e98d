"""Self-tests of the benchmark: python3 -m pytest -q perfbench

Each test runs the benchmark at its tiny size (small levels, few samples),
so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import querymix  # noqa: E402
import run  # noqa: E402
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(root, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=175,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _fail_frac(proc: subprocess.CompletedProcess) -> float:
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("fail_frac "))
    return float(line.split()[1])


def _copy_checkout(dst, with_program: bool = True) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    shutil.copytree(HERE, os.path.join(dst, "perfbench"), ignore=ignore)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"), ignore=ignore)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    result = _result(proc)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _fail_frac(proc) == 0
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if trace and workload == "wide-l11":
        assert result["metrics"]["orders.order.calls"]["value"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_answer_raises_fail_frac(workload, tmp_path):
    _copy_checkout(tmp_path)
    tower = tmp_path / "src" / "nimtower" / "tower.py"
    text = tower.read_text()
    wrong = "return _MUL_TOP16[x]\n"
    assert text.count(wrong) == 1
    tower.write_text(text.replace(wrong, "return _MUL_TOP16[x] ^ 1\n"))
    proc = _bench(tmp_path, workload, 0)
    result = _result(proc)
    assert not result["correct"] and result["failed"] > 0
    assert _fail_frac(proc) > 0


def test_reblessed_example_failure_is_refused(tmp_path):
    _copy_checkout(tmp_path)
    golden = tmp_path / "perfbench" / "golden" / "verify_all_max-level_4_jobs_1.txt"
    golden.write_text(golden.read_text().replace("FAIL l2ex.order-sum", "OK l2ex.order-sum"))
    proc = _bench(tmp_path, "reproduce-l9", 0)
    assert proc.returncode != 0
    assert "l2ex.order-sum" in proc.stderr


def test_refuses_a_checkout_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_program=False)
    proc = _bench(tmp_path, "query-mix", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_times_are_scaled_to_the_ruler_reference_speed():
    # The ruler ran twice as slow as at the reference speed.
    unit = {"wall_s": 2.0, "latencies_ms": [1.0, 3.0], "attempted": 4, "peak_rss_kb": 2048,
            "ruler_s": 2 * run.REFERENCE_S}
    metrics, notes = run.end_to_end([unit], {"setup_s": 0.5}, 2 * run.REFERENCE_S)
    assert metrics["setup_s"] == 0.25 and metrics["wall_s"] == 1.0
    assert metrics["latency_p50_ms"] == 1.0 and metrics["latency_p99_ms"] == 1.5
    assert metrics["queries_per_s"] == 4.0
    assert metrics["peak_rss_mb"] == 2.0
    assert notes["measured"]["wall_s"] == 2.0 and notes["measured"]["queries_per_s"] == 2.0


def test_query_stream_is_seeded_with_a_fixed_composition_and_repeat_share():
    factors = querymix.factor_lists()
    first = querymix.make_stream(5, 0, "full", factors)
    assert first == querymix.make_stream(5, 0, "full", factors)
    other = querymix.make_stream(6, 0, "full", factors)
    assert first != other

    def composition(stream):
        return sorted((q[0], q[1]) for q in stream)

    assert composition(first) == composition(other)
    for kind, level, count in querymix.MIX:
        if kind != "order":
            continue
        seen, repeats = set(), 0
        for q in first:
            if q[:2] == ("order", level):
                repeats += q[2] in seen
                seen.add(q[2])
        # Random elements may also collide by chance at small levels.
        assert repeats >= round(querymix.REPEAT_SHARE * count)
