"""nimtower benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload reproduce-l9 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout (it imports nimtower from ./src, never
from an installed copy).  Workloads:

  reproduce-l9  `nimtower verify all --max-level 9 --jobs 1`, one fresh
                process per unit (cold order cache, as for a CLI user).
  wide-l11      `verify thm5 --level 10`, `verify lemma5 --level 11` and
                `verify thm1 --level 11`, three fresh processes per unit, in
                a seeded order.  No multiplicative_order call at all.
  query-mix     one in-process client running a seeded stream of small
                library queries (levels 0-8) in a closed loop, one fresh
                process per pass; see querymix.py.

Every answer is checked outside the timed region: CLI reports byte for byte
against golden files from the seed commit (with their expected exit code),
query-mix answers against independent references.  Time metrics are scaled
to the reference speed of a frozen ruler (ruler.py) timed between the units;
the measured values are in the `# samples` line.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the lines before it
print every metric with its unit, the failure fraction and a stamp of the
machine and code.  See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata

from ruler import REFERENCE_S, Ruler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden")

HARD_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = {"full": 11, "tiny": 3}  # split before and after the units
RULER_SAMPLES = 3  # ruler samples right before the first unit and after each unit
TRACE_PAIRS = {"cli": 1, "querymix": 3}  # (untraced, traced) unit pairs per traced run

# The two level-2 example claims are false and must stay FAIL; a golden file
# that says otherwise was re-blessed by mistake and is refused.
EXPECTED_FAILS = {"l2ex.fifth-power", "l2ex.order-sum"}

WORKLOADS = {
    "reproduce-l9": {
        "kind": "cli",
        "full": [["verify", "all", "--max-level", "9", "--jobs", "1"]],
        "tiny": [["verify", "all", "--max-level", "4", "--jobs", "1"]],
    },
    "wide-l11": {
        "kind": "cli",
        "full": [["verify", "thm5", "--level", "10"], ["verify", "lemma5", "--level", "11"],
                 ["verify", "thm1", "--level", "11"]],
        "tiny": [["verify", "thm5", "--level", "6"], ["verify", "lemma5", "--level", "7"],
                 ["verify", "thm1", "--level", "7"]],
    },
    "query-mix": {"kind": "querymix"},
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, corrupt golden file)."""


# ---------------------------------------------------------------------------
# Measured processes.


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], deadline: float) -> tuple[int, bytes, bytes, float]:
    """Run child.py with `args`; return exit code, stdout, stderr, wall seconds."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *args], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {' '.join(args)} ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out, err, time.perf_counter() - started


def _json_line(data: bytes, what: str) -> dict:
    lines = data.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed nothing")
    return json.loads(lines[-1])


def setup_samples(count: int, deadline: float) -> list[dict]:
    """Time `count` fresh interpreters: import, first level-3 operation, factor table."""
    samples = []
    for _ in range(count):
        rc, out, err, _ = _spawn(["setup"], deadline)
        if rc != 0:
            raise BenchError(f"setup child failed: {err.decode().strip()}")
        samples.append(_json_line(out, "setup child"))
    return samples


def summarize_setup(samples: list[dict]) -> dict:
    out = {"setup_s": statistics.median(sum(s.values()) for s in samples)}
    for key in samples[0]:
        out[f"setup.{key}"] = statistics.median(s[key] for s in samples)
    return out


def _golden(argv: list[str]) -> bytes:
    path = os.path.join(GOLDEN, "_".join(a.lstrip("-") for a in argv) + ".txt")
    with open(path, "rb") as fh:
        data = fh.read()
    fails = {line.split()[1] for line in data.decode().splitlines() if line.startswith("FAIL ")}
    if argv[:2] == ["verify", "all"] and fails != EXPECTED_FAILS:
        raise BenchError(f"{path}: FAIL lines {sorted(fails)} != {sorted(EXPECTED_FAILS)}")
    return data


def _count_wrong(golden: bytes, got: bytes) -> int:
    """Wrong answers in a report: lines missing from or extra to the golden
    file, whichever is more (a changed line counts once)."""
    want, have = golden.decode().splitlines(), got.decode(errors="replace").splitlines()
    want_set, have_set = set(want), set(have)
    missing = sum(1 for line in want if line not in have_set)
    extra = sum(1 for line in have if line not in want_set)
    return max(missing, extra, 1 if got != golden else 0)


def run_cli_unit(commands, seed: int, unit: int, traced: bool, deadline: float) -> dict:
    order = list(commands)
    random.Random(f"cli-order/{seed}/{unit}").shuffle(order)
    result = {"wall_s": 0.0, "latencies_ms": [], "attempted": 0, "failed": 0,
              "peak_rss_kb": 0, "traces": []}
    for argv in order:
        golden = _golden(argv)
        expected_rc = 1 if b"\nFAIL " in b"\n" + golden else 0
        rc, out, err, wall = _spawn(["cli", *(["--trace"] if traced else []), "--", *argv], deadline)
        result["wall_s"] += wall
        result["latencies_ms"].append(wall * 1e3)
        result["attempted"] += len(golden.splitlines())
        wrong = _count_wrong(golden, out)
        result["failed"] += max(wrong, 1 if rc != expected_rc else 0)
        try:
            extra = _json_line(err, "cli child")
        except (BenchError, ValueError):
            extra = {"peak_rss_kb": 0, "trace": None}
            result["failed"] = max(result["failed"], 1)
        result["peak_rss_kb"] = max(result["peak_rss_kb"], extra["peak_rss_kb"])
        if traced and extra["trace"] is not None:
            result["traces"].append(extra["trace"])
    return result


def run_querymix_unit(size: str, seed: int, unit: int, traced: bool, deadline: float) -> dict:
    args = ["querymix", "--seed", str(seed), "--pass", str(unit), "--size", size]
    rc, out, err, _ = _spawn(args + (["--trace"] if traced else []), deadline)
    if rc != 0:
        raise BenchError(f"query-mix child failed: {err.decode().strip()[-2000:]}")
    result = _json_line(out, "query-mix child")
    result["traces"] = [result.pop("trace")] if traced else []
    return result


def run_unit(workload: str, size: str, seed: int, unit: int, traced: bool, deadline: float) -> dict:
    spec = WORKLOADS[workload]
    if spec["kind"] == "cli":
        return run_cli_unit(spec[size], seed, unit, traced, deadline)
    return run_querymix_unit(size, seed, unit, traced, deadline)


# ---------------------------------------------------------------------------
# Metrics.


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _timings(units: list[dict], scales: list[float], setup_s: float) -> dict:
    """Time metrics of the units, each unit's times multiplied by its scale."""
    walls = [u["wall_s"] * k for u, k in zip(units, scales)]
    latencies = sorted(x * k for u, k in zip(units, scales) for x in u["latencies_ms"])
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "queries_per_s": sum(u["attempted"] for u in units) / sum(walls),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": _nearest_rank(latencies, 0.99),
    }


def end_to_end(units: list[dict], setup: dict, ruler_s: float) -> tuple[dict, dict]:
    """End-to-end metrics over the measured units, plus sample notes.

    Times are scaled to the reference speed of the ruler (see ruler.py):
    a unit's times by REFERENCE_S / its `ruler_s` (the ruler timed right
    before and after it), setup by REFERENCE_S / `ruler_s` (the run's median
    ruler time).  The measured values are kept in the notes.
    """
    samples = sum(len(u["latencies_ms"]) for u in units)
    beyond_p99 = samples - math.ceil(0.99 * samples)
    peak_rss_mb = max(u["peak_rss_kb"] for u in units) / 1024
    measured = _timings(units, [1.0] * len(units), setup["setup_s"])
    metrics = _timings(units, [REFERENCE_S / u["ruler_s"] for u in units],
                       setup["setup_s"] * REFERENCE_S / ruler_s)
    measured["peak_rss_mb"] = metrics["peak_rss_mb"] = peak_rss_mb
    notes = {
        "measured": measured,
        "ruler_s": ruler_s,
        "units": len(units),
        "latency_samples": samples,
        "samples_beyond_p99": beyond_p99,
        "p99_valid": beyond_p99 >= 10,
    }
    return metrics, notes


def _merge_traces(traces: list[dict]) -> dict:
    merged: dict = {}
    for trace in traces:
        for key, value in trace.items():
            merged[key] = max(merged.get(key, 0), value) if key == "cli.task_max_s" \
                else merged.get(key, 0) + value
    return merged


def per_layer(untraced: list[dict], traced: list[dict], setup: dict, probe: dict) -> dict:
    """Per-layer metrics: trace counters of one traced unit (medians over
    repeated traced units for the times), setup parts, kernel probe."""
    if not all(u["traces"] for u in traced):
        raise BenchError("a traced unit returned no trace")
    merged = [_merge_traces(u["traces"]) for u in traced]
    layer = {key: statistics.median(m[key] for m in merged) for key in merged[0]}
    calls, repeats = layer.pop("orders.order.calls"), layer.pop("orders.order.repeats")
    task_max, task_sum = layer.pop("cli.task_max_s"), layer.pop("cli.task_sum_s")
    out = {key: probe[key]["median"] for key in probe}
    out.update(layer)
    out["orders.order.calls"] = calls
    out["orders.order.repeat_share"] = repeats / calls if calls else 0.0
    out["cli.critical_task_frac"] = task_max / task_sum if task_sum else 0.0
    out.update({k: v for k, v in setup.items() if k.startswith("setup.")})
    out["trace.overhead_frac"] = (
        statistics.median(u["wall_s"] for u in traced)
        / statistics.median(u["wall_s"] for u in untraced) - 1
    )
    return out


def stamp(workload: str, seed: int, seconds: int, traced: bool, size: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "size": size,
        "traced": traced, "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpu": cpu, "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------------------
# Running a workload.


def run(workload: str, seed: int, seconds: int, traced: bool, size: str) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "nimtower", "__init__.py")):
        raise BenchError(f"no nimtower sources under {os.path.join(ROOT, 'src')}")
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    count = SETUP_SAMPLES[size]
    setup = setup_samples(count if traced else (count + 1) // 2, deadline)
    reserve = time.monotonic() - started  # the second half of the setup samples
    info = {"stamp": stamp(workload, seed, seconds, traced, size)}
    if not traced:
        ruler = Ruler()
        before = ruler.sample(RULER_SAMPLES)
        units, elapsed = [], []
        while True:
            t0 = time.monotonic()
            unit = run_unit(workload, size, seed, len(units), False, deadline)
            elapsed.append(time.monotonic() - t0)
            after = ruler.sample(RULER_SAMPLES)
            unit["ruler_s"], before = (before + after) / 2, after
            units.append(unit)
            spent = time.monotonic() - started
            # Start another unit only if it should end within `seconds`, so
            # a run lasts about `seconds` (or one unit, if a unit is longer).
            if spent + statistics.median(elapsed) + reserve > seconds:
                break
        setup += setup_samples(count // 2, deadline)
        metrics, notes = end_to_end(units, summarize_setup(setup), statistics.median(ruler.samples))
        notes["unit_wall_s"] = [round(u["wall_s"], 3) for u in units]
        measured = units
    else:
        untraced, traced_units = [], []
        for _ in range(TRACE_PAIRS[WORKLOADS[workload]["kind"]]):
            untraced.append(run_unit(workload, size, seed, 0, False, deadline))
            traced_units.append(run_unit(workload, size, seed, 0, True, deadline))
        rc, out, err, _ = _spawn(["probe", "--seed", str(seed), "--size", size], deadline)
        if rc != 0:
            raise BenchError(f"kernel probe failed: {err.decode().strip()[-2000:]}")
        probe = _json_line(out, "kernel probe")
        metrics = per_layer(untraced, traced_units, summarize_setup(setup), probe)
        notes = {
            "unit_wall_s": {"untraced": [round(u["wall_s"], 3) for u in untraced],
                            "traced": [round(u["wall_s"], 3) for u in traced_units]},
            "probe_quartiles": {k: [v["q1"], v["q3"], v["samples"]] for k, v in probe.items()},
        }
        measured = untraced + traced_units
    attempted = sum(u["attempted"] for u in measured)
    failed = sum(u["failed"] for u in measured)
    info.update(notes, fail_frac=failed / attempted)
    return {"info": info, "attempted": attempted, "failed": failed, "metrics": metrics}


def declared_units(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nimtower benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        units = declared_units(bool(args.trace))
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        if set(result["metrics"]) != set(units):
            raise BenchError(f"metrics {sorted(set(result['metrics']) ^ set(units))} "
                             "are not both measured and declared in BENCHMARK.json")
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    info = result["info"]
    print(f"# stamp {json.dumps(info.pop('stamp'))}")
    for name, value in result["metrics"].items():
        print(f"{name:34s} {value:16.6g} {units[name]}")
    print(f"{'fail_frac':34s} {info.pop('fail_frac'):16.6g} frac"
          f"  ({result['failed']} of {result['attempted']} answers wrong or raised)")
    print(f"# samples {json.dumps(info)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
