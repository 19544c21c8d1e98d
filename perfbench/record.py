"""Record one point of the performance trajectory.

    python3 perfbench/record.py --label 8f6de79 --seeds 10

Runs `run.py` untraced once per seed and workload (by default the workloads
and run length of BENCHMARK.json), interleaving the workloads seed by seed
so that drift in machine speed reaches each of them alike. Then it makes one
traced run per workload. It writes
`perfbench/trajectory/BENCH_<label>.json` with every run's metrics and, per
end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median). The median and spread are the figures to compare
between commits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["stamp"] = json.loads(next(ln for ln in lines if ln.startswith("# stamp "))[8:])
    result["samples"] = json.loads(next(ln for ln in lines if ln.startswith("# samples "))[10:])
    print(f"{workload:13s} seed {seed:3d} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6]),
          flush=True)
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description="record a BENCH_<label>.json trajectory point")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in seeds:
        for workload in args.workloads:
            runs[workload].append(_run(workload, seed, args.seconds, 0))
    traced = {w: _run(w, seeds[0], args.seconds, 1) for w in args.workloads}

    point = {"label": args.label, "seeds": seeds, "seconds": args.seconds,
             "stamp": runs[args.workloads[0]][0]["stamp"], "workloads": {}}
    for workload, results in runs.items():
        names = list(results[0]["metrics"])
        point["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + [traced[workload]]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: {"unit": results[0]["metrics"][name]["unit"],
                       **_summary([r["metrics"][name]["value"] for r in results]),
                       "values": [r["metrics"][name]["value"] for r in results]}
                for name in names
            },
            "per_layer": {name: m["value"] for name, m in traced[workload]["metrics"].items()},
            "runs": [{"seed": r["stamp"]["seed"], "loadavg": r["stamp"]["loadavg"],
                      "samples": r["samples"]} for r in results],
            "traced_samples": traced[workload]["samples"],
        }
    out_dir = os.path.join(HERE, "trajectory")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    for workload, data in point["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{workload:13s} {name:16s} median {s['median']:12.6g} spread {s['spread']:.3f}")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
