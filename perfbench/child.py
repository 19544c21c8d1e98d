"""Entry point of every measured process the nimtower benchmark starts.

    python3 perfbench/child.py setup
    python3 perfbench/child.py cli [--trace] -- verify all --max-level 9
    python3 perfbench/child.py querymix --seed S --pass P [--size tiny] [--trace]
    python3 perfbench/child.py probe --seed S [--size tiny]

`run.py` sets PYTHONPATH to the checkout's `src`; each mode refuses to run
against a nimtower imported from anywhere else.  Results go to stdout as
one JSON line, except in `cli` mode, where stdout carries the CLI's own
report and the JSON line (peak RSS, trace) goes to stderr.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_LEVELS = (4, 6, 8, 9, 10, 11)


def _import_nimtower():
    import nimtower

    expected = os.path.join(ROOT, "src", "nimtower")
    if os.path.dirname(os.path.abspath(nimtower.__file__)) != expected:
        raise SystemExit(f"nimtower imported from {nimtower.__file__}, not {expected}")
    return nimtower


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def mode_setup(_args) -> dict:
    """Import, first field operation at level 3 (builds the 256x256 and 2^16
    log tables), and one factor-table load, each timed."""
    t0 = time.perf_counter()
    nimtower = _import_nimtower()
    t1 = time.perf_counter()
    x = nimtower.TowerElement(3, 0xBEEF)
    x.mul(x)
    t2 = time.perf_counter()
    nimtower.builtin_factor_table()
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "tables_s": t2 - t1, "factor_table_s": t3 - t2}


def mode_cli(args) -> int:
    _import_nimtower()
    from nimtower import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rc = cli.main(args.argv)
    sys.stdout.flush()
    extra = {"peak_rss_kb": _peak_rss_kb(), "trace": tracer.metrics() if tracer else None}
    sys.stderr.write(json.dumps(extra) + "\n")
    return rc


def mode_querymix(args) -> dict:
    _import_nimtower()
    import querymix

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    return querymix.run_pass(args.seed, args.pass_index, args.size, tracer)


def _sample(fn, samples: int) -> list[float]:
    """Per-call seconds: warm up, then time `samples` batches of calls, each
    batch long enough (about 2 ms) for the clock's resolution not to matter."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    batch = max(1, round(0.002 / once))
    if samples > 5:  # cap each probe near 0.15 s, but keep at least 5 samples
        samples = max(5, min(samples, round(0.15 / (once * batch))))
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        out.append((time.perf_counter() - t0) / batch)
    return out


def mode_probe(args) -> dict:
    """Kernel probe: mul, square, inverse and a 64-bit-exponent power per level."""
    nimtower = _import_nimtower()
    from nimtower import tower

    rng = random.Random(f"probe/{args.seed}")
    samples = 3 if args.size == "tiny" else 21
    out = {}
    for level in PROBE_LEVELS:
        w = tower.width_of(level)
        a = rng.getrandbits(w) | (1 << (w - 1)) | 1
        b = rng.getrandbits(w) | (1 << (w - 1)) | 1
        e = rng.getrandbits(64) | (1 << 63)
        x = nimtower.TowerElement(level, a)
        ops = (
            ("mul_us", 1e6, lambda: tower.mul_values(a, b, w)),
            ("square_us", 1e6, lambda: tower.square_value(a, w)),
            ("inv_us", 1e6, x.inverse),
            ("pow64_ms", 1e3, lambda: tower.pow_values(a, e, w)),
        )
        for name, scale, fn in ops:
            times = sorted(t * scale for t in _sample(fn, samples))
            q1, median, q3 = statistics.quantiles(times, n=4)
            out[f"tower.{name}.L{level:02d}"] = {
                "median": median, "q1": q1, "q3": q3, "samples": len(times),
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("cli")
    p.add_argument("--trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("querymix")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="pass_index", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("probe")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return mode_cli(args)
    result = {"setup": mode_setup, "querymix": mode_querymix, "probe": mode_probe}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
