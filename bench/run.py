"""The regsets benchmark.

    python3 bench/run.py --workload survey|decide|verify|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``
there.  One workload runs in one process, with one closed-loop caller and
``workers=1``.  With ``--trace 0`` it runs whole rounds until ``--seconds``
have passed, setting up several times along the way, and prints the
end-to-end metrics at a reference machine speed.
With ``--trace 1`` it runs one fixed pass (a set-up and the workload's
traced rounds) untraced, then the same pass with every layer function
wrapped, and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the same object goes to ``bench/out/``, and the
traced run also writes its spans there.  ``--workload all`` runs each
workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set-ups per run, spread through it (a workload that sets up before every
# round has one per round instead).
SETUPS = 8

# The machine's speed changes from one second to the next, with the load of
# other work on the same cores.  So before and after every timed operation
# and set-up a run also times one block of a fixed pure-Python load, much
# like validating a group table and untouched by any change to regsets, and
# reports each time at the speed where that block takes CAL_REF_S.
CAL_REF_S = 0.0044

UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import regsets from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "regsets" / "__init__.py").is_file():
        raise SystemExit(f"error: no regsets package under {src}")
    sys.path.insert(0, str(src))
    import regsets
    import regsets.cli
    import regsets.group_core
    import regsets.harness

    if Path(regsets.__file__).resolve().parent != src / "regsets":
        raise SystemExit(f"error: imported regsets from {regsets.__file__}")
    return SimpleNamespace(cli=regsets.cli, harness=regsets.harness,
                           group_core=regsets.group_core)


def _calibration_load() -> int:
    n = 48
    rows = [tuple((i * j + i + 3 * j) % n for j in range(n)) for i in range(n)]
    mismatches = 0
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            if rows[ra[b]] != tuple(ra[x] for x in rows[b]):
                mismatches += 1
    return mismatches + len({frozenset(r[:12]): i for i, r in enumerate(rows)})


def calibration_block() -> float:
    """Seconds of one run of the fixed load, with the garbage collector off
    so that the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_load()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def end_to_end(wl, seconds: float) -> tuple[dict, list[tuple], dict]:
    """Set up, run whole rounds until ``seconds`` have passed, and report each
    time at the reference speed: divided by the mean of the calibration
    blocks just before and just after it, then the median over the run's
    repeats of the same set-up or operation."""
    setups = []  # (seconds, seconds over the nearby calibration)
    rounds = []  # per round: the operations, and each one's time over the nearby calibration
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        due = len(setups) < SETUPS and time.perf_counter() - start >= seconds * len(setups) / SETUPS
        if wl.setup_each_round or due:  # the first set-up is always due
            before = calibration_block()
            took = wl.setup()
            setups.append((took, took / ((before + calibration_block()) / 2)))
        blocks = []
        ops = wl.round(lambda: blocks.append(calibration_block()))
        blocks.append(calibration_block())
        rounds.append((ops, [sec / ((blocks[i] + blocks[i + 1]) / 2)
                             for i, (sec, _, _) in enumerate(ops)]))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    first = rounds[0][0]
    ok = [bad < n for _, n, bad in first]
    done = sum(n - bad for _, n, bad in first)

    def summary(times: list[float], setup_s: float) -> dict:
        lat = [sec * 1000 for sec, good in zip(times, ok) if good]
        return {"setup_s": setup_s, "throughput_per_s": done / sum(times),
                "latency_p50_ms": statistics.median(lat),
                "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8]}

    ratios = zip(*(r for _, r in rounds))  # operation by operation
    metrics = summary([CAL_REF_S * statistics.median(op) for op in ratios],
                      CAL_REF_S * statistics.median(r for _, r in setups))
    metrics["peak_rss_mb"] = peak_kb / 1024
    raw = zip(*([sec for sec, _, _ in ops] for ops, _ in rounds))
    ops = [op for r, _ in rounds for op in r]
    info = {"rounds": len(rounds), "setup_samples_s": [s for s, _ in setups],
            "operations_timed": len(ops),
            "unscaled": summary([statistics.median(op) for op in raw],
                                statistics.median(s for s, _ in setups))}
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, ops, info


def traced(wl) -> tuple[dict, list[tuple], dict]:
    """A set-up and ``wl.trace_rounds`` rounds, each step run untraced and
    then traced, so that drifts in machine speed fall on both sides.  A
    workload that sets up before every round keeps each round with its own
    set-up, so neither side finds the caches of the other warm."""
    import layertrace

    tracer = layertrace.Tracer()
    wall = {False: 0.0, True: 0.0}  # program seconds untraced and traced
    ops = []
    if wl.setup_each_round:
        steps = [(wl.setup, wl.round)] * wl.trace_rounds
    else:
        steps = [(wl.setup,)] + [(wl.round,)] * wl.trace_rounds
    for step in steps:
        for on in (False, True):
            if on:
                tracer.attach()
            try:
                for part in step:
                    result = part()
                    if part == wl.setup:
                        wall[on] += result
                    else:
                        wall[on] += sum(sec for sec, _, _ in result)
                        ops += result if on else []
            finally:
                tracer.detach()
    untraced_s, traced_s = wall[False], wall[True]
    agg = tracer.aggregate()
    metrics = {}
    for name in layertrace.NAMES:
        metrics[f"{name}.calls"] = (agg["calls"][name], "count")
        metrics[f"{name}.self_s"] = (agg["self_s"][name], "s")
    for module in layertrace.MODULES:
        total = sum(v for k, v in agg["self_s"].items() if k.split(".")[0] == module)
        metrics[f"{module}.self_s"] = (total, "s")
    for group, total in agg["groups"].items():
        metrics[f"{group}.total_s"] = (total, "s")
    metrics["trace.unattributed_s"] = (traced_s - agg["top_level_s"], "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    info = {"rounds": wl.trace_rounds, "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": tracer.span_count(), "missing": tracer.missing, "tracer": tracer}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, ops, info


def run_one(args) -> int:
    lib = load_library()
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](lib, args.seed, OUT / f"work-{os.getpid()}")
    try:
        if args.trace:
            metrics, ops, info = traced(wl)
        else:
            metrics, ops, info = end_to_end(wl, args.seconds)
        errors = wl.check()
    finally:
        wl.close()
    if args.trace:
        spans = OUT / f"{args.workload}-spans.bin"
        info.pop("tracer").write_spans(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
    attempted = sum(n for _, n, _ in ops)
    failed = sum(bad for _, _, bad in ops)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{info['rounds']} rounds, {attempted} operations attempted, {failed} failed, "
          f"{'correct' if not errors else f'{len(errors)} INCORRECT'}")
    if info.get("missing"):
        print(f"  missing layer functions: {', '.join(info['missing'])}")
    if "unscaled" in info:
        print(f"  {len(info['setup_samples_s'])} set-ups; unscaled medians: "
              + ", ".join(f"{k} {v:.6g}" for k, v in info["unscaled"].items()))
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6f} {m['unit']}")
    for e in errors[:20]:
        print(f"  incorrect: {e}", file=sys.stderr)
    (OUT / f"{args.workload}{'-trace' if args.trace else ''}.json").write_text(
        json.dumps(dict(result, seed=args.seed, seconds=args.seconds, info=info,
                        errors=errors), indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; the last line
    merges their results with metric names prefixed by the workload."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("survey", "decide", "verify", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="how long to measure; run_seconds of BENCHMARK.json by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
