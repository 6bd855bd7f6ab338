#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (quartile distance over median).

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-5 --workloads disguised --trace-seed 0

Each run is its own process, one after another.  With ``--trace-seed`` set
(the default is 1), one traced run per workload adds the per-layer metrics,
and the tracing overhead against the untraced median of ``eq_per_s``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def _commit() -> str | None:
    """The checked-out commit, when the checkout is a git repository."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment() -> dict:
    import mpmath
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": sympy.__version__, "mpmath": mpmath.__version__,
            "sympy_ground_types": GROUND_TYPES, "cpu": platform.processor()
            or platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--trace-seed", type=int, default=1,
                        help="seed of the traced run; 0 skips it")
    parser.add_argument("--out", type=Path, help="write the summary here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    doc = {"commit": _commit(), "environment": environment(), "seeds": args.seeds,
           "run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, 0) for seed in args.seeds]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": metrics}
        print(f"{workload}: {len(runs)} runs, attempted {entry['attempted']}, "
              f"failed {entry['failed']}, correct {entry['correct']}")
        for name, s in metrics.items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 \
                else "  (spread above a third of the bound)"
            print(f"  {name:16} median {s['median']:10.5g}  q1 {s['q1']:10.5g}"
                  f"  q3 {s['q3']:10.5g}  spread {s['spread']:.3f}"
                  f"  bound {bounds[name]}{flag}")
        if args.trace_seed:
            traced = _run(workload, args.trace_seed, 1)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            # the traced cli run calls run_cli in process, so it has no
            # untraced counterpart to compare with
            overhead = None if workload == "cli" else (
                1.0 - layers["trace.eq_per_s"] / metrics["eq_per_s"]["median"])
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": layers,
                                  "overhead_vs_untraced_median": overhead}
            print(f"  traced seed {args.trace_seed}: trace.eq_per_s "
                  f"{layers['trace.eq_per_s']:.4g}, overhead against the "
                  f"untraced median {overhead}")
        doc["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
