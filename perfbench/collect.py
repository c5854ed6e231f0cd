"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--write perfbench/BASELINE.json]

Runs are sequential.  For each workload and metric it prints the median,
the quartiles and the spread (third minus first quartile, as a share of
the median), and marks end-to-end metrics whose spread exceeds a third of
their bound in BENCHMARK.json.  With --write, the summary, the machine and
each workload's composition are stored as the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(cmd: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--write", default="")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    compositions = {}
    for name in names:
        per_metric: dict[str, list[float]] = {}
        for seed in seeds_of(args.seeds):
            result, stdout = run(bench["command"], name, seed, bench["run_seconds"], args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{name} seed {seed}: incorrect output\n{stdout}")
            for metric, v in result["metrics"].items():
                per_metric.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
            compositions.setdefault(name, [ln for ln in stdout.splitlines()[1:5]])
        summary[name] = {}
        for metric, values in per_metric.items():
            s = summarize(values)
            summary[name][metric] = s
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and s["spread"] > bound / 3:
                flag = f"  <-- over a third of bound {bound}"
            print(f"{name:16s} {metric:32s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{flag}",
                  flush=True)
    if args.write:
        import numpy
        out = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": numpy.__version__, "platform": platform.platform()},
            "run_seconds": bench["run_seconds"], "seeds": args.seeds, "trace": args.trace,
            "composition": compositions, "metrics": summary,
        }
        path = ROOT / args.write
        old = json.loads(path.read_text()) if path.exists() else {}
        old[f"trace{args.trace}"] = out
        path.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
