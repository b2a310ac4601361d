#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise it as a baseline file.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For every workload this makes `--runs` untraced runs in each of two sets,
each run with its own seed (set A uses seeds 1..runs, set B the next
runs), alternating A and B so both meet the same machine conditions.  It
then makes one traced run per workload.  For every end-to-end metric it
records each set's values, median and quartiles
(`statistics.quantiles(values, n=4)`), the spread (interquartile range
over median) and the ratio of set B's median to set A's.  It also keeps
each untraced run's host slowdown and raw, unscaled `wall_s`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    sets: dict[str, list[dict]] = {w: [{}, {}] for w in WORKLOADS}
    info: dict[str, dict] = {
        w: {"ops": {}, "host_slowdown": [], "raw_wall_s": []} for w in WORKLOADS
    }
    env = None
    for i in range(args.runs):
        for workload in WORKLOADS:
            for s, seed in enumerate((i + 1, args.runs + i + 1)):
                t0 = time.perf_counter()
                result, lines = bench(workload, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: {lines[-8:]}")
                for name, m in result["metrics"].items():
                    sets[workload][s].setdefault(name, []).append(m["value"])
                for line in lines:
                    if line.startswith("env ") and env is None:
                        env = json.loads(line[4:])
                    if " host slowdown " in line:
                        words = line.split()
                        info[workload]["host_slowdown"].append(
                            float(words[words.index("slowdown") + 1])
                        )
                        info[workload]["raw_wall_s"].append(float(words[-1]))
                    if line.startswith("op "):
                        key, ms = line[3:].rsplit(": ", 1)
                        info[workload]["ops"].setdefault(key, []).append(
                            float(ms.split()[0])
                        )
                print(
                    f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s "
                    + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                    ),
                    flush=True,
                )

    out = {"env": env, "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        traced, lines = bench(workload, 1, seconds, 1)
        a, b = ({k: summary(v) for k, v in s.items()} for s in sets[workload])
        out["workloads"][workload] = {
            "set_a": a,
            "set_b": b,
            "median_ratio_b_over_a": {k: b[k]["median"] / a[k]["median"] for k in a},
            "op_ms_median": {
                k: statistics.median(v) for k, v in info[workload]["ops"].items()
            },
            "host_slowdown": info[workload]["host_slowdown"],
            "raw_wall_s": info[workload]["raw_wall_s"],
            "traced": {k: m["value"] for k, m in traced["metrics"].items()},
            "traced_notes": [
                line for line in lines if line.startswith(("self-time", "untraced"))
            ],
        }
        print(f"{workload} traced: " + " ".join(lines[-3:]), flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
