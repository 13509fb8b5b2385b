#!/usr/bin/env python3
"""Run the benchmark over several seeds and write ``bench/BENCH_<label>.json``.

Run from the root of a checkout::

    python3 bench/collect.py --label baseline

For every workload of ``BENCHMARK.json`` it runs the benchmark command once
for each of the seeds 1-10 with tracing off, then once with tracing on at
seed 1.  For
each end-to-end metric it reports the median and the quartiles over seeds
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("record "):]) for line in lines if line.startswith("record "))
    shown = [line for line in lines if line.startswith(("check ", "times ", "metric "))]
    return {"seed": seed, "record": record, "result": result, "lines": shown}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"seeds": list(SEEDS), "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            run = run_once(bench, workload, seed, 0)
            runs.append(run)
            metrics = run["result"]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
            summary[metric["name"]] = dict(summarize(values), bound=metric["bound"], unit=metric["unit"])
            s = summary[metric["name"]]
            print(f"{workload} {metric['name']}: median {s['median']:.4g} {metric['unit']}, "
                  f"spread {s['spread']:.3f} (bound {metric['bound']})", flush=True)
        doc["workloads"][workload] = {
            "summary": summary, "runs": runs, "trace": run_once(bench, workload, SEEDS[0], 1),
        }
    out = ROOT / "bench" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
