"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --seeds 1-10 [--workload NAME ...] [--json FILE]

Runs ``benchmarks/run.py`` once per seed and workload, one run at a time,
with the ``run_seconds`` of ``BENCHMARK.json``, and prints for each metric
the median and the distance between the first and third quartile of its
values (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound. A spread is steady when it stays below a third
of the bound. ``--json`` also writes every value, for a baseline record.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--json", help="write all values to this file")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect run", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v[-1]:.5g}" for k, v in values.items()), flush=True)
        record[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            share = float("nan")
            if len(vals) >= 2 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                share = (q3 - q1) / median
            bound = bounds.get(name)
            record[workload][name] = {"median": median, "spread": share,
                                      "values": vals}
            flag = "" if bound is None else (
                f"bound {bound:g}" + ("  STEADY" if share < bound / 3 else "  WIDE"))
            print(f"  {workload:18s} {name:28s} median {median:.6g}  "
                  f"spread {share:.4f}  {flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seeds": args.seeds, "workloads": record},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
