"""Fast self-test of the benchmark harness, at reduced input sizes.

    python3 benchmarks/selftest.py

For every workload of ``BENCHMARK.json`` it makes one untraced and one
traced run with ``--quick`` inputs and checks that:

- the last line is the result object with exactly its four keys, and the
  run is correct with no failed item;
- every end-to-end metric (untraced) and every per-layer metric (traced)
  is emitted, with its unit and a finite value;
- the per-layer self times plus ``cli.self_s`` add up to the traced pass;
- the inputs' digest repeats for one seed and changes with the seed where
  the workload is seeded.

It also checks that the benchmark fails, printing no result, in a copy
that holds only ``BENCHMARK.json`` and the benchmark's own files. Takes
about a minute; writes only under ``.bench_out/``.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDED = {"engine-crosscheck", "divisor-sieve"}


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha(proc: subprocess.CompletedProcess) -> str:
    return re.search(r"inputs sha256 (\w+)", proc.stdout).group(1)


def check_result(result: dict, wanted: list[dict], where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    names = [m["name"] for m in wanted]
    assert list(result["metrics"]) == names, (where, sorted(
        set(names) ^ set(result["metrics"])))
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"])
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), (
            where, m["name"], got["value"])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = 0
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seconds", "1", "--quick"]

        plain = run(base + ["--seed", "7", "--trace", "0"])
        check_result(result_of(plain), spec["end_to_end"], f"{name} untraced")
        traced = run(base + ["--seed", "7", "--trace", "1"])
        result = result_of(traced)
        check_result(result, spec["per_layer"], f"{name} traced")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layer_sum = math.fsum(v for k, v in m.items() if k in _self_time_metrics())
        assert abs(layer_sum - m["trace.accounted_s"]) <= 1e-9 + 1e-9 * layer_sum, name
        assert abs(m["trace.accounted_s"] - m["trace.wall_s"]) <= (
            1e-3 + 0.01 * m["trace.wall_s"]), (name, m["trace.accounted_s"], m["trace.wall_s"])
        assert sha(plain) == sha(traced), f"{name}: one seed gave two inputs"
        if name in SEEDED:
            other = run(base + ["--seed", "8", "--trace", "0"])
            assert sha(other) != sha(plain), f"{name}: the seed changes nothing"
        checks += 1
        print(f"selftest: {name} ok", flush=True)

    # A directory holding only BENCHMARK.json and the benchmark's files.
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    assert proc.returncode != 0, "ran without the package"
    assert '"correct"' not in proc.stdout, "printed a result without the package"
    shutil.rmtree(bare)
    print(f"selftest: ok ({checks} workloads, bare directory refused)")
    return 0


def _self_time_metrics() -> set[str]:
    sys.path.insert(0, str(HERE))
    from layers import SELF_TIME_METRICS
    return set(SELF_TIME_METRICS.values())


if __name__ == "__main__":
    sys.exit(main())
