"""expmoment benchmark: end-to-end and per-layer metrics of four workloads.

    python3 benchmarks/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ``src/``, and
nothing is installed or built. One run measures one workload. It first
times ``setup_s`` (interpreter start, ``import expmoment`` and input
generation, the median of several fresh interpreters). Then it runs
passes of the workload, each in a fresh interpreter and one at a time,
until ``--seconds`` are spent. A fresh interpreter per pass makes every
pass pay what one CLI call pays, including the ``lru_cache`` fills.
Between passes the parent times a fixed reference kernel (``calibrate``).
Each pass time is scaled by ``CAL_REFERENCE_S`` over the kernel's mean
time next to that pass. ``wall_s`` is the median of these scaled times,
because the machine's speed drifts (see README.md).

With ``--trace 0`` every pass runs untraced, and the run reports the
end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1``, untraced and
traced passes alternate. The run reports the per-layer metrics, averaged
over the traced passes, and ``trace.overhead_s``, which is the median scaled
traced pass time minus the median scaled untraced one. Every run writes its raw figures,
and the spans of its traced passes, to ``.bench_out/``. ``--workload all`` runs each workload in turn, each in its
own interpreter, and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An item fails when it
raises, when its report says ``passed: false``, or when its output fails
the benchmark's check, so ``failed / attempted`` is the run's
``failed_frac``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
# Typical seconds of calibrate() on the machine the baseline was measured
# on, and the number of its runs after each pass.
CAL_REFERENCE_S = 0.17
CAL_REPEATS = 3
# Every run must end well inside 180 s, whatever --seconds asks for.
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibrate() -> float:
    """Seconds for one fixed reference kernel that uses no expmoment code.

    It mixes what the workloads do: a Python dict merge, complex
    exponentials with a matrix-vector product, a sort, and a strided
    integer sieve. Pass times are scaled by how long it takes next to each
    pass, which removes most of the machine's own drift in speed.
    """
    import numpy as np
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    merged: dict[int, complex] = {}
    for key in rng.integers(0, 5000, 300_000).tolist():
        merged[key] = merged.get(key, 0j) + 1.0
    ts = np.linspace(0.0, 100.0, 1 << 16)
    np.exp(1j * np.multiply.outer(ts, np.arange(16.0))) @ np.ones(16)
    np.sort(rng.standard_normal(1 << 20))
    table = np.zeros(1 << 20, dtype=np.int64)
    for e in range(1, 2000):
        table[e::e] += 1
    return time.perf_counter() - start


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


# --------------------------------------------------------------------------
# Child interpreters: one set-up or one pass
# --------------------------------------------------------------------------

def import_package():
    """Import expmoment from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "expmoment" / "__init__.py").is_file():
        sys.exit(f"error: no expmoment package under {src}")
    sys.path.insert(0, str(src))
    em = importlib.import_module("expmoment")
    if Path(em.__file__).resolve().parent != (src / "expmoment").resolve():
        sys.exit(f"error: imported expmoment from {em.__file__}, not {src}")
    for name in ("cli", "core", "evaluate", "quadrature", "rademacher",
                 "spectral", "verify", "zeta"):
        importlib.import_module(f"expmoment.{name}")
    return em


def blas_info() -> dict:
    import numpy as np
    info = {var: os.environ.get(var, "default") for var in BLAS_ENV}
    try:
        config = np.show_config(mode="dicts")
        info["blas"] = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def child_setup(args) -> int:
    from workloads import WORKLOADS
    import_package()
    print(digest(WORKLOADS[args.workload].inputs(args.seed, args.quick)))
    return 0


def child_pass(args) -> int:
    from layers import Recorder, install_items, install_layers, layer_metrics
    from workloads import WORKLOADS, failed_report
    em = import_package()
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.quick)
    tracing = bool(args.trace)
    rec = Recorder(tracing)
    install_items(rec, em, lambda check, exc: failed_report(em, check, exc))
    for module, attr, callback in workload.observers(em, inputs, rec):
        rec.patch(module, attr, lambda fn, _binding, cb=callback: _observed(fn, cb))
    if tracing:
        install_layers(rec, em)
    gc.collect()

    start = time.perf_counter()
    with rec.span("cli"):
        outputs = workload.run(em, inputs, rec)
    wall = time.perf_counter() - start
    rec.restore()

    problems, info = workload.check(em, inputs, outputs, rec)
    result = {
        "wall_s": wall,
        "items": rec.items,
        "problems": problems,
        "info": info,
        "digest": digest(inputs),
        "blas": blas_info(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hook_errors": rec.counts["trace.hook_errors"],
    }
    if tracing:
        result["layers"] = layer_metrics(rec, wall)
        result["spans"] = [[name, s - start, e - start, parent, item]
                           for name, s, e, parent, item in rec.spans]
    print(json.dumps(result))
    return 0


def _observed(fn, callback):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        callback(result)
        return result
    return wrapper


# --------------------------------------------------------------------------
# Parent: set-up samples, passes, metrics
# --------------------------------------------------------------------------

class ChildFailed(Exception):
    pass


def spawn(args, role: str, trace: int, deadline: float) -> tuple[str, float]:
    """Run one child interpreter to completion; (stdout, seconds)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace)] + (["--quick"] if args.quick else [])
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role} child timed out") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{role} child exited with {proc.returncode}")
    return proc.stdout, elapsed


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup, digests = [], set()
    for _ in range(SETUP_SAMPLES):
        out, elapsed = spawn(args, "setup", 0, deadline)
        setup.append(elapsed)
        digests.add(out.strip())

    calibrate()  # the first call pays numpy's lazy set-up
    calibration = [[calibrate() for _ in range(CAL_REPEATS)]]
    passes = []
    start = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced passes, untraced first.
        traced = bool(args.trace) and len(passes) % 2 == 1
        out, _ = spawn(args, "pass", int(traced), deadline)
        result = json.loads(out.strip().splitlines()[-1])
        result["traced"] = traced
        calibration.append([calibrate() for _ in range(CAL_REPEATS)])
        # Speed next to this pass: the mean kernel time just before and after.
        nearby = calibration[-2] + calibration[-1]
        result["speed"] = CAL_REFERENCE_S / statistics.fmean(nearby)
        passes.append(result)
        digests.add(result["digest"])
        spent = time.perf_counter() - start
        need_both = args.trace and len(passes) < 2
        if not need_both and spent * (len(passes) + 1) / len(passes) > args.seconds:
            break

    items = [item for p in passes for item in p["items"]]
    problems = [msg for p in passes for msg in p["problems"]]
    if len(digests) != 1:
        problems.append(f"inputs differ between interpreters: {sorted(digests)}")
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    counts = {len(p["items"]) for p in plain}
    if len(counts) != 1:
        problems.append(f"passes ran different item counts {sorted(counts)}")
    # Each item's scaled latency, median over the untraced passes.
    item_ms = [statistics.median(p["items"][i][1] * p["speed"] for p in plain)
               for i in range(min(counts))]

    def scaled_wall(group: list[dict]) -> float:
        return statistics.median(p["wall_s"] * p["speed"] for p in group)

    if args.trace:
        values = {}
        for name in traced[0]["layers"]:
            values[name] = statistics.fmean(p["layers"][name] for p in traced)
        values["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(plain)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": scaled_wall(plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setup),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    failed = sum(not ok for _, _, ok in items)
    first = passes[0]
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {first['digest']}")
    print(f"blas {json.dumps(first['blas'])}  passes {len(plain)} untraced, "
          f"{len(traced)} traced  items per pass {len(first['items'])}")
    print(f"info {json.dumps(first['info'])}")
    print("pass_s " + " ".join(f"{p['wall_s']:.4f}{'t' if p['traced'] else ''}"
                               for p in passes) + "  (t: traced)")
    print("speed " + " ".join(f"{p['speed']:.4f}" for p in passes)
          + f"  (reference kernel {CAL_REFERENCE_S} s / mean kernel time next to the pass)")
    print(f"measured wall_s median {statistics.median(p['wall_s'] for p in plain):.4f}"
          f"; item p50 / p90 over {len(item_ms)} items")
    print(f"failed_frac {failed / max(1, len(items)):.6g}  "
          f"({failed} of {len(items)} items)")
    # Printed, not gated: too noisy here to hold a bound (see README.md).
    print(f"item_p50_ms {statistics.median(item_ms):.6g} ms  item_p90_ms "
          f"{quantile(item_ms, 90):.6g} ms  (scaled, over {len(item_ms)} items)")
    hook_errors = sum(p["hook_errors"] for p in passes)
    if hook_errors:
        print(f"warning: {hook_errors} counter hooks could not read their arguments")
    for msg in problems[:20]:
        print(f"problem: {msg}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    write_record(args, first, passes, calibration, setup)
    return {"correct": not problems and failed == 0, "attempted": len(items),
            "failed": failed, "metrics": metrics}


def write_record(args, first: dict, passes: list[dict], calibration, setup) -> None:
    """Every measured figure of the run, and the spans of traced passes."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seed": args.seed,
              "inputs_sha256": first["digest"], "blas": first["blas"],
              "setup_s": setup, "calibration_s": calibration,
              "item_fields": ["name", "ms", "ok"],
              "span_fields": ["name", "start_s", "end_s", "parent", "item"],
              "passes": [{key: p.get(key) for key in
                          ("traced", "wall_s", "speed", "peak_rss_mb", "items", "spans")}
                         for p in passes]}
    path.write_text(json.dumps(record))
    print(f"record written to {path.relative_to(ROOT)}")


def run_all(args, spec: dict) -> int:
    """Each workload in its own interpreter, one at a time, then one table."""
    results, rows = {}, []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--quick"] if args.quick else []
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[w["name"]] = result
        for name, m in result["metrics"].items():
            rows.append(f"{w['name']:18s} {name:32s} {m['value']:.6g} {m['unit']}")
    print("\n".join(rows))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced inputs, for the harness self-test")
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "expmoment" / "__init__.py").is_file():
        print(f"error: no expmoment package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child == "setup":
        return child_setup(args)
    if args.child == "pass":
        return child_pass(args)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    try:
        result = measure(args, spec)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
