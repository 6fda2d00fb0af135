"""Command-line front end.

Exit codes: 0 success / all checks passed, 2 invalid input, 3 quadrature
did not converge, 4 term or table budget exceeded, 5 an inequality check
failed or the engines of ``moment --engine both`` disagreed (either signals
an artifact bug, not a counterexample).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import verify, zeta
from .core import (
    BudgetExceededError,
    ExpMomentError,
    Instance,
    NotConvergedError,
    TermBudgetExceededError,
    TooManySignsError,
    Window,
    dominated_coefficients,
    validate_instance,
    validate_order,
)
from .evaluate import _check_overflow, power_on_array
from .quadrature import QuadratureConfig

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3
EXIT_BUDGET = 4
EXIT_VIOLATED = 5

#: Published default seed for the randomized suites; failures reproduce.
DEFAULT_SEED = 42


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_instance(args) -> Instance:
    if getattr(args, "instance", None):
        with open(args.instance) as fh:
            return Instance.from_json(fh.read())
    if getattr(args, "inline", None):
        fields = {}
        for part in args.inline.split(";"):
            key, _, val = part.partition("=")
            fields[key.strip()] = [float(v) for v in val.split(",") if v.strip()]
        return validate_instance(fields.get("a", []), fields.get("phi", []))
    raise ExpMomentError("no instance given (use --instance or --inline)")


def _config(args) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=getattr(args, "rel_tol", 1e-9))


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "a") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# --------------------------------------------------------------------------
# moment
# --------------------------------------------------------------------------

def cmd_moment(args) -> int:
    instance = _load_instance(args)
    raw, meta = verify._raw_window_integral(instance, args.q,
                                            Window(args.center, args.T),
                                            _config(args), args.engine)
    engine = meta["engine"]
    results = {}
    if engine != "quadrature":
        results["spectral_exact"] = raw / (2 * args.T)
    if engine != "spectral":
        results["quadrature"] = meta.get("quadrature", raw) / (2 * args.T)
        results["error_estimate"] = meta["error_estimate"] / (2 * args.T)
        results["error_kind"] = meta["error_kind"]
    if engine == "both":
        results["disagreement"] = meta["disagreement"]
    rec = {"q": args.q, "T": args.T, "center": args.center, "engine": engine}
    rec.update({k: v if isinstance(v, str) else _fmt(v)
                for k, v in results.items()})
    if "auto" in meta:
        rec["auto"] = meta["auto"]
    _emit(args, json.dumps(rec))
    return EXIT_OK if meta.get("engines_agree", True) else EXIT_VIOLATED


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.random < 1:
        raise ExpMomentError(f"--random must be >= 1, got {args.random}")
    config = _config(args)
    checks = verify.CAMPAIGN_CHECKS if args.check == "all" else [args.check]
    reports = []
    for check in checks:
        if check == "corollary":
            reports.append(zeta.corollary_lower_bound(args.N, args.nu, args.T, config))
            continue
        if getattr(args, "instance", None) or getattr(args, "inline", None):
            inst = _load_instance(args)
            if check == "theorem1":
                reports.append(verify.check_theorem1(inst, args.q, args.T, config))
            elif check == "lemma":
                coeffs = dominated_coefficients(
                    [complex(a) for a in inst.amplitudes], inst)
                reports.append(verify.check_lemma(coeffs, args.q, args.T,
                                                  args.T0, config))
            elif check == "eq45":
                coeffs = dominated_coefficients(
                    [complex(a) for a in inst.amplitudes], inst)
                reports.append(verify.check_eq45(coeffs, args.q, args.T,
                                                 args.H, config))
            elif check == "sup-chain":
                reports.append(verify.check_sup_chain(inst, [args.T], config))
            elif check == "ingham":
                reports.append(verify.check_ingham_mordell(inst, args.gamma, config))
            elif check == "bohr":
                reports.append(verify.check_bohr_bound(inst, args.index))
            continue
        count = min(args.random, 5) if args.quick else args.random
        reports.extend(rep for _, rep in verify.campaign(check, count, args.seed,
                                                          config, args.quick))
    for rep in reports:
        _emit(args, rep.to_json_line())
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "lhs", "rhs", "margin", "passed"])
            for rep in reports:
                writer.writerow([rep.check_name, _fmt(rep.lhs), _fmt(rep.rhs),
                                 _fmt(rep.margin), rep.passed])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATED


# --------------------------------------------------------------------------
# zeta
# --------------------------------------------------------------------------

def _parse_sweep(text: str) -> list[int]:
    try:
        lo, hi, step = (zeta._as_int("--sweep", float(v)) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"--sweep needs integers lo:hi:step, got {text!r}") from None
    if step < 1 or hi < lo:
        raise ValueError(f"--sweep lo:hi:step needs lo <= hi and step >= 1, got {text!r}")
    return list(range(lo, hi + 1, step))


def cmd_zeta(args) -> int:
    if args.divisor_sum_only:
        if args.x is not None and not (math.isfinite(args.x) and args.x > 1e3):
            raise ExpMomentError(f"--x must be a finite number > 1e3, got {args.x}")
        fit = zeta.growth_fit(args.nu, xs=None if args.x is None else
                              np.unique(np.geomspace(1e3, args.x, 15).astype(np.int64)))
        _emit(args, json.dumps({k: v for k, v in fit.items() if k != "xs"}
                               | {"xs": [int(x) for x in fit["xs"]]}))
        return EXIT_OK
    config = _config(args)
    sweep = _parse_sweep(args.sweep) if args.sweep else [args.N]
    _emit(args, "N,lhs,rhs,divisor_sum,passed")
    ok = True
    for n in sweep:
        rep = zeta.corollary_lower_bound(n, args.nu, args.T, config)
        ok = ok and rep.passed
        _emit(args, ",".join([str(n), _fmt(rep.lhs), _fmt(rep.rhs),
                              _fmt(rep.method["divisor_square_sum_upto_N"]),
                              str(rep.passed)]))
    return EXIT_OK if ok else EXIT_VIOLATED


# --------------------------------------------------------------------------
# plotdata
# --------------------------------------------------------------------------

def cmd_plotdata(args) -> int:
    instance = _load_instance(args)
    validate_order(args.q)
    _check_overflow(instance, 2 * args.q)
    if args.points < 1:
        raise ExpMomentError("need at least one grid point")
    ts = np.linspace(args.tmin, args.tmax, args.points)
    if not (np.isfinite(ts).all() and (np.diff(ts) > 0).all()):
        raise ExpMomentError("grid points must be finite and strictly increasing")
    vals = power_on_array(instance, ts, args.q)
    _emit(args, "t,power")
    for t, v in zip(ts, vals):
        _emit(args, f"{_fmt(float(t))},{_fmt(float(v))}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser / entry
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expmoment",
        description="Windowed moments of exponential sums and inequality checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_opts(p):
        p.add_argument("--instance", help="path to instance JSON")
        p.add_argument("--inline", help='inline spec, e.g. "a=1,2;phi=0,1"')

    p = sub.add_parser("moment", help="windowed 2q-th moment of |S|")
    add_instance_opts(p)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--engine", choices=["auto", "spectral", "quadrature", "both"],
                   default="auto")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--output")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("verify", help="run inequality checks")
    p.add_argument("check", choices=[*verify.CAMPAIGN_CHECKS, "corollary", "all"])
    add_instance_opts(p)
    p.add_argument("--random", type=int, default=25,
                   help="number of random cases, >= 1 (--quick caps it at 5)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--T0", type=float, default=0.0)
    p.add_argument("--H", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--nu", type=int, default=1)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--output")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zeta", help="critical-line partial-sum application")
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("--N", type=int, default=50)
    p.add_argument("--T", type=float, default=1e4)
    p.add_argument("--sweep", help="N sweep as lo:hi:step")
    p.add_argument("--divisor-sum-only", action="store_true")
    p.add_argument("--x", type=float, help="divisor-sum upper limit")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--output")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("plotdata", help="CSV samples of (t, |S(t)|^{2q})")
    add_instance_opts(p)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--output")
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (TermBudgetExceededError, TooManySignsError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ExpMomentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
