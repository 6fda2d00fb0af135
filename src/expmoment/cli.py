"""Command-line front end.

Exit codes: 0 success / all checks passed, 2 invalid input, 3 quadrature
did not converge, 4 a size budget exceeded (TermBudgetExceededError), 5 an
inequality check failed or the engines of ``moment --engine both`` disagreed
(either signals an artifact bug, not a counterexample).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import verify, zeta
from .core import (
    DEFAULT_TERM_BUDGET,
    ExpMomentError,
    Instance,
    NotConvergedError,
    TermBudgetExceededError,
    Window,
    dominated_coefficients,
    validate_instance,
    validate_order,
)
from .evaluate import _check_overflow, _check_phase_range, power_on_array

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
    if args.instance:
        with open(args.instance) as fh:
            return Instance.from_json(fh.read())
    if args.inline:
        fields = {}
        for part in args.inline.split(";"):
            key, _, val = part.partition("=")
            fields[key.strip()] = [float(v) for v in val.split(",") if v.strip()]
        return validate_instance(fields.get("a", []), fields.get("phi", []))
    raise ExpMomentError("no instance given (use --instance or --inline)")


# --------------------------------------------------------------------------
# moment
# --------------------------------------------------------------------------

def cmd_moment(args) -> int:
    instance = _load_instance(args)
    raw, meta = verify._raw_window_integral(instance, args.q,
                                            Window(args.center, args.T),
                                            args.engine)
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
    print(json.dumps(rec))
    return EXIT_OK if meta.get("engines_agree", True) else EXIT_VIOLATED


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.random < 1:
        raise ExpMomentError(f"--random must be >= 1, got {args.random}")
    checks = verify.CAMPAIGN_CHECKS if args.check == "all" else [args.check]
    inst = coeffs = None
    if args.instance or args.inline:
        inst = _load_instance(args)
        coeffs = dominated_coefficients([complex(a) for a in inst.amplitudes], inst)
    reports = []
    for check in checks:
        if check == "corollary":
            reports.append(zeta.corollary_lower_bound(args.N, args.nu, args.T))
        elif inst is None:
            count = min(args.random, 5) if args.quick else args.random
            reports.extend(rep for _, rep in verify.campaign(check, count, args.seed))
        elif check == "theorem1":
            reports.append(verify.check_theorem1(inst, args.q, args.T))
        elif check == "lemma":
            reports.append(verify.check_lemma(coeffs, args.q, args.T, args.T0))
        elif check == "eq45":
            reports.append(verify.check_eq45(coeffs, args.q, args.T, args.H))
        elif check == "sup-chain":
            reports.append(verify.check_sup_chain(inst, [args.T]))
        elif check == "ingham":
            reports.append(verify.check_ingham_mordell(inst, args.gamma))
        else:
            reports.append(verify.check_bohr_bound(inst, args.index))
    for rep in reports:
        print(rep.to_json_line())
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
                              sorted({int(v) for v in np.geomspace(1e3, args.x, 15)}))
        print(json.dumps({k: v for k, v in fit.items() if k != "xs"}
                         | {"xs": [int(x) for x in fit["xs"]]}))
        return EXIT_OK
    sweep = _parse_sweep(args.sweep) if args.sweep else [args.N]
    # Every row first, so a refusal anywhere in the sweep leaves stdout empty.
    reports = [zeta.corollary_lower_bound(n, args.nu, args.T) for n in sweep]
    print("N,lhs,rhs,divisor_sum,passed")
    for n, rep in zip(sweep, reports):
        print(",".join([str(n), _fmt(rep.lhs), _fmt(rep.rhs),
                        _fmt(rep.method["divisor_square_sum_upto_N"]),
                        str(rep.passed)]))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATED


# --------------------------------------------------------------------------
# plotdata
# --------------------------------------------------------------------------

def cmd_plotdata(args) -> int:
    instance = _load_instance(args)
    validate_order(args.q)
    _check_overflow(instance, 2 * args.q)
    if args.points < 1:
        raise ExpMomentError("need at least one grid point")
    if args.points * instance.size > DEFAULT_TERM_BUDGET:
        raise TermBudgetExceededError(
            f"{args.points} points x {instance.size} terms exceed budget "
            f"{DEFAULT_TERM_BUDGET}")
    ts = np.linspace(args.tmin, args.tmax, args.points)
    if not (np.isfinite(ts).all() and (np.diff(ts) > 0).all()):
        raise ExpMomentError("grid points must be finite and strictly increasing")
    _check_phase_range(instance.frequencies, 1, max(abs(args.tmin), abs(args.tmax)))
    vals = power_on_array(instance, ts, args.q)
    print("t,power")
    for t, v in zip(ts, vals):
        print(f"{_fmt(float(t))},{_fmt(float(v))}")
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
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zeta", help="critical-line partial-sum application")
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("--N", type=int, default=50)
    p.add_argument("--T", type=float, default=1e4)
    p.add_argument("--sweep", help="N sweep as lo:hi:step")
    p.add_argument("--divisor-sum-only", action="store_true")
    p.add_argument("--x", type=float, help="divisor-sum upper limit")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("plotdata", help="CSV samples of (t, |S(t)|^{2q})")
    add_instance_opts(p)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=1001)
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExpMomentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {NotConvergedError: EXIT_NOT_CONVERGED,
                TermBudgetExceededError: EXIT_BUDGET}.get(type(exc), EXIT_INVALID)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
