"""The four workloads: inputs made from the seed, one pass, and its checks.

Each workload is dominated by a different layer, so a change to one layer
shows where its mechanism runs and costs nothing where it does not:

- ``verify-campaign``: quadrature and evaluate (``check_sup_chain`` on the
  kinked ``|S|``); the spectral engine and the sieves are bypassed.
- ``zeta-sweep``: both sides of the ``auto`` engine cutoff, spectral for
  N = 40-60 and quadrature of the smooth ``|S|^4`` for N = 70-80.
- ``engine-crosscheck``: spectral expansion and the Rademacher engine,
  each checked against an independent engine.
- ``divisor-sieve``: the zeta sieves; all three engines are bypassed.

The CLI campaign and the zeta sweep take no seed: their cost is set by
quadrature refinement levels, which double from one instance to the next,
and a seeded ``verify all --random 25`` ranged from 3.1 s to 9.8 s over
seeds 1-6. They run the published campaign seed 42 and the fixed sweep, so
that runs with different seeds compare. The seed draws every value of
``engine-crosscheck`` (whose cost is fixed by its (N, q) schedule) and the
spot-checked entries of ``divisor-sieve``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Engines must agree this well (the package's own agreement tolerance).
ENGINE_RTOL = 1e-6
# Exact Rademacher moments against enumeration of every sign vector.
RADEMACHER_RTOL = 1e-12
# Values computed from exact integers by the same formula.
EXACT_RTOL = 1e-12


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def run_cli(em, argv: list[str]) -> tuple[int, str]:
    """``expmoment <argv>`` in-process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = em.cli.main(list(argv))
    return code, out.getvalue()


def failed_report(em, check: str, exc: Exception):
    """Stand-in report for an item that raised, so the CLI campaign goes on."""
    method = defaultdict(lambda: math.nan, {"engine": None, "error": repr(exc)})
    return em.verify.VerificationReport(check, {}, math.nan, math.nan,
                                        math.nan, False, method)


class Workload:
    name = ""

    def inputs(self, seed: int, quick: bool) -> dict:
        raise NotImplementedError

    def observers(self, em, inputs: dict, rec) -> list:
        """(module, attribute, callback(result)) hooks that capture outputs."""
        return []

    def run(self, em, inputs: dict, rec):
        """One timed pass; returns the raw outputs for ``check``."""
        raise NotImplementedError

    def check(self, em, inputs: dict, outputs, rec) -> tuple[list[str], dict]:
        """Untimed correctness checks: (problems, info). Marks failed items."""
        raise NotImplementedError


class VerifyCampaign(Workload):
    name = "verify-campaign"

    def inputs(self, seed, quick):
        if quick:
            return {"argv": ["verify", "all", "--random", "1", "--quick",
                             "--seed", "42"]}
        return {"argv": ["verify", "all", "--random", "25", "--seed", "42"]}

    def run(self, em, inputs, rec):
        return run_cli(em, inputs["argv"])

    def check(self, em, inputs, outputs, rec):
        code, text = outputs
        lines = text.splitlines()
        problems = []
        if len(lines) != len(rec.items):
            problems.append(f"{len(lines)} report lines for {len(rec.items)} checks")
        for entry, line in zip(rec.items, lines):
            try:
                report = json.loads(line)
                ok = (report["passed"] is True
                      and math.isfinite(report["lhs"])
                      and math.isfinite(report["rhs"]))
            except (ValueError, KeyError, TypeError):
                ok = False
            entry[2] = entry[2] and ok
        bad = sum(not ok for _, _, ok in rec.items)
        if code != 0 and not bad:
            problems.append(f"CLI exit code {code} with every report passed")
        return problems, {"reports": len(lines)}


class ZetaSweep(Workload):
    name = "zeta-sweep"

    def inputs(self, seed, quick):
        sweep = "40:40:10" if quick else "40:80:10"
        return {"argv": ["zeta", "--nu", "2", "--sweep", sweep, "--T", "1e3"]}

    def run(self, em, inputs, rec):
        return run_cli(em, inputs["argv"])

    def check(self, em, inputs, outputs, rec):
        code, text = outputs
        reference = json.loads((HERE / "reference.json").read_text())["zeta-sweep"]
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = []
        if len(rows) != len(rec.items):
            problems.append(f"{len(rows)} sweep rows for {len(rec.items)} items")
        for entry, row in zip(rec.items, rows):
            try:
                ref = reference[row["N"]]
                ok = (row["passed"] == "True"
                      and rel_diff(float(row["rhs"]), ref["rhs"]) <= ENGINE_RTOL
                      and rel_diff(float(row["lhs"]), ref["lhs"]) <= EXACT_RTOL
                      and rel_diff(float(row["divisor_sum"]),
                                   ref["divisor_sum"]) <= EXACT_RTOL)
            except (KeyError, ValueError):
                ok = False
            entry[2] = entry[2] and ok
        bad = sum(not ok for _, _, ok in rec.items)
        if code != 0 and not bad:
            problems.append(f"CLI exit code {code} with every row passed")
        return problems, {"rows": len(rows)}


# (N, q) schedule of the moment items: N in 4-12, q in 2-5, at most 2e6
# composition pairs. Each shape runs once with real and once with integer
# frequencies, so the cost of a pass does not depend on the seed.
MOMENT_SHAPES = [(n, q) for n in (4, 6, 8, 10, 12) for q in (2, 3, 4, 5)
                 if math.comb(n + q - 1, q) ** 2 <= 2_000_000]
# Rademacher items, inside the exact engine's term budget and small enough
# to enumerate every sign vector; two draws per shape.
RADEMACHER_SHAPES = [(n, q) for n in range(7, 15) for q in (2, 3, 4, 5)] * 2
# First-level quadrature panels of each moment item: T is set from the
# bandlimit so that quadrature work per item is fixed too.
MOMENT_PANELS = 1024


class EngineCrosscheck(Workload):
    name = "engine-crosscheck"

    def inputs(self, seed, quick):
        rng = np.random.default_rng([seed, 3])
        moment_shapes = [(4, 2), (6, 3)] if quick else MOMENT_SHAPES
        rademacher_shapes = [(7, 2), (8, 3)] if quick else RADEMACHER_SHAPES
        moments = []
        for n, q in moment_shapes:
            for integer in (False, True):
                amps = rng.uniform(0.1, 1.0, n)
                if integer:
                    phis = rng.choice(np.arange(-12, 13), n, replace=False).astype(float)
                else:
                    phis = rng.uniform(-5.0, 5.0, n)
                band = q * float(phis.max() - phis.min())
                moments.append({"kind": "moment", "q": q, "integer": integer,
                                "amplitudes": amps.tolist(),
                                "frequencies": phis.tolist(),
                                "center": float(rng.uniform(-100.0, 100.0)),
                                "T": MOMENT_PANELS * math.pi / (2 * band)})
        signs = []
        for n, q in rademacher_shapes:
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            signs.append({"kind": "rademacher", "q": q,
                          "re": z.real.tolist(), "im": z.imag.tolist()})
        # Interleave the two kinds so that neither ends up in one block.
        items = []
        for i in range(max(len(moments), len(signs))):
            items.extend(group[i] for group in (moments, signs) if i < len(group))
        return {"items": items}

    def run(self, em, inputs, rec):
        caught = (em.core.NotConvergedError, em.core.TermBudgetExceededError)
        worst = {"moment": 0.0, "rademacher": 0.0}
        for it in inputs["items"]:
            kind = it["kind"]
            with rec.item(kind) as state:
                try:
                    diff = (self._moment(em, it) if kind == "moment"
                            else self._rademacher(em, it))
                except caught:
                    state["ok"] = False
                    continue
                worst[kind] = max(worst[kind], diff)
                tol = ENGINE_RTOL if kind == "moment" else RADEMACHER_RTOL
                state["ok"] = diff <= tol
        return worst

    @staticmethod
    def _moment(em, it) -> float:
        q = it["q"]
        source = em.core.Instance(tuple(it["amplitudes"]), tuple(it["frequencies"]))
        window = em.core.Window(it["center"], it["T"])
        spec = em.spectral
        expander = spec.rational_mode_expand if it["integer"] else spec.expand
        exact = spec.integral_exact(expander(source, q), window) / (2 * it["T"])
        quad = em.quadrature.windowed_average(source, q, window).value
        return rel_diff(exact, quad)

    @staticmethod
    def _rademacher(em, it) -> float:
        z = np.asarray(it["re"]) + 1j * np.asarray(it["im"])
        rad = em.rademacher
        return rel_diff(rad.exact_even_moment(z, it["q"]),
                        rad.exhaustive_moment(z, it["q"]))

    def check(self, em, inputs, outputs, rec):
        return [], {"worst_moment_rel_diff": outputs["moment"],
                    "worst_rademacher_rel_diff": outputs["rademacher"]}


# ---------------------------------------------------------------------------
# divisor-sieve: spot checks against an independent factorisation
# ---------------------------------------------------------------------------

def factorize(m: int) -> dict[int, int]:
    """Prime factorisation by trial division (m is at most a few 1e7)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def divisor_count(m: int, nu: int) -> int:
    """d_nu(m) = prod over p^k || m of C(k + nu - 1, nu - 1)."""
    return math.prod(math.comb(k + nu - 1, nu - 1) for k in factorize(m).values())


def divisors(m: int) -> list[int]:
    out = [1]
    for p, k in factorize(m).items():
        out = [d * p ** e for d in out for e in range(k + 1)]
    return out


def bounded_factorizations(m: int, nu: int, bound: int, divs=None) -> int:
    """Ordered nu-tuples of integers in [1, bound] with product m.

    ``divs`` lists the divisors of m (computed when not given)."""
    divs = divisors(m) if divs is None else divs
    if nu == 1:
        return int(m <= bound)
    if nu == 2:
        return sum(1 for d in divs if d <= bound and m // d <= bound)
    return sum(bounded_factorizations(m // d, nu - 1, bound,
                                      [e for e in divs if (m // d) % e == 0])
               for d in divs if d <= bound)


class DivisorSieve(Workload):
    name = "divisor-sieve"
    SPOTS = 32

    def inputs(self, seed, quick):
        rng = np.random.default_rng([seed, 4])
        x2, x3, (n, nu) = ("1e5", "1e4", (30, 3)) if quick else ("1e7", "1e6", (300, 3))
        return {
            "argv": [["zeta", "--divisor-sum-only", "--nu", "2", "--x", x2],
                     ["zeta", "--divisor-sum-only", "--nu", "3", "--x", x3]],
            "power": [n, nu],
            # Spot positions: fractions of the table length, and products of
            # random small factors (so that large d and nonzero b show up).
            "fractions": rng.uniform(0.0, 1.0, self.SPOTS).tolist(),
            "factors": rng.integers(2, 41, (self.SPOTS, 12)).tolist(),
            "power_factors": rng.integers(1, n + 1, (self.SPOTS, nu)).tolist(),
        }

    def observers(self, em, inputs, rec):
        self.captured = []

        def spots(limit: int, products) -> list[int]:
            out = [1 + int(u * limit) for u in inputs["fractions"]]
            for row in products:
                m = 1
                for f in row:
                    if m * f > limit:
                        break
                    m *= f
                out.append(m)
            return [min(m, limit) for m in out]

        def on_divisors(table):
            ms = spots(table.x, inputs["factors"])
            self.captured.append(("d", table.nu, None, rec.current_item(), ms,
                                  table.d[ms].tolist()))

        def on_coefficients(table):
            ms = spots(table.limit, inputs["power_factors"])
            self.captured.append(("b", table.nu, table.N, rec.current_item(), ms,
                                  table.b[ms].tolist()))

        return [(em.zeta, "divisor_table", on_divisors),
                (em.zeta, "power_coefficients", on_coefficients)]

    def run(self, em, inputs, rec):
        fits = []
        for argv in inputs["argv"]:
            with rec.item("growth_fit") as state:
                code, text = run_cli(em, argv)
                state["ok"] = code == 0
            fits.append(text)
        n, nu = inputs["power"]
        with rec.item("power_coefficients"):
            em.zeta.power_coefficients(n, nu)
        return fits

    def check(self, em, inputs, outputs, rec):
        problems, slopes = [], []
        for index, text in enumerate(outputs):
            try:
                fit = json.loads(text)
                sums = fit["sums"]
                ok = (math.isfinite(fit["slope"]) and len(sums) >= 2
                      and all(a < b for a, b in zip(sums, sums[1:])))
                slopes.append(fit["slope"])
            except (ValueError, KeyError, TypeError):
                ok = False
            rec.items[index][2] = rec.items[index][2] and ok
        covered = set()
        for kind, nu, n, item, ms, values in self.captured:
            for m, value in zip(ms, values):
                want = (divisor_count(m, nu) if kind == "d"
                        else bounded_factorizations(m, nu, n))
                if value != want:
                    problems.append(f"{kind}_{nu}({m}) = {value}, expected {want}")
                    if item is not None:
                        rec.items[item][2] = False
            covered.add(kind)
        if covered != {"d", "b"}:
            problems.append(f"spot checks covered only {sorted(covered)}")
        # The criterion-8 slope is reported, not gated.
        return problems, {"fit_slopes": slopes}


WORKLOADS = {w.name: w for w in (VerifyCampaign(), ZetaSweep(),
                                 EngineCrosscheck(), DivisorSieve())}
