"""Every package attribute that the benchmark harness calls or wraps.

benchmarks/layers.py installs its wrappers with Recorder.patch, which
skips an absent attribute without saying so, and its hooks read call
arguments by name; benchmarks/workloads.py calls some of the same functions
directly.  A rename would silently empty the benchmark's counters or break
a workload, so it fails here first.
"""
import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import expmoment as em

# (module, attribute, argument names that the benchmark's hooks read)
SURFACE = [
    ("verify", "check_theorem1", ()),
    ("verify", "check_lemma", ()),
    ("verify", "check_eq45", ()),
    ("verify", "check_sup_chain", ()),
    ("verify", "check_ingham_mordell", ()),
    ("verify", "check_bohr_bound", ()),
    ("verify", "VerificationReport", ()),
    ("zeta", "corollary_lower_bound", ()),
    ("evaluate", "power_on_array", ("source", "ts")),
    ("quadrature", "windowed_average", ("source", "q", "window")),
    ("quadrature", "fejer_weighted_integral", ("source", "q", "params")),
    ("quadrature", "bandlimit", ("source", "q")),
    ("spectral", "expand", ("source", "q")),
    ("spectral", "rational_mode_expand", ("source", "q")),
    ("spectral", "integral_exact", ()),
    ("spectral", "fejer_weighted_exact", ()),
    ("rademacher", "exact_even_moment", ("values", "q")),
    ("rademacher", "exhaustive_moment", ("values", "q")),
    ("zeta", "divisor_table", ()),
    ("zeta", "power_coefficients", ()),
    ("zeta", "growth_fit", ()),
    ("cli", "main", ()),
]


@pytest.mark.parametrize("module, attr, args", SURFACE,
                         ids=[f"{m}.{a}" for m, a, _ in SURFACE])
def test_benchmark_attribute_resolves(module, attr, args):
    fn = getattr(importlib.import_module(f"expmoment.{module}"), attr)
    assert callable(fn)
    assert set(args) <= set(inspect.signature(fn).parameters)


def test_benchmark_fields_resolve():
    assert isinstance(em.quadrature.DEFAULT_CONFIG.gauss_order, int)
    for table, names in ((em.zeta.DivisorTable, {"nu", "x", "d"}),
                         (em.zeta.CoefficientTable, {"nu", "N", "limit", "b"})):
        assert names <= {f.name for f in dataclasses.fields(table)}
    for name in ("Instance", "Window", "NotConvergedError", "TermBudgetExceededError"):
        assert hasattr(em.core, name)
    # The hooks read ts.size and source.size off power_on_array's arguments,
    # metadata["panels"] off the integrators' results, and params.T and
    # window.half_width off their arguments; Recorder._count takes an
    # AttributeError or KeyError there for a hook error, not a failure.
    inst = em.validate_instance([1.0, 0.5], [0.0, 1.3])
    coeffs = em.dominated_coefficients([1.0, -0.5j], inst)
    grid = em.evaluate.Grid(np.arange(3.0), em.evaluate.Grid(np.arange(2.0), np.zeros(4)))
    assert (grid.size, inst.size, coeffs.size) == (24, 2, 2)
    window, params = em.Window(0.0, 2.0), em.KernelParams(2.0, 0.5)
    assert (window.half_width, params.T) == (2.0, 2.0)
    for result in (em.windowed_average(inst, 2, window),
                   em.fejer_weighted_integral(coeffs, 2, params),
                   em.windowed_average(em.validate_instance([1.0], [0.0]), 2, window)):
        assert isinstance(result.metadata["panels"], int)
