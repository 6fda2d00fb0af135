"""Windowed 2q-th moments of exponential sums S(t) = sum_n a_n e^{it phi_n},
computed by three mutually checking methods (oscillatory quadrature, exact
spectral expansion, Rademacher randomization), plus numerical verification
of the associated moment inequalities and the divisor-sum lower bound for
partial sums of zeta on the critical line.
"""

from .core import (
    ComplexCoefficients,
    ExpMomentError,
    Instance,
    MomentResult,
    Window,
    dominated_coefficients,
    validate_instance,
)
from .evaluate import eval_sum
from .fejer import KernelParams, kernel_hat, kernel_value
from .quadrature import (
    QuadratureConfig,
    bandlimit,
    fejer_weighted_integral,
    windowed_abs_average,
    windowed_average,
)
from .rademacher import exact_even_moment, exhaustive_moment
from .spectral import (
    SpectralExpansion,
    expand,
    fejer_weighted_exact,
    integral_exact,
    limit_moment,
    rational_mode_expand,
)
from .verify import (
    VerificationReport,
    check_bohr_bound,
    check_eq45,
    check_ingham_mordell,
    check_lemma,
    check_sup_chain,
    check_theorem1,
)
from .zeta import (
    CoefficientTable,
    DivisorTable,
    corollary_lower_bound,
    divisor_sum,
    divisor_table,
    growth_fit,
    power_coefficients,
    zeta_instance,
)

__version__ = "0.1.0"
