"""zetakit: high-precision Riemann zeta evaluators, prime-tail odd-argument
approximations, evaluation on the line Re(s) = 1, and formula forensics."""

from .bern import Convention, bernoulli
from .errors import (
    AccuracyError,
    ConfigError,
    DegeneracyError,
    DomainError,
    EvaluationError,
    PoleError,
    UsageError,
    ZetakitError,
)
from .forensics import FORMULA_IDS, ForensicsReport
from .lineone import (
    LineOnePoint,
    NormProbe,
    eta_zero_ordinate,
    eta_zero_scan,
    mellin_check,
    uniform_norm_probe,
    zeta_line_one,
    zeta_line_one_flat,
    zeta_line_one_integral,
)
from .numerics import SeriesResult, digamma, hurwitz_zeta
from .oddzeta import (
    EvalRow,
    FRatioSample,
    f_ratio,
    odd_error_table,
    zeta_known_ref,
    zeta_odd_closed,
    zeta_odd_literature,
    zeta_odd_prime,
)
from .primetail import t_closed, t_direct, t_exact
from .zetacore import (
    euler_product,
    zeta_dirichlet,
    zeta_eta_real,
    zeta_even_closed,
    zeta_even_recurrence,
    zeta_negative_int,
    zeta_oracle,
)

__version__ = "0.1.0"
