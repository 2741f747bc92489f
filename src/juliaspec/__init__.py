"""Stochastic adding machines over mixed-radix numeration and the spectra of
their transition operators, computed through fibered polynomial dynamics.

Quick tour::

    from juliaspec import canonical_config, classify, parse_space

    rc = canonical_config("dendrite")      # d ≡ 2, p ≡ 1/2
    verdict = classify(rc.system(), 1.0, parse_space("c"))
    print(verdict.membership, verdict.part)

Modules
-------
numeration   mixed-radix digit arithmetic (place values, counters)
sequences    closed-form parameter sequences p̄, d̄ and their tail analysis
chain        the Markov chain: exact transition rows, simulation, recurrence
dynamics     fiber maps, escape tests, eigenvector factors, preimage trees
spectra      per-space spectral classification with certificates
operator     finite truncations, Weyl defect vectors, eigenvalue clouds
render       raster escape fields, connectivity, PPM/CSV artifacts
config       JSON run configuration and its validation
canonical    the five packaged example configurations
verify       cross-module invariant suite with deterministic artifacts
cli          command-line entry points
"""

from .canonical import CANONICAL_NAMES, all_canonical, canonical_config
from .chain import ChainConfig, Recurrence, ReturnStatistics, TransitionRow
from .config import RunConfig, load_config_file, parse_config
from .dynamics import (
    RHO,
    EscapeOutcome,
    FactorTrace,
    FiberedSystem,
    TraceStatus,
    escape_classify,
    factor_trace,
    factor_values,
    preimages,
    residual_set,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    JuliaspecError,
    NotIrreducibleError,
    VerificationError,
)
from .numeration import BaseSequence, DigitExpansion
from .operator import (
    SparseTruncation,
    WeylDefect,
    build_truncation,
    truncated_eigenvalues,
    weyl_defect,
)
from .render import EscapeField, GridSpec, component_of_zero, render_field, write_image
from .sequences import (
    SequenceSpec,
    constant,
    geometric,
    harmonic,
    periodic,
    prefix_then,
    random_base,
    random_uniform,
)
from .spectra import (
    C,
    C0,
    L_INF,
    Membership,
    Space,
    SpectralPart,
    SpectralVerdict,
    classify,
    l_alpha,
    parse_space,
    point_c,
    point_c0,
    point_lalpha,
    residual_l1,
    spectrum_membership,
    spectrum_summary,
)

__version__ = "0.1.0"

__all__ = [
    "BaseSequence",
    "BudgetExceededError",
    "C",
    "C0",
    "CANONICAL_NAMES",
    "ChainConfig",
    "ConfigError",
    "DigitExpansion",
    "EscapeField",
    "EscapeOutcome",
    "FactorTrace",
    "FiberedSystem",
    "GridSpec",
    "JuliaspecError",
    "L_INF",
    "Membership",
    "NotIrreducibleError",
    "RHO",
    "Recurrence",
    "ReturnStatistics",
    "RunConfig",
    "SequenceSpec",
    "Space",
    "SparseTruncation",
    "SpectralPart",
    "SpectralVerdict",
    "TraceStatus",
    "TransitionRow",
    "VerificationError",
    "WeylDefect",
    "all_canonical",
    "build_truncation",
    "canonical_config",
    "classify",
    "component_of_zero",
    "constant",
    "escape_classify",
    "factor_trace",
    "factor_values",
    "geometric",
    "harmonic",
    "l_alpha",
    "load_config_file",
    "parse_config",
    "parse_space",
    "periodic",
    "point_c",
    "point_c0",
    "point_lalpha",
    "prefix_then",
    "preimages",
    "random_base",
    "random_uniform",
    "render_field",
    "residual_l1",
    "residual_set",
    "spectrum_membership",
    "spectrum_summary",
    "truncated_eigenvalues",
    "verify",
    "weyl_defect",
    "write_image",
]

from . import verify  # noqa: E402  (re-exported as a namespace for run_verify)
