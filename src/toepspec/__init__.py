"""Spectra of randomly perturbed banded Toeplitz matrices.

Library + CLI for studying how vanishing random perturbations regularize the
spectrum of finitely banded Toeplitz matrices toward the symbol's curve
measure: root-geometry classification of the complex plane, determinant
identities and corner expansions, noise ensembles, and reproducible
experiment runners with validation oracles throughout.
"""

from .linalg import (
    LOG_SINGULAR,
    ConvergenceError,
    LogDet,
    SpectrumResult,
    band_logdet,
    eigenvalues,
    haar_unitary,
    hs_norm,
    lu_det,
    lu_logdet,
    singular_values,
    smin,
    stieltjes_from_singvals,
)
from .symbol import (
    BOUNDARY,
    MuASample,
    RootFindingError,
    RootProfile,
    Symbol,
    aberth_roots,
    char_poly_coeffs,
    classify_region,
    limit_logpot,
    region_labels,
    root_profile,
    sample_mu_a,
)
from .toeplitz import (
    bidiagonal_factor_check,
    build,
    build_z,
    interleaved_band,
    moment_lhs,
    moment_rhs,
    trace_word,
    widom_sum,
)
from .noise import (
    NoiseModel,
    corner_delta,
    corner_entries,
    corner_support,
    sample,
    smin_tail_check,
)
from .expansion import (
    anti_conc_experiment,
    bidiag_subdet,
    corner_pk,
    det_sum_decomposition,
    dominance_report,
    perm_sign,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunArtifact,
    ZGrid,
    energy_distance,
    ks_distance,
    perturbation,
    run_esd,
    run_expansion,
    run_logpot,
    run_region_map,
    run_replacement,
    thread_count,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # symbol
    "Symbol",
    "RootProfile",
    "MuASample",
    "BOUNDARY",
    "RootFindingError",
    "char_poly_coeffs",
    "aberth_roots",
    "root_profile",
    "classify_region",
    "region_labels",
    "limit_logpot",
    "sample_mu_a",
    # linalg
    "ConvergenceError",
    "LogDet",
    "LOG_SINGULAR",
    "SpectrumResult",
    "lu_logdet",
    "lu_det",
    "band_logdet",
    "eigenvalues",
    "singular_values",
    "smin",
    "stieltjes_from_singvals",
    "hs_norm",
    "haar_unitary",
    # toeplitz
    "build",
    "build_z",
    "interleaved_band",
    "bidiagonal_factor_check",
    "trace_word",
    "moment_lhs",
    "moment_rhs",
    "widom_sum",
    # noise
    "NoiseModel",
    "sample",
    "corner_support",
    "corner_entries",
    "corner_delta",
    "smin_tail_check",
    # expansion
    "perm_sign",
    "det_sum_decomposition",
    "bidiag_subdet",
    "corner_pk",
    "dominance_report",
    "anti_conc_experiment",
    # harness
    "ConfigError",
    "ZGrid",
    "ExperimentConfig",
    "RunArtifact",
    "energy_distance",
    "ks_distance",
    "thread_count",
    "perturbation",
    "run_esd",
    "run_expansion",
    "run_region_map",
    "run_logpot",
    "run_replacement",
]
