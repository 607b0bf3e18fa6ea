"""Identification of linear switched systems from a single trajectory.

The package simulates switched state-space systems with observed
i.i.d. mode signals, estimates Markov parameters by correlating the
output with lagged inputs on matching mode words, realizes a state
space model from a selected square Hankel sub-basis, and evaluates
finite-sample error certificates for the whole pipeline.
"""

from .bounds import (
    CertificateError,
    StabilityCertificate,
    compute_certificate,
    find_P,
    gamma_from_P,
    min_gamma_certificate,
    min_valid_N,
    schur_radius,
)
from .core import (
    LssModel,
    SignalSpec,
    SwitchingDistribution,
    a_word,
    load_model_file,
    p_word,
    save_model_file,
    two_mode_benchmark,
    word_to_str,
)
from .experiment import (
    ExperimentConfig,
    run_experiment,
    write_figures,
    write_results_csv,
)
from .hokalman import (
    Selection,
    SelectionRankError,
    SingularHankelError,
    build_hankels,
    est_err,
    find_selection,
    identify_sample,
    markov_roundtrip,
    realize,
    required_words,
    true_realization,
)
from .markov import empirical_markov_batch, true_markov_map
from .simulate import (
    DivergenceError,
    SimConfig,
    load_trajectory,
    save_trajectory,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "DivergenceError",
    "ExperimentConfig",
    "LssModel",
    "Selection",
    "SelectionRankError",
    "SignalSpec",
    "SimConfig",
    "SingularHankelError",
    "StabilityCertificate",
    "SwitchingDistribution",
    "a_word",
    "build_hankels",
    "compute_certificate",
    "empirical_markov_batch",
    "est_err",
    "find_P",
    "find_selection",
    "gamma_from_P",
    "identify_sample",
    "load_model_file",
    "load_trajectory",
    "markov_roundtrip",
    "min_gamma_certificate",
    "min_valid_N",
    "p_word",
    "realize",
    "required_words",
    "run_experiment",
    "save_model_file",
    "save_trajectory",
    "schur_radius",
    "simulate",
    "true_markov_map",
    "true_realization",
    "two_mode_benchmark",
    "word_to_str",
    "write_figures",
    "write_results_csv",
]
