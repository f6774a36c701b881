"""Coarray DOA estimation on sparse linear arrays.

Array geometries and their difference coarrays, snapshot simulation,
direct-augmentation and spatial-smoothing MUSIC, closed-form asymptotic
MSE and Cramer-Rao bounds, and a config-driven Monte Carlo harness that
checks the closed forms against simulation.
"""

__version__ = '0.1.0'

from .geometry import (
    ArrayGeometry,
    CoarrayStructure,
    coprime,
    custom,
    difference_coarray,
    make_array,
    mra,
    nested,
    selection_matrix,
    ula,
)
from .model import (
    SourceScenario,
    sample_covariance,
    simulate_snapshots,
    steering_matrix,
    steering_vector,
    true_covariance,
    unvec,
    vec,
    virtual_observation,
)
from .estimator import (
    DoaEstimate,
    augment_direct,
    augment_spatial_smoothing,
    estimate_doas,
    noise_subspace,
    run_music,
)
from .analysis import (
    CrbReport,
    CrbUndefined,
    ErrorTerms,
    NumericalFailure,
    analytical_mse,
    crb,
    efficiency_kappa,
    error_terms,
    limiting_mse,
    model_jacobian,
    resolution_predict,
    resolution_threshold,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    emit_outputs,
    fifty_percent_crossing,
    load_config,
    run,
    run_trials,
)

__all__ = [
    '__version__',
    'ArrayGeometry', 'CoarrayStructure', 'ula', 'nested', 'coprime', 'mra',
    'custom', 'make_array', 'difference_coarray', 'selection_matrix',
    'SourceScenario', 'vec', 'unvec', 'steering_vector',
    'steering_matrix', 'true_covariance', 'simulate_snapshots',
    'sample_covariance', 'virtual_observation',
    'DoaEstimate', 'augment_direct', 'augment_spatial_smoothing',
    'noise_subspace', 'estimate_doas', 'run_music',
    'ErrorTerms', 'CrbReport', 'NumericalFailure', 'CrbUndefined',
    'error_terms', 'analytical_mse', 'limiting_mse', 'model_jacobian',
    'crb', 'efficiency_kappa', 'resolution_predict', 'resolution_threshold',
    'ExperimentConfig', 'TrialRecord', 'ConfigError', 'load_config',
    'run', 'run_trials', 'emit_outputs', 'fifty_percent_crossing',
]
