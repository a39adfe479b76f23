"""One-bit compressed sensing reconstruction, benchmarking, and theory probes.

Recover s-sparse unit signals from the signs of Gaussian linear measurements
(normalized and plain binary iterative hard thresholding, the one-shot linear
estimator, and the classical linear-measurement baseline), sweep the number of
measurements to benchmark error decay, and empirically probe the analytic
ingredients the guarantees rest on.
"""

__version__ = "0.1.0"

from .algorithms import (
    DEFAULT_TAU,
    AlgorithmConfig,
    IterateTrace,
    biht_run,
    iht_run,
    nbiht_run,
    nbiht_step,
    one_shot_estimate,
)
from .errors import DegenerateIterateError, InvalidArgumentError, SamplingExhaustedError
from .harness import (
    RunManifest,
    SweepConfig,
    SweepRecord,
    fit_slope,
    run_from_manifest,
    run_sweep,
)
from .model import (
    BinaryObservation,
    MeasurementEnsemble,
    SparseVector,
    UnitSparseVector,
    gen_gaussian_matrix,
    gen_sparse_signal,
    linear_measurements,
    measure,
    sign_quantize,
)
from .probes import (
    RaicProbeConfig,
    RaicProbeResult,
    check_embedding,
    check_unbiasedness,
    decomposition_check,
    gaussian_width_estimate,
    projection_inequality_check,
    raic_probe,
)
from .rng import generator_for, substream_seed
from .sparse_ops import (
    geodesic_distance,
    hamming_distance,
    hard_threshold,
    normalize,
    sparse_dual_norm,
)
from .theory import ScheduleConstants, TheorySchedule, error_exponent, theory_schedule

__all__ = [
    "AlgorithmConfig",
    "BinaryObservation",
    "DEFAULT_TAU",
    "DegenerateIterateError",
    "InvalidArgumentError",
    "IterateTrace",
    "MeasurementEnsemble",
    "RaicProbeConfig",
    "RaicProbeResult",
    "RunManifest",
    "SamplingExhaustedError",
    "ScheduleConstants",
    "SparseVector",
    "SweepConfig",
    "SweepRecord",
    "TheorySchedule",
    "UnitSparseVector",
    "biht_run",
    "check_embedding",
    "check_unbiasedness",
    "decomposition_check",
    "error_exponent",
    "fit_slope",
    "gaussian_width_estimate",
    "gen_gaussian_matrix",
    "gen_sparse_signal",
    "generator_for",
    "geodesic_distance",
    "hamming_distance",
    "hard_threshold",
    "iht_run",
    "linear_measurements",
    "measure",
    "nbiht_run",
    "nbiht_step",
    "normalize",
    "one_shot_estimate",
    "projection_inequality_check",
    "raic_probe",
    "run_from_manifest",
    "run_sweep",
    "sign_quantize",
    "sparse_dual_norm",
    "substream_seed",
    "theory_schedule",
]
