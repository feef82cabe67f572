"""Verification engine for measurement-based quantum gate patterns.

Simulates entangled-resource + joint-measurement gate constructions
exactly, enumerates every measurement outcome, derives or checks the
outcome corrections, and certifies that each pattern implements its target
gate up to global phase.
"""
import os as _os
import sys as _sys

# numpy's bundled OpenBLAS starts a worker thread when it loads, and an idle
# worker busy-waits about 2**28 cycles (about 0.1 s of CPU) before it
# sleeps. telegate's products are too small for OpenBLAS to hand any of them
# to a second thread, so every short run paid that spin for nothing. The
# timeout's minimum, 4, puts idle workers to sleep at once. It is read only
# when OpenBLAS loads, so it is set around numpy's first import and removed
# afterwards: os.environ and child processes see the caller's environment
# unchanged. The thread count stays OpenBLAS's default, and a timeout the
# caller set, or a numpy imported before telegate, is left alone.
if "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .catalog import build_pattern, catalog_entries
from .oracle import (
    DEFAULT_SEED,
    DerivationError,
    DerivationFailures,
    MissingCorrectionError,
    compare_tables,
    correction_dictionary,
    derive_corrections,
    derive_corrections_with_failures,
    detect_information_loss,
    enumerate_outcomes,
    outcome_maps,
    parameterized_phase_check,
    parity_experiment,
    phase_parameter_grid_search,
    select_toffoli_variant,
    verify_pattern,
)
from .patterns import (
    CorrectionOp,
    CorrectionTable,
    GatePattern,
    MeasurementGroup,
    OutcomeLayout,
    PatternFormatError,
    load_pattern,
    save_pattern,
    validate_pattern,
)
from .statevec import (
    DegenerateStateError,
    MeasurementBasis,
    StateVector,
    UsageError,
    from_ket_expression,
    validate_basis,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "CorrectionOp",
    "CorrectionTable",
    "DegenerateStateError",
    "DerivationError",
    "DerivationFailures",
    "GatePattern",
    "MeasurementBasis",
    "MeasurementGroup",
    "MissingCorrectionError",
    "OutcomeLayout",
    "PatternFormatError",
    "StateVector",
    "UsageError",
    "build_pattern",
    "catalog_entries",
    "compare_tables",
    "correction_dictionary",
    "derive_corrections",
    "derive_corrections_with_failures",
    "detect_information_loss",
    "enumerate_outcomes",
    "from_ket_expression",
    "load_pattern",
    "outcome_maps",
    "parameterized_phase_check",
    "parity_experiment",
    "phase_parameter_grid_search",
    "save_pattern",
    "select_toffoli_variant",
    "validate_basis",
    "validate_pattern",
    "verify_pattern",
]
