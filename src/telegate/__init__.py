"""Verification engine for measurement-based quantum gate patterns.

Simulates entangled-resource + joint-measurement gate constructions
exactly, enumerates every measurement outcome, derives or checks the
outcome corrections, and certifies that each pattern implements its target
gate up to global phase.
"""
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
    project,
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
    "project",
    "save_pattern",
    "select_toffoli_variant",
    "validate_basis",
    "validate_pattern",
    "verify_pattern",
]
