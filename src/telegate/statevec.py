"""Dense complex state-vector engine.

Conventions used throughout the package:

- A register of n qubits is a complex amplitude array of length 2**n.
- Qubit 0 is the leftmost symbol of a ket string and the most significant
  bit of the amplitude index, so ``|101>`` on three qubits sits at index 5.
- States are renormalized on construction; declared prefactors of ket
  expressions are ignored (the physics is invariant to normalization).
- Measurement removes the measured qubits from the register; the residual
  state lives on the remaining qubits in ascending original order (see
  :func:`project`).

All operations are pure functions of their inputs and safe to share across
threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOL_ORTHO = 1e-10      # orthonormality / unitarity tolerance
ATOL_PROB = 1e-12       # below this a projection probability counts as zero
MAX_REGISTER_QUBITS = 22  # widest register simulated densely (chain-cz n=8)


class UsageError(ValueError):
    """An operation was called with arguments violating its contract."""


class DegenerateStateError(ValueError):
    """A ket expression summed to the zero vector and cannot be normalized."""


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of ``num_qubits`` qubits."""

    num_qubits: int
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def _as_state(num_qubits: int, amps: np.ndarray) -> StateVector:
    amps = np.ascontiguousarray(amps, dtype=complex)
    if amps.shape != (1 << num_qubits,):
        raise UsageError(
            f"amplitude array of length {amps.size} does not fit {num_qubits} qubits"
        )
    return StateVector(num_qubits, amps)


def bits_to_index(bits: str) -> int:
    if bits and not set(bits) <= {"0", "1"}:
        raise UsageError(f"bitstring {bits!r} contains characters other than 0/1")
    return int(bits, 2) if bits else 0


def from_ket_expression(
    num_qubits: int, terms: list[tuple[complex, str]]
) -> StateVector:
    """Sum of coefficient * basis ket, renormalized to unit norm.

    Raises :class:`DegenerateStateError` if the terms cancel to the zero
    vector.
    """
    amps = np.zeros(1 << num_qubits, dtype=complex)
    for coeff, bits in terms:
        if len(bits) != num_qubits:
            raise UsageError(
                f"term {bits!r} has length {len(bits)}, expected {num_qubits}"
            )
        amps[bits_to_index(bits)] += coeff
    norm = np.linalg.norm(amps)
    if norm < ATOL_PROB:
        raise DegenerateStateError("ket expression sums to the zero vector")
    return StateVector(num_qubits, amps / norm)


def is_unitary(matrix: np.ndarray, atol: float = ATOL_ORTHO) -> bool:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    dim = matrix.shape[0]
    return bool(np.allclose(matrix.conj().T @ matrix, np.eye(dim), atol=atol))


def check_subset(indices: tuple[int, ...], num_qubits: int) -> tuple[int, ...]:
    """Validate an ordered subset of register positions (0-based, distinct)."""
    indices = tuple(int(q) for q in indices)
    if len(set(indices)) != len(indices):
        raise UsageError(f"qubit subset {indices} contains duplicates")
    for q in indices:
        if not 0 <= q < num_qubits:
            raise UsageError(f"qubit index {q} out of range for {num_qubits} qubits")
    return indices


def project(
    state: StateVector, basis_vector: StateVector, measured: tuple[int, ...]
) -> tuple[float, StateVector | None]:
    """Project the measured qubits onto ``basis_vector``.

    Returns the outcome probability and the renormalized residual state on
    the unmeasured qubits (in ascending original order), or ``None`` when the
    probability falls below the zero threshold (a legal, flagged outcome).
    """
    n = state.num_qubits
    measured = check_subset(measured, n)
    if basis_vector.num_qubits != len(measured):
        raise UsageError(
            f"basis vector on {basis_vector.num_qubits} qubits cannot measure "
            f"{len(measured)} qubits"
        )
    t = state.amps.reshape([2] * n)
    t = np.moveaxis(t, measured, range(len(measured)))
    mat = t.reshape(basis_vector.dim, -1)
    residual = basis_vector.amps.conj() @ mat
    prob = float(np.real(np.vdot(residual, residual)))
    if prob <= ATOL_PROB:
        return prob, None
    post = residual / np.sqrt(prob)
    return prob, StateVector(n - len(measured), np.ascontiguousarray(post))


@dataclass(frozen=True)
class MeasurementBasis:
    """Complete orthonormal joint-measurement basis over k qubits.

    ``vectors`` holds one basis vector per row, shape (2**k, 2**k) when
    complete.
    """

    num_qubits: int
    vectors: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def vector(self, index: int) -> StateVector:
        return _as_state(self.num_qubits, self.vectors[index])


def basis_from_states(states: list[StateVector]) -> MeasurementBasis:
    k = states[0].num_qubits
    for s in states:
        if s.num_qubits != k:
            raise UsageError("basis vectors must all act on the same qubit count")
    return MeasurementBasis(k, np.array([s.amps for s in states], dtype=complex))


@dataclass(frozen=True)
class BasisReport:
    """Orthonormality/completeness diagnostics for a measurement basis."""

    num_qubits: int
    vector_count: int
    expected_count: int
    max_pairwise_overlap: float
    max_norm_deviation: float

    @property
    def passed(self) -> bool:
        return (
            self.vector_count == self.expected_count
            and self.max_pairwise_overlap <= ATOL_ORTHO
            and self.max_norm_deviation <= ATOL_ORTHO
        )


def validate_basis(basis: MeasurementBasis) -> BasisReport:
    """Report max pairwise overlap, max norm deviation and vector count.

    Failures are report entries, not exceptions.
    """
    vecs = basis.vectors
    gram = vecs.conj() @ vecs.T
    norms = np.sqrt(np.real(np.diag(gram)))
    off_diag = np.abs(gram - np.diag(np.diag(gram)))
    max_overlap = float(off_diag.max()) if vecs.shape[0] > 1 else 0.0
    max_norm_dev = float(np.max(np.abs(norms - 1.0)))
    return BasisReport(
        num_qubits=basis.num_qubits,
        vector_count=vecs.shape[0],
        expected_count=1 << basis.num_qubits,
        max_pairwise_overlap=max_overlap,
        max_norm_deviation=max_norm_dev,
    )
