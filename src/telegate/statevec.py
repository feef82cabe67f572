"""Dense complex state-vector engine.

Conventions used throughout the package:

- A register of n qubits is a complex amplitude array of length 2**n.
- Qubit 0 is the leftmost symbol of a ket string and the most significant
  bit of the amplitude index, so ``|101>`` on three qubits sits at index 5.
- Ket expressions are normalized when built, ignoring declared
  prefactors; a sum already of unit norm is kept as written.
- Measurement removes the measured qubits from the register; the residual
  state lives on the remaining qubits in ascending original order.

All operations are pure functions of their inputs and safe to share across
threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The tolerance table: every threshold a decision reads, by the quantity it
# is compared with. ``verify --tolerance`` overrides FIDELITY_TOL only.
ATOL_ORTHO = 1e-10        # basis overlaps, norm and unitarity deviations, unit moduli
ATOL_AMP = 1e-12          # an amplitude, overlap or amplitude difference below this is zero
ZERO_PROB = 1e-12         # a probability (a map's: its mean branch probability) below this is zero
SUSPICIOUS_PROB = 1e-6    # a probability in [ZERO_PROB, this) is flagged as numerical dust
MIN_GENERIC_AMP = 1e-6    # generic probe states keep every amplitude above this
RANK_TOL = 1e-10          # singular values and column norms below this count as zero
FIDELITY_TOL = 1e-9       # a fidelity shortfall 1 - F up to this counts as equivalence
SPREAD_TOL = 1e-9         # relative spread ||M^dag M - sI||_F / s (s = ||M||_F^2/d) of a unitary M
SUM_TOL = 1e-9            # each input's outcome probabilities sum to 1 within this
SHOWN_AMP = 1e-9          # printed pre-recovery states leave out map entries up to this modulus
WRITTEN_AMP = 1e-14       # pattern documents leave out amplitudes up to this modulus
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


def bits_to_index(bits: str) -> int:
    if bits and not set(bits) <= {"0", "1"}:
        raise UsageError(f"bitstring {bits!r} contains characters other than 0/1")
    return int(bits, 2) if bits else 0


def from_ket_expression(
    num_qubits: int, terms: list[tuple[complex, str]]
) -> StateVector:
    """Sum of coefficient * basis ket, renormalized to unit norm. A sum
    whose computed norm is within 4 machine epsilons of 1 is already a unit
    vector and is kept as written, so a saved state loads back bit for bit.
    The first term at each index is placed, not added to 0.0, which keeps
    the sign of a -0.0 part.

    Raises :class:`DegenerateStateError` if the terms cancel to the zero
    vector.
    """
    amps = np.zeros(1 << num_qubits, dtype=complex)
    placed = set()
    for coeff, bits in terms:
        if len(bits) != num_qubits:
            raise UsageError(
                f"term {bits!r} has length {len(bits)}, expected {num_qubits}"
            )
        i = bits_to_index(bits)
        amps[i] = amps[i] + coeff if i in placed else coeff
        placed.add(i)
    norm = np.linalg.norm(amps)
    if norm < ATOL_AMP:
        raise DegenerateStateError("ket expression sums to the zero vector")
    if abs(norm - 1.0) <= 4 * np.finfo(float).eps:
        return StateVector(num_qubits, amps)
    return StateVector(num_qubits, amps / norm)


def is_unitary(matrix: np.ndarray) -> bool:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    # An entry of modulus over 2 puts a diagonal entry of M^dagger M over 4;
    # refusing it first keeps huge or non-finite entries out of the product.
    if not (np.abs(matrix) <= 2).all():
        return False
    dim = matrix.shape[0]
    return bool(np.allclose(matrix.conj().T @ matrix, np.eye(dim), atol=ATOL_ORTHO))


def check_subset(indices: tuple[int, ...], num_qubits: int) -> tuple[int, ...]:
    """Validate an ordered subset of register positions (0-based, distinct)."""
    indices = tuple(int(q) for q in indices)
    if len(set(indices)) != len(indices):
        raise UsageError(f"qubit subset {indices} contains duplicates")
    for q in indices:
        if not 0 <= q < num_qubits:
            raise UsageError(f"qubit index {q} out of range for {num_qubits} qubits")
    return indices


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

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row, column and value of each nonzero entry of ``vectors``,
        in row-major order: the one reading of the basis's sparsity."""
        rows, cols = np.nonzero(self.vectors != 0)
        return rows, cols, self.vectors[rows, cols]


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


# Bounds each block of overlaps to about this many Gram entries.
_GRAM_ENTRIES = 1 << 16


def validate_basis(basis: MeasurementBasis) -> BasisReport:
    """Report max pairwise overlap, max norm deviation and vector count.

    Norms come from each vector's own nonzero entries, and overlaps from a
    Gram matrix of each block of vectors against every vector from its first
    on that shares one of its nonzero columns, over those columns only: every
    other pair is orthogonal. Failures are report entries, not exceptions.
    """
    vecs = basis.vectors
    count = vecs.shape[0]
    rows, cols, vals = basis.entries
    norms = np.sqrt(np.bincount(rows, weights=vals.real**2 + vals.imag**2, minlength=count))
    step = max(1, _GRAM_ENTRIES // max(count, 1))
    max_overlap = 0.0
    for lo in range(0, count, step):
        start, end = np.searchsorted(rows, [lo, lo + step])
        shared = np.zeros(vecs.shape[1], dtype=bool)
        shared[cols[start:end]] = True
        columns = np.flatnonzero(shared)
        partners = np.flatnonzero(np.bincount(rows[start:][shared[cols[start:]]], minlength=count))
        gram = vecs[lo:lo + step, columns].conj() @ vecs[np.ix_(partners, columns)].T
        gram[np.arange(lo, lo + len(gram))[:, None] == partners] = 0
        max_overlap = max(max_overlap, float(np.abs(gram).max(initial=0.0)))
    return BasisReport(
        num_qubits=basis.num_qubits,
        vector_count=count,
        expected_count=1 << basis.num_qubits,
        max_pairwise_overlap=max_overlap,
        max_norm_deviation=float(np.max(np.abs(norms - 1.0))),
    )
