"""Dense complex state-vector engine.

Conventions used throughout the package:

- A register of n qubits is a complex amplitude array of length 2**n.
- Qubit 0 is the leftmost symbol of a ket string and the most significant
  bit of the amplitude index, so ``|101>`` on three qubits sits at index 5.
- Ket expressions are normalized when built, ignoring declared
  prefactors; a sum already of unit norm is kept as written.
- Measurement removes the measured qubits from the register; the residual
  state lives on the pattern's output wires in output order, not in
  register order (fredkin's outputs, for example, are (7, 15, 11)).

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
FIDELITY_TOL = 1e-9       # 1 - |tr(A^dag B)|/(||A||_F ||B||_F) up to this counts as equivalence
SPREAD_TOL = 1e-9         # relative spread ||M^dag M - sI||_F / s (s = ||M||_F^2/d) of a unitary M
SUM_TOL = 1e-9            # the outcomes' M^dag M sum to I within this, in spectral norm
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
    if abs(norm - 1.0) > 4 * np.finfo(float).eps:
        amps /= norm  # in place: a 22-qubit state is 64 MiB
    return StateVector(num_qubits, amps)


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


# Bounds each product of overlaps to about this many Gram entries.
_GRAM_ENTRIES = 1 << 16


def _components(basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """The component of each vector and of each column: vectors joined
    through shared nonzero columns, labelled by their least vector index.
    A zero column is labelled ``basis.size``, a zero vector is its own
    component, and vectors of different components are orthogonal.

    Min-label propagation between vectors and columns, each round followed
    by one pointer jump, until every entry's vector and column agree: each
    round carries a component's least label at least one vector further, so
    it takes at most ``basis.size`` rounds.
    """
    count = basis.size
    rows, cols, _ = basis.entries
    label = np.arange(count)
    while True:
        column = np.full(basis.vectors.shape[1], count)
        np.minimum.at(column, cols, label[rows])
        reached = column[cols]
        np.minimum.at(label, rows, reached)
        if np.array_equal(label[rows], reached):
            return label, column
        label = label[label]


def _runs(label: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices in label order (stable), and each label's count and
    where its run starts in that order."""
    counts = np.bincount(label, minlength=size)
    return np.argsort(label, kind="stable"), counts, np.cumsum(counts) - counts


def validate_basis(basis: MeasurementBasis) -> BasisReport:
    """Report max pairwise overlap, max norm deviation and vector count.

    Norms come from each vector's own nonzero entries. Overlaps come only
    from within each component (see ``_components``): the components of one
    shape, r vectors over c columns, are stacked and their r x r Gram
    matrices formed in batched products of about ``_GRAM_ENTRIES`` entries
    each, a component with more than that a block of its vectors at a time.
    Failures are report entries, not exceptions.
    """
    vecs = basis.vectors
    count = vecs.shape[0]
    rows, cols, vals = basis.entries
    norms = np.sqrt(np.bincount(rows, weights=vals.real**2 + vals.imag**2, minlength=count))
    label, column = _components(basis)
    roots = np.flatnonzero(label == np.arange(count))
    row_order, heights, row_starts = _runs(label, count)
    col_order, widths, col_starts = _runs(column, count + 1)
    # A component of one vector has no pair to overlap.
    shaped = roots[heights[roots] > 1]
    shaped = shaped[np.lexsort((widths[shaped], heights[shaped]))]
    cuts = np.flatnonzero(np.diff(heights[shaped]) | np.diff(widths[shaped])) + 1
    max_overlap = 0.0
    for same in np.split(shaped, cuts) if len(shaped) else ():
        r, c = int(heights[same[0]]), int(widths[same[0]])
        members = row_order[row_starts[same][:, None] + np.arange(r)]
        places = col_order[col_starts[same][:, None] + np.arange(c)]
        batch = max(1, _GRAM_ENTRIES // (r * r))
        # Every block of rows has the same height, at least 2 (the last one
        # overlaps its neighbour): a one-row product would be a BLAS
        # matrix-vector call, whose sums may round otherwise, and the report
        # must not depend on the budget.
        step = r if r * r <= _GRAM_ENTRIES else max(2, _GRAM_ENTRIES // r)
        for lo in range(0, len(same), batch):
            block = vecs[members[lo:lo + batch, :, None], places[lo:lo + batch, None, :]]
            for top in range(0, r, step):
                top = min(top, r - step)
                gram = block[:, top:top + step].conj() @ block.transpose(0, 2, 1)
                diagonal = np.arange(gram.shape[1])
                gram[:, diagonal, top + diagonal] = 0
                max_overlap = max(max_overlap, float(np.abs(gram).max()))
    return BasisReport(
        num_qubits=basis.num_qubits,
        vector_count=count,
        expected_count=1 << basis.num_qubits,
        max_pairwise_overlap=max_overlap,
        max_norm_deviation=float(np.max(np.abs(norms - 1.0), initial=0.0)),
    )
