"""Reference helpers the tests compare the engine against."""
import io
import json

import numpy as np

from telegate import statevec as sv
from telegate.patterns import CorrectionTable, GatePattern, format_key, pattern_to_document


def patterns_equal(a: GatePattern, b: GatePattern, atol: float = sv.ATOL_AMP) -> bool:
    """Structural equality up to amplitude tolerance (names ignored)."""
    if (
        a.num_qubits != b.num_qubits
        or a.input_wires != b.input_wires
        or a.output_wires != b.output_wires
        or len(a.resources) != len(b.resources)
        or len(a.groups) != len(b.groups)
    ):
        return False
    for (qa, sa), (qb, sb) in zip(a.resources, b.resources):
        if qa != qb or not np.allclose(sa.amps, sb.amps, atol=atol):
            return False
    for ga, gb in zip(a.groups, b.groups):
        if ga.qubits != gb.qubits or ga.labels != gb.labels:
            return False
        if not np.allclose(ga.basis.vectors, gb.basis.vectors, atol=atol):
            return False
    return bool(np.allclose(a.target, b.target, atol=atol))


def project(
    state: sv.StateVector, basis_vector: sv.StateVector, measured: tuple[int, ...]
) -> tuple[float, sv.StateVector | None]:
    """Project the measured qubits onto ``basis_vector``, one state at a time.

    Returns the outcome probability and the renormalized residual state on
    the unmeasured qubits (in ascending original order), or ``None`` when the
    probability falls below the zero threshold (a legal, flagged outcome).
    """
    n = state.num_qubits
    measured = sv.check_subset(measured, n)
    if basis_vector.num_qubits != len(measured):
        raise sv.UsageError(
            f"basis vector on {basis_vector.num_qubits} qubits cannot measure "
            f"{len(measured)} qubits"
        )
    t = state.amps.reshape([2] * n)
    t = np.moveaxis(t, measured, range(len(measured)))
    mat = t.reshape(basis_vector.dim, -1)
    residual = basis_vector.amps.conj() @ mat
    prob = float(np.real(np.vdot(residual, residual)))
    if prob <= sv.ZERO_PROB:
        return prob, None
    post = residual / np.sqrt(prob)
    return prob, sv.StateVector(n - len(measured), np.ascontiguousarray(post))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def table_to_doc(name: str, cells: list, diff_docs: dict | None = None, footer: str = "") -> dict:
    """A correction table's document, from its (key text, op rendering) cells."""
    doc = {
        "kind": "correction-table",
        "name": name,
        "entries": [{"labels": key, "op": op} for key, op in cells],
    }
    if diff_docs:
        doc["diffs"] = diff_docs
    if footer:
        doc["footer"] = footer
    return doc


def table_json(name: str, table: CorrectionTable, num_wires: int, diff_docs=None, footer="") -> str:
    """A correction table's JSON written as one document, cells in sorted
    key order: the bytes the streamed table writer must reproduce."""
    cells = [(format_key(key), op.render(num_wires)) for key, op in sorted(table.items())]
    return json.dumps(table_to_doc(name, cells, diff_docs, footer), indent=1, sort_keys=True)


def ragged_basis() -> sv.MeasurementBasis:
    """The Haar wavelet basis of 3 qubits, two rows rephased and the rows
    shuffled: its rows hold 2, 8, 4, 2, 8, 2, 4 and 2 nonzeros."""
    haar = np.zeros((8, 8), dtype=complex)
    haar[0] = 1 / np.sqrt(8)
    haar[1] = np.repeat([1, -1], 4) / np.sqrt(8)
    haar[2, :4] = haar[3, 4:] = np.repeat([1, -1], 2) / 2
    for i in range(4):
        haar[4 + i, 2 * i:2 * i + 2] = [1 / np.sqrt(2), -1 / np.sqrt(2)]
    haar[3] *= 1j
    haar[5] *= -1
    return sv.MeasurementBasis(3, haar[[4, 0, 2, 5, 1, 6, 3, 7]])


def argsort_plan(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The contraction's nonzero plan from a stable argsort of each row's
    zero mask: each row's nonzero columns, then its zero columns, in column
    order, cut to the widest row's nonzero count; and the conjugated
    coefficients there."""
    nonzero = vectors != 0
    width = max(1, int(nonzero.sum(axis=1).max()))
    index = np.argsort(~nonzero, axis=1, kind="stable")[:, :width].copy()
    coeffs = np.take_along_axis(vectors, index, axis=1).conj()[:, :, None]
    return index, coeffs


def pattern_file_text(pattern: GatePattern) -> str:
    """A pattern file's text written as one document by ``json.dump``, plus
    a newline: the bytes the streamed pattern writer must reproduce."""
    fh = io.StringIO()
    json.dump(pattern_to_document(pattern), fh, indent=1, sort_keys=True)
    fh.write("\n")
    return fh.getvalue()
