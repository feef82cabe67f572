"""Reference helpers the tests compare the engine against."""
import json

import numpy as np

from telegate import statevec as sv
from telegate.patterns import CorrectionTable, GatePattern, format_key


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
