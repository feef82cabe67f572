"""Reference correction tables shipped with the catalog.

Each table maps joint-measurement outcomes to the recovery operation that
completes the gate. Cells use a compact notation: per-wire factor chains in
matrix order joined by ``.``, wires joined by `` x ``, and an optional
``Ucz(...)`` wrapper for a controlled-Z composed on the output pair. A bare
``I`` is the identity on all output wires.

The controlled-phase table is stored exactly as printed in the reference
material; its printed layout is transposed relative to its own row/column
caption (see ``oracle.compare_tables`` callers, which check both readings).
"""
from __future__ import annotations

from itertools import product

import numpy as np

from .patterns import CorrectionOp, CorrectionTable, PatternFormatError


def parse_correction(cell: str) -> CorrectionOp:
    """Parse compact cell notation like ``Ucz(sz.Up x I)`` or ``sx x sz.sx``."""
    text = cell.strip()
    cz = False
    if text.startswith("Ucz(") and text.endswith(")"):
        cz = True
        text = text[4:-1]
    chains = [chunk.strip() for chunk in text.split(" x ")]
    tails = []
    for chain in chains:
        names = tuple(chain.split("."))
        for name in names:
            if name not in {"I", "sx", "sz", "Up"}:
                raise PatternFormatError(f"unknown factor {name!r} in cell {cell!r}")
        tails.append(names)
    if len(tails) == 1 and tails[0] == ("I",) and not cz:
        return CorrectionOp.identity()
    return CorrectionOp.from_wire_products(tuple(tails), cz_pairs=((0, 1),) if cz else ())


def _single_wire_table(cells: list[str]) -> CorrectionTable:
    entries = {((k + 1,),): parse_correction(cell) for k, cell in enumerate(cells)}
    return CorrectionTable(entries)


def _grid_table(
    row_labels: list[tuple],
    col_labels: list[tuple],
    rows: list[list[str]],
    key_of,
) -> CorrectionTable:
    entries = {}
    for r, row in enumerate(rows):
        if len(row) != len(col_labels):
            raise PatternFormatError(f"table row {r} has {len(row)} cells")
        for c, cell in enumerate(row):
            entries[key_of(row_labels[r], col_labels[c])] = parse_correction(cell)
    return CorrectionTable(entries)


def _bit_sign_labels(bits: int) -> list[tuple]:
    return [(*b, s) for b in product((0, 1), repeat=bits) for s in ("+", "-")]


# Recovery column of the single-qubit phase-gate construction, outcomes 1..4.
def phase_table() -> CorrectionTable:
    return _single_wire_table(["sz", "I", "sz.sx", "sx"])


# Pre-correction output of each phase-gate outcome as a map (a, b) -> amplitudes.
PHASE_TABLE_STATES = [
    np.array([[1, 0], [0, -1j]], dtype=complex),
    np.array([[1, 0], [0, 1j]], dtype=complex),
    np.array([[0, -1j], [1, 0]], dtype=complex),
    np.array([[0, 1j], [1, 0]], dtype=complex),
]


def pi8_table() -> CorrectionTable:
    return _single_wire_table(["I", "sz", "sx", "sz.sx"])


_E = np.exp(1j * np.pi / 4)
_F = np.exp(-3j * np.pi / 4)
PI8_TABLE_STATES = [
    np.array([[1, 0], [0, _E]], dtype=complex),
    np.array([[1, 0], [0, _F]], dtype=complex),
    np.array([[0, _E], [1, 0]], dtype=complex),
    np.array([[0, _F], [1, 0]], dtype=complex),
]


# Controlled-NOT recovery grid. Printed rows carry the 3-bit group labels and
# printed columns the 4-bit group labels; keys are (alpha, beta).
_CNOT_ROWS = [
    # (0,0,0,+) .. (0,1,1,-) then (1,0,0,+) .. (1,1,1,-)
    ["I", "sz x I", "sx x I", "sz.sx x I", "I x sz", "sz x sz", "sx x sz", "sz.sx x sz",
     "sx x sx", "sz.sx x sx", "I x sx", "sz x sx", "sx x sz.sx", "sz.sx x sz.sx", "I x sz.sx", "sz x sz.sx"],
    ["I x sz", "sz x sz", "sx x sz", "sz.sx x sz", "I", "sz x I", "sx x I", "sz.sx x I",
     "sx x sz.sx", "sz.sx x sz.sx", "I x sz.sx", "sz x sz.sx", "sx x sx", "sz.sx x sx", "I x sx", "sz x sx"],
    ["sz x I", "I", "sz.sx x I", "sx x I", "sz x sz", "I x sz", "sz.sx x sz", "sx x sz",
     "sz.sx x sx", "sx x sx", "sz x sx", "I x sx", "sz.sx x sz.sx", "sx x sz.sx", "sz x sz.sx", "I x sz.sx"],
    ["sz x sz", "I x sz", "sz.sx x sz", "sx x sz", "sz x I", "I", "sz.sx x I", "sx x I",
     "sz.sx x sz.sx", "sx x sz.sx", "sz x sz.sx", "I x sz.sx", "sz.sx x sx", "sx x sx", "sz x sx", "I x sx"],
    ["I x sx", "sz x sx", "sx x sx", "sz.sx x sx", "I x sz.sx", "sz x sz.sx", "sx x sz.sx", "sz.sx x sz.sx",
     "sx x I", "sz.sx x I", "I", "sz x I", "sx x sz", "sz.sx x sz", "I x sz", "sz x sz"],
    ["I x sz.sx", "sz x sz.sx", "sx x sz.sx", "sz.sx x sz.sx", "I x sx", "sz x sx", "sx x sx", "sz.sx x sx",
     "sx x sz", "sz.sx x sz", "I x sz", "sz x sz", "sx x I", "sz.sx x I", "I", "sz x I"],
    ["sz x sx", "I x sx", "sz.sx x sx", "sx x sx", "sz x sz.sx", "I x sz.sx", "sz.sx x sz.sx", "sx x sz.sx",
     "sz.sx x I", "sx x I", "sz x I", "I", "sz.sx x sz", "sx x sz", "sz x sz", "I x sz"],
    ["sz x sz.sx", "I x sz.sx", "sz.sx x sz.sx", "sx x sz.sx", "sz x sx", "I x sx", "sz.sx x sx", "sx x sx",
     "sz.sx x sz", "sx x sz", "sz x sz", "I x sz", "sz.sx x I", "sx x I", "sz x I", "I"],
]


def cnot_table() -> CorrectionTable:
    return _grid_table(
        _bit_sign_labels(2),
        _bit_sign_labels(3),
        _CNOT_ROWS,
        key_of=lambda beta, alpha: (alpha, beta),
    )


_SWAP_ROWS = [
    ["I", "sz x I", "I x sx", "sz x sx", "I x sz", "sz x sz", "I x sz.sx", "sz x sz.sx",
     "I x sx", "sz x sx", "I", "sz x I", "I x sz.sx", "sz x sz.sx", "I x sz", "sz x sz"],
    ["I x sz", "sz x sz", "I x sz.sx", "sz x sz.sx", "I", "sz x I", "I x sx", "sz x sx",
     "I x sz.sx", "sz x sz.sx", "I x sz", "sz x sz", "I x sx", "sz x sx", "I", "sz x I"],
    ["sz x I", "I", "sz x sx", "I x sx", "sz x sz", "I x sz", "sz x sz.sx", "I x sz.sx",
     "sz x sx", "I x sx", "sz x I", "I", "sz x sz.sx", "I x sz.sx", "sz x sz", "I x sz"],
    ["sz x sz", "I x sz", "sz x sz.sx", "I x sz.sx", "sz x I", "I", "sz x sx", "I x sx",
     "sz x sz.sx", "I x sz.sx", "sz x sz", "I x sz", "sz x sx", "I x sx", "sz x I", "I"],
    ["sx x I", "sz.sx x I", "sx x sx", "sz.sx x sx", "sx x sz", "sz.sx x sz", "sx x sz.sx", "sz.sx x sz.sx",
     "sx x sx", "sz.sx x sx", "sx x I", "sz.sx x I", "sx x sz.sx", "sz.sx x sz.sx", "sx x sz", "sz.sx x sz"],
    ["sx x sz", "sz.sx x sz", "sx x sz.sx", "sz.sx x sz.sx", "sx x I", "sz.sx x I", "sx x sx", "sz.sx x sx",
     "sx x sz.sx", "sz.sx x sz.sx", "sx x sz", "sz.sx x sz", "sx x sx", "sz.sx x sx", "sx x I", "sz.sx x I"],
    ["sz.sx x I", "sx x I", "sz.sx x sx", "sx x sx", "sz.sx x sz", "sx x sz", "sz.sx x sz.sx", "sx x sz.sx",
     "sz.sx x sx", "sx x sx", "sz.sx x I", "sx x I", "sz.sx x sz.sx", "sx x sz.sx", "sz.sx x sz", "sx x sz"],
    ["sz.sx x sz", "sx x sz", "sz.sx x sz.sx", "sx x sz.sx", "sz.sx x I", "sx x I", "sz.sx x sx", "sx x sx",
     "sz.sx x sz.sx", "sx x sz.sx", "sz.sx x sz", "sx x sz", "sz.sx x sx", "sx x sx", "sz.sx x I", "sx x I"],
]


def swap_table() -> CorrectionTable:
    return _grid_table(
        _bit_sign_labels(2),
        _bit_sign_labels(3),
        _SWAP_ROWS,
        key_of=lambda beta, alpha: (alpha, beta),
    )


_CPHASE_ROWS = [
    ["I", "sz x I", "I x sz", "sz x sz",
     "Ucz(sx x sz.Up)", "Ucz(sx.sz x sz.Up)", "Ucz(sx x Up)", "Ucz(sz.sx x Up)"],
    ["I x sz", "sz x sz", "I", "sz x I",
     "Ucz(sx x Up)", "Ucz(sx.sz x Up)", "Ucz(sx x Up.sz)", "Ucz(sz.sx x Up.sz)"],
    ["Ucz(sz.Up x I)", "Ucz(Up x I)", "Ucz(sz.Up x sz)", "Ucz(Up x sz)",
     "Up.sx x Up", "sz.Up.sx x Up", "Up.sx x Up.sz", "sz.Up.sx x sz.Up"],
    ["Ucz(sz.Up x sz)", "Ucz(Up x sz)", "Ucz(sz.Up x I)", "Ucz(Up x I)",
     "Up.sx x sz.Up", "sz.Up.sx x sz.Up", "Up.sx x Up", "sz.Up.sx x Up"],
    ["Ucz(sz.Up x sx)", "Ucz(Up x sx)", "Ucz(sz.Up x sz.sx)", "Ucz(Up x sz.sx)",
     "Up.sx x Up.sx", "sz.Up.sx x Up.sx", "Up.sx x sz.Up.sx", "sz.Up.sx x sz.Up.sx"],
    ["Ucz(sz.Up x sx.sz)", "Ucz(Up x sx.sz)", "Ucz(sz.Up x sx)", "Ucz(Up x sx)",
     "Up.sx x sz.Up.sx", "sz.Up.sx x sz.Up.sx", "Up.sx x Up.sx", "sz.Up.sx x Up.sx"],
    ["I x sx", "sz x sx", "I x sz.sx", "sz x sz.sx",
     "Ucz(sx x sz.Up.sx)", "Ucz(sx.sz x sz.Up.sx)", "Ucz(sx x Up.sx)", "Ucz(sz.sx x Up.sx)"],
    ["I x sx.sz", "sz x sx.sz", "I x sx", "sz x sx",
     "Ucz(sx x Up.sx)", "Ucz(sx.sz x Up.sx)", "Ucz(sx x sz.Up.sx)", "Ucz(sz.sx x sz.Up.sx)"],
]


def cphase_table_as_captioned() -> CorrectionTable:
    """Printed controlled-phase grid read with rows as the first group."""
    return _grid_table(
        _bit_sign_labels(2),
        _bit_sign_labels(2),
        _CPHASE_ROWS,
        key_of=lambda row, col: (row, col),
    )


def cphase_table_transposed() -> CorrectionTable:
    """Printed controlled-phase grid read with columns as the first group."""
    return _grid_table(
        _bit_sign_labels(2),
        _bit_sign_labels(2),
        _CPHASE_ROWS,
        key_of=lambda row, col: (col, row),
    )
