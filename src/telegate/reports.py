"""Report rendering and machine-readable export.

Text renderings are byte-stable for a fixed seed and flags: floats are
printed with ``repr`` (shortest round-trip form), collections in fixed
order. JSON documents round-trip: parsing one back reproduces the pass
flag and the minimum fidelity bit-exactly.
"""
from __future__ import annotations

import json

import numpy as np

from .oracle import LossReport, ParityResult, TableDiff, VerificationReport
from .patterns import (
    CorrectionTable,
    _json_list,
    _json_pieces,
    _label_text,
    _row_blocks,
    dumps,
    format_key,
)

MAX_LISTED = 8  # outcomes or cells a text report lists before "and N more"


def _f(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------

def _cell_texts(values: np.ndarray, text) -> list[list[str]]:
    """``text(x)`` for every cell of a 2-D float array, as nested lists,
    called once per distinct float64 bit pattern (so -0.0 and each NaN
    keep their own text)."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([text(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return texts[inverse.reshape(values.shape)].tolist()


def _json_fidelity(x: float) -> str:
    return "null" if x != x else json.dumps(x)


def _csv_fidelity(x: float) -> str:
    return "" if x != x else _f(x)


def verification_to_doc(report: VerificationReport) -> dict:
    """The headline fields of a verification report; the per-outcome grid
    is written by :func:`verification_json_pieces` and
    :func:`verification_csv_pieces`."""
    doc = {
        "kind": "verification",
        "pattern": report.pattern,
        "variant": report.variant,
        "seed": report.seed,
        "passed": report.passed,
        "loss_demo": report.loss_demo,
        "min_fidelity": float(report.min_fidelity),
        "worst_outcome": format_key(report.worst_outcome) if report.worst_outcome is not None else None,
        "worst_input": report.worst_input,
        "zero_probability_outcomes": list(map(format_key, report.zero_probability_outcomes)),
        "suspicious_outcomes": list(map(format_key, report.suspicious_outcomes)),
        "probability_sums": [float(x) for x in report.probability_sums],
        "outcome_probability_range": [float(x) for x in report.outcome_probability_range],
        "input_labels": list(report.input_labels),
        "notes": list(report.notes),
    }
    if report.table_diff is not None:
        doc["table_diff"] = table_diff_to_doc(report.table_diff)
    return doc


def verification_json_pieces(report: VerificationReport):
    """The report with its per-outcome grid as JSON, in pieces of one block
    of outcomes each: the bytes ``dumps`` writes for the headline fields
    plus an ``outcomes`` list of {fidelities, labels, probabilities} per
    outcome (NaN fidelities as null). The grid is joined from one text per
    distinct cell value, one list text per (map, correction) pair row and
    one escaped text per outcome label."""
    fids = [_json_list(row) for row in _cell_texts(report.pair_fidelities, _json_fidelity)]
    probs = [_json_list(row) for row in _cell_texts(report.pair_probabilities, json.dumps)]
    rows = (
        [
            '  {\n   "fidelities": ' + fids[p]
            + ',\n   "labels": "' + label
            + '",\n   "probabilities": ' + probs[p] + "\n  }"
            for p, label in block
        ]
        for block in _row_blocks(report.pair_of, report.layout.iter_texts(_json_escaped))
    )
    yield from _json_pieces(verification_to_doc(report), "outcomes", rows)


def _json_escaped(text: str) -> str:
    """``text`` as ``dumps`` writes it inside a string's quotes. JSON escapes
    character by character, so joined escaped texts are the escaped join."""
    return json.dumps(text)[1:-1]


def csv_escaped(text: str) -> str:
    """``text`` as a CSV field holds it inside its quotes, each ``"``
    doubled (RFC 4180). Each character escapes on its own, so joined
    escaped texts are the escaped join."""
    return text.replace('"', '""')


def table_diff_to_doc(diff: TableDiff) -> dict:
    return {
        "total": diff.total,
        "mismatch_count": diff.mismatch_count,
        "mismatches": [
            {"outcome": format_key(key), "derived": derived, "printed": printed}
            for key, derived, printed in diff.mismatches
        ],
    }


def render_verification(report: VerificationReport) -> str:
    lines = [
        f"pattern: {report.pattern}"
        + (f" [variant: {report.variant}]" if report.variant else ""),
        f"seed: {report.seed}",
        f"outcomes: {len(report.layout)}  inputs: {len(report.input_labels)}",
        f"min fidelity: {_f(report.min_fidelity)}"
        + (
            f" (outcome {format_key(report.worst_outcome)}, input {report.worst_input})"
            if report.worst_outcome is not None
            else ""
        ),
        "probability sums per input: "
        f"[{_f(report.probability_sums.min())}, {_f(report.probability_sums.max())}]",
        "outcome probability range (generic input): "
        f"[{_f(report.outcome_probability_range[0])}, {_f(report.outcome_probability_range[1])}]",
    ]
    zk = report.zero_probability_outcomes
    lines.append(
        "zero-probability outcomes: "
        + ("none" if not zk else _listed(zk))
    )
    if report.suspicious_outcomes:
        lines.append(
            "suspicious (near-zero) outcomes: "
            + _listed(report.suspicious_outcomes)
        )
    if report.table_diff is not None:
        lines.append(render_table_diff(report.table_diff))
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _listed(items: list, text=format_key, sep: str = ", ") -> str:
    """The texts of the first ``MAX_LISTED`` items, and how many more there are."""
    more = f" ... and {len(items) - MAX_LISTED} more" if len(items) > MAX_LISTED else ""
    return sep.join(map(text, items[:MAX_LISTED])) + more


def render_table_diff(diff: TableDiff) -> str:
    head = f"reference-table diff: {diff.mismatch_count}/{diff.total} cells differ"
    if not diff.mismatches:
        return head
    return head + "\n  " + _listed(
        diff.mismatches, lambda m: f"{format_key(m[0])}: derived {m[1]} vs printed {m[2]}", "\n  "
    )


def verification_csv_pieces(report: VerificationReport):
    """The report's per-outcome grid as CSV lines, one per (outcome, input)
    cell after a header line, in pieces of one block of outcomes each."""
    fids = _cell_texts(report.pair_fidelities, _csv_fidelity)
    probs = _cell_texts(report.pair_probabilities, _f)
    # Each pair row's cells once, as the lines' tails after the outcome.
    tails = [
        [f",{label},{prob},{fid}\n" for label, prob, fid in zip(report.input_labels, p, f)]
        for p, f in zip(probs, fids)
    ]
    yield "outcome,input,probability,fidelity\n"
    for block in _row_blocks(report.pair_of, report.layout.iter_texts(csv_escaped)):
        yield "".join(f'"{label}"' + tail for p, label in block for tail in tails[p])


# ---------------------------------------------------------------------------
# Loss reports
# ---------------------------------------------------------------------------

def loss_to_doc(report: LossReport) -> dict:
    return {
        "kind": "loss",
        "pattern": report.pattern,
        "seed": report.seed,
        "lossy": report.lossy,
        "annihilated_components": report.component_names(),
        "zero_probability_outcomes": list(map(format_key, report.zero_probability_outcomes)),
        "outcomes": [
            {
                "labels": format_key(o.key),
                "probability": float(o.probability),
                "rank": o.rank,
                "annihilated": list(o.annihilated),
            }
            for o in report.outcomes
        ],
    }


def render_loss(report: LossReport) -> str:
    lines = [
        f"pattern: {report.pattern}",
        f"seed: {report.seed}",
        f"verdict: {'LOSSY' if report.lossy else 'not lossy'}",
    ]
    if report.annihilated_components:
        lines.append(
            "annihilated input components: " + ", ".join(report.component_names())
        )
    if report.zero_probability_outcomes:
        lines.append(
            "zero-probability outcomes: "
            + _listed(report.zero_probability_outcomes)
        )
    if report.outcomes:
        lines.append(f"degraded outcomes ({len(report.outcomes)}):")
        for o in report.outcomes[:MAX_LISTED]:
            ann = ",".join(f"c{i}" for i in o.annihilated) or "-"
            lines.append(
                f"  {format_key(o.key)}: probability {_f(o.probability)}, "
                f"rank {o.rank}, annihilated {ann}"
            )
        if len(report.outcomes) > MAX_LISTED:
            lines.append(f"  ... and {len(report.outcomes) - MAX_LISTED} more")
    else:
        lines.append("degraded outcomes: none")
    return "\n".join(lines)


def loss_to_csv(report: LossReport) -> str:
    lines = ["outcome,probability,rank,annihilated"]
    for o in report.outcomes:
        ann = ";".join(f"c{i}" for i in o.annihilated)
        lines.append(f'"{csv_escaped(format_key(o.key))}",{_f(o.probability)},{o.rank},{ann}')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parity experiment
# ---------------------------------------------------------------------------

def parity_to_doc(results: list[ParityResult]) -> dict:
    return {
        "kind": "parity",
        "results": [
            {"n": r.n, "passed": r.passed, "note": r.note} for r in results
        ],
    }


def render_parity(results: list[ParityResult]) -> str:
    lines = ["chain length | verdict vs controlled-Z"]
    for r in results:
        lines.append(f"  n={r.n}: {'PASS' if r.passed else 'FAIL'} ({r.note})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Correction tables
# ---------------------------------------------------------------------------

def table_cell_blocks(table: CorrectionTable, num_wires: int, escape=str):
    """The table's (key text, op rendering) cells in outcome order, one
    block per ``_WRITE_BLOCK`` outcomes. Each distinct op is rendered, and
    each label and rendering passed through ``escape``, once."""
    ops = [escape(op.render(num_wires)) for op in table.ops]
    for block in _row_blocks(table.index, table.layout.iter_texts(escape)):
        yield [(key, ops[r]) for r, key in block]


def table_json_pieces(name: str, table: CorrectionTable, num_wires: int, **fields):
    """A correction table's document in pieces: its ``kind``, ``name`` and
    ``fields``, and an ``entries`` list of {labels, op} per cell."""
    blocks = (
        [f'  {{\n   "labels": "{key}",\n   "op": "{op}"\n  }}' for key, op in block]
        for block in table_cell_blocks(table, num_wires, _json_escaped)
    )
    yield from _json_pieces({"kind": "correction-table", "name": name, **fields}, "entries", blocks)


def _grid(table: CorrectionTable, num_wires: int) -> tuple[list, list, list]:
    """A two-group table's row and column label texts and its cells, one row
    per first-group label; each distinct op is rendered once."""
    ops = [op.render(num_wires) for op in table.ops]
    rows, cols = ([_label_text(label) for label in labels] for labels in table.layout.labels)
    cells = table.index.reshape(table.layout.shape).tolist()
    return rows, cols, [[ops[r] for r in row] for row in cells]


def render_grid(title: str, table: CorrectionTable, num_wires: int, footer: str = "") -> str:
    """Render a two-group correction table with one row per first-group outcome."""
    rows, cols, grid = _grid(table, num_wires)
    widths = [max(map(len, column)) for column in zip(cols, *grid)]
    row_w = max(map(len, rows))
    # The column labels are the first row, under an empty row label.
    lines = [
        r.ljust(row_w) + " | " + " | ".join(x.ljust(w) for x, w in zip(row, widths))
        for r, row in zip(["", *rows], [cols, *grid])
    ]
    return "\n".join([title, *lines, footer] if footer else [title, *lines])


def grid_to_csv(table: CorrectionTable, num_wires: int) -> str:
    rows, cols, grid = _grid(table, num_wires)
    lines = ["," + ",".join(f'"{c}"' for c in cols)]
    lines += [f'"{r}",' + ",".join(f'"{x}"' for x in row) for r, row in zip(rows, grid)]
    return "\n".join(lines) + "\n"
