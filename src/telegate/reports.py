"""Report rendering and machine-readable export.

Text renderings are byte-stable for a fixed seed and flags: floats are
printed with ``repr`` (shortest round-trip form), collections in fixed
order. JSON documents round-trip: parsing one back reproduces the pass
flag and the minimum fidelity bit-exactly.
"""
from __future__ import annotations

import json

import numpy as np

from .oracle import (
    LossReport,
    ParityResult,
    TableDiff,
    VerificationReport,
    format_key,
)


def _f(x: float) -> str:
    return repr(float(x))


def _format_keys(keys) -> list[str]:
    """``format_key`` of each key. Keys of one pattern share their label
    objects, so each label's text is built once (per object) and joined.
    Labels are told apart by identity, as (1, 0) and (True, 0) are equal
    but print differently."""
    # The memo holds each label it has seen, so no other can take its id.
    texts: dict[int, tuple] = {}

    def text(label) -> str:
        hit = texts.get(id(label))
        if hit is None:
            hit = texts[id(label)] = (label, "(" + ",".join(str(x) for x in label) + ")")
        return hit[1]

    return [";".join(map(text, key)) for key in keys]


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


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
    is written by :func:`verification_to_json` and
    :func:`verification_to_csv`."""
    doc = {
        "kind": "verification",
        "pattern": report.pattern,
        "variant": report.variant,
        "seed": report.seed,
        "passed": report.passed,
        "loss_demo": report.loss_demo,
        "min_fidelity": float(report.min_fidelity),
        "worst_outcome": format_key(report.worst_outcome) if report.worst_outcome else None,
        "worst_input": report.worst_input,
        "zero_probability_outcomes": _format_keys(report.zero_probability_outcomes),
        "suspicious_outcomes": _format_keys(report.suspicious_outcomes),
        "probability_sums": [float(x) for x in report.probability_sums],
        "outcome_probability_range": [float(x) for x in report.outcome_probability_range],
        "input_labels": list(report.input_labels),
        "notes": list(report.notes),
    }
    if report.table_diff is not None:
        doc["table_diff"] = table_diff_to_doc(report.table_diff)
    return doc


def verification_to_json(report: VerificationReport) -> str:
    """The report with its per-outcome grid as JSON: the bytes
    ``dumps`` writes for the headline fields plus an ``outcomes`` list of
    {fidelities, labels, probabilities} per outcome (NaN fidelities as
    null). The grid is joined from one text per distinct cell value and
    one list text per (map, correction) pair row."""
    doc = verification_to_doc(report)
    doc["outcomes"] = None
    # Only top-level keys start a line with one space of indent, so the
    # placeholder is found exactly once.
    head, tail = dumps(doc).split('\n "outcomes": null', 1)
    fids = [_json_list(row) for row in _cell_texts(report.pair_fidelities, _json_fidelity)]
    probs = [_json_list(row) for row in _cell_texts(report.pair_probabilities, json.dumps)]
    rows = [
        '  {\n   "fidelities": ' + fids[p]
        + ',\n   "labels": ' + json.dumps(label)
        + ',\n   "probabilities": ' + probs[p] + "\n  }"
        for p, label in zip(report.pair_of.tolist(), _format_keys(report.outcome_keys))
    ]
    grid = "[\n" + ",\n".join(rows) + "\n ]" if rows else "[]"
    return f'{head}\n "outcomes": {grid}{tail}'


def _json_list(texts: list[str]) -> str:
    """Number texts as ``dumps`` writes a list three levels deep."""
    return "[\n    " + ",\n    ".join(texts) + "\n   ]" if texts else "[]"


def table_diff_to_doc(diff: TableDiff) -> dict:
    return {
        "total": diff.total,
        "mismatch_count": diff.mismatch_count,
        "mismatches": [
            {"outcome": format_key(key), "derived": derived, "printed": printed}
            for key, derived, printed in diff.mismatches
        ],
    }


def render_verification(report: VerificationReport, max_listed: int = 8) -> str:
    lines = [
        f"pattern: {report.pattern}"
        + (f" [variant: {report.variant}]" if report.variant else ""),
        f"seed: {report.seed}",
        f"outcomes: {len(report.outcome_keys)}  inputs: {len(report.input_labels)}",
        f"min fidelity: {_f(report.min_fidelity)}"
        + (
            f" (outcome {format_key(report.worst_outcome)}, input {report.worst_input})"
            if report.worst_outcome
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
        + ("none" if not zk else _listed(_format_keys(zk), max_listed))
    )
    if report.suspicious_outcomes:
        lines.append(
            "suspicious (near-zero) outcomes: "
            + _listed(_format_keys(report.suspicious_outcomes), max_listed)
        )
    if report.table_diff is not None:
        lines.append(render_table_diff(report.table_diff, max_listed))
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _listed(items: list[str], max_listed: int) -> str:
    if len(items) <= max_listed:
        return ", ".join(items)
    shown = ", ".join(items[:max_listed])
    return f"{shown} ... and {len(items) - max_listed} more"


def render_table_diff(diff: TableDiff, max_listed: int = 8) -> str:
    head = f"reference-table diff: {diff.mismatch_count}/{diff.total} cells differ"
    if not diff.mismatches:
        return head
    cells = [
        f"{format_key(key)}: derived {derived} vs printed {printed}"
        for key, derived, printed in diff.mismatches[:max_listed]
    ]
    more = (
        f" ... and {diff.mismatch_count - max_listed} more"
        if diff.mismatch_count > max_listed
        else ""
    )
    return head + "\n  " + "\n  ".join(cells) + more


def verification_to_csv(report: VerificationReport) -> str:
    fids = _cell_texts(report.pair_fidelities, _csv_fidelity)
    probs = _cell_texts(report.pair_probabilities, _f)
    # Each pair row's cells once, as the lines' tails after the outcome.
    tails = [
        [f",{label},{prob},{fid}" for label, prob, fid in zip(report.input_labels, p, f)]
        for p, f in zip(probs, fids)
    ]
    lines = ["outcome,input,probability,fidelity"]
    for p, label in zip(report.pair_of.tolist(), _format_keys(report.outcome_keys)):
        outcome = f"\"{label}\""
        lines.extend(outcome + tail for tail in tails[p])
    return "\n".join(lines) + "\n"


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
        "zero_probability_outcomes": _format_keys(report.zero_probability_outcomes),
        "outcomes": [
            {
                "labels": label,
                "probability": float(o.probability),
                "rank": o.rank,
                "annihilated": list(o.annihilated),
            }
            for o, label in zip(report.outcomes, _format_keys(o.key for o in report.outcomes))
        ],
    }


def render_loss(report: LossReport, max_listed: int = 8) -> str:
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
            + _listed(_format_keys(report.zero_probability_outcomes), max_listed)
        )
    if report.outcomes:
        lines.append(f"degraded outcomes ({len(report.outcomes)}):")
        for o in report.outcomes[:max_listed]:
            ann = ",".join(f"c{i}" for i in o.annihilated) or "-"
            lines.append(
                f"  {format_key(o.key)}: probability {_f(o.probability)}, "
                f"rank {o.rank}, annihilated {ann}"
            )
        if len(report.outcomes) > max_listed:
            lines.append(f"  ... and {len(report.outcomes) - max_listed} more")
    else:
        lines.append("degraded outcomes: none")
    return "\n".join(lines)


def loss_to_csv(report: LossReport) -> str:
    lines = ["outcome,probability,rank,annihilated"]
    for o, label in zip(report.outcomes, _format_keys(o.key for o in report.outcomes)):
        ann = ";".join(f"c{i}" for i in o.annihilated)
        lines.append(f"\"{label}\",{_f(o.probability)},{o.rank},{ann}")
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

def table_to_doc(
    name: str,
    keys: list,
    rendered: dict,
    diff_docs: dict | None = None,
    footer: str = "",
) -> dict:
    doc = {
        "kind": "correction-table",
        "name": name,
        "entries": [
            {"labels": format_key(key), "op": rendered[key]} for key in keys
        ],
    }
    if diff_docs:
        doc["diffs"] = diff_docs
    if footer:
        doc["footer"] = footer
    return doc


def render_grid(
    title: str,
    row_labels: list,
    col_labels: list,
    cell: dict,
    footer: str = "",
) -> str:
    """Render a correction table with one row per first-group outcome."""

    def label_str(label) -> str:
        return "(" + ",".join(str(x) for x in label) + ")"

    rows = [label_str(r) for r in row_labels]
    cols = [label_str(c) for c in col_labels]
    grid = [[cell[(r, c)] for c in col_labels] for r in row_labels]
    widths = [
        max(len(cols[j]), max(len(grid[i][j]) for i in range(len(rows))))
        for j in range(len(cols))
    ]
    row_w = max(len(r) for r in rows)
    lines = [title]
    lines.append(
        " " * row_w + " | " + " | ".join(c.ljust(w) for c, w in zip(cols, widths))
    )
    for i, r in enumerate(rows):
        lines.append(
            r.ljust(row_w)
            + " | "
            + " | ".join(grid[i][j].ljust(widths[j]) for j in range(len(cols)))
        )
    if footer:
        lines.append(footer)
    return "\n".join(lines)


def grid_to_csv(row_labels: list, col_labels: list, cell: dict) -> str:
    def label_str(label) -> str:
        return "(" + ",".join(str(x) for x in label) + ")"

    lines = ["," + ",".join(f"\"{label_str(c)}\"" for c in col_labels)]
    for r in row_labels:
        lines.append(
            f"\"{label_str(r)}\","
            + ",".join(f"\"{cell[(r, c)]}\"" for c in col_labels)
        )
    return "\n".join(lines) + "\n"
