"""Pinned expectations for benchmark jobs and the checker that applies them.

Each job pins its exit code and whichever of these its output carries: the
verdict, the outcome count, the number of degraded outcomes, a digest of
the rendered correction cells and the printed-table diff count. Diagnostic
text (failure messages, fidelity listings) is never digested, so a change
that rewrites diagnostics without changing results still passes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass

PASS_FIDELITY = 1.0 - 1e-9


@dataclass(frozen=True)
class Job:
    """One ``telegate`` invocation and what its output must show."""

    args: tuple[str, ...]
    exit_code: int = 0
    verdict: str | None = None
    outcomes: int | None = None
    degraded: int | None = None
    cells: str | None = None
    diff: str | None = None

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def fmt(self) -> str:
        if "--format" in self.args:
            return self.args[self.args.index("--format") + 1]
        return "text"

    @property
    def label(self) -> str:
        return " ".join(self.args)


def cells_digest(cells: dict[str, str]) -> str:
    """Digest of outcome-key -> rendered-op cells, independent of layout."""
    text = "\n".join(f"{k}\t{v}" for k, v in sorted(cells.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _line(pattern: str, text: str) -> re.Match | None:
    return re.search(pattern, text, re.MULTILINE)


def _text_verdict(text: str) -> str | None:
    found = re.findall(r"^verdict: (.+)$", text, re.MULTILINE)
    return found[-1] if found else None


def _text_diff(text: str) -> str | None:
    m = _line(r"^reference-table diff: (\d+)/(\d+) cells differ$", text)
    return f"{m[1]}/{m[2]}" if m else None


def _doc_cells(doc: dict) -> dict[str, str]:
    return {e["labels"]: e["op"] for e in doc["entries"]}


def _doc_diff(doc: dict) -> str | None:
    printed = doc.get("diffs", {}).get("printed")
    return f"{printed['mismatch_count']}/{printed['total']}" if printed else None


def _grid_cells(rows: list[list[str]]) -> dict[str, str]:
    """Cells of a grid whose first row holds column labels and whose first
    column holds row labels; the key is ``row;col`` as in ``format_key``."""
    cols = [c.strip() for c in rows[0][1:]]
    cells = {}
    for row in rows[1:]:
        label = row[0].strip()
        for col, op in zip(cols, row[1:]):
            cells[f"{label};{col}"] = op.strip()
    return cells


def _verify(fmt: str, text: str) -> dict:
    if fmt == "json":
        doc = json.loads(text)
        return {
            "verdict": "PASS" if doc["passed"] else "FAIL",
            "outcomes": len(doc["outcomes"]),
            "min_fidelity": doc["min_fidelity"],
        }
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        fids = [float(r[3]) for r in rows if r[3]]
        return {
            "outcomes": len({r[0] for r in rows}),
            "min_fidelity": min(fids) if fids else None,
        }
    m = _line(r"^outcomes: (\d+) ", text)
    return {"verdict": _text_verdict(text), "outcomes": int(m[1]) if m else None}


def _derive(fmt: str, text: str) -> dict:
    if fmt == "json":
        cells = _doc_cells(json.loads(text))
    else:
        cells = dict(re.findall(r"^  (\S+): (.+)$", text, re.MULTILINE))
    return {"outcomes": len(cells), "cells": cells_digest(cells)}


def _reproduce_table(fmt: str, text: str) -> dict:
    if fmt == "json":
        doc = json.loads(text)
        return {"cells": cells_digest(_doc_cells(doc)), "diff": _doc_diff(doc)}
    if fmt == "csv":
        return {"cells": cells_digest(_grid_cells(list(csv.reader(io.StringIO(text)))))}
    lines = text.splitlines()
    if lines[1].startswith("outcome |"):
        rows = [line.split("|") for line in lines[2:] if line.startswith("  (")]
        cells = {r[0].strip(): r[-1].strip() for r in rows}
    else:
        grid = []
        for line in lines[1:]:
            if "|" not in line:
                break
            grid.append(line.split("|"))
        cells = _grid_cells(grid)
    return {"cells": cells_digest(cells), "diff": _text_diff(text)}


def _loss_check(fmt: str, text: str) -> dict:
    m = _line(r"^degraded outcomes \((\d+)\):$", text)
    return {"verdict": _text_verdict(text), "degraded": int(m[1]) if m else 0}


def _parity(fmt: str, text: str) -> dict:
    return {"verdict": " ".join(re.findall(r"^  n=\d+: (PASS|FAIL)", text, re.MULTILINE))}


def _list(fmt: str, text: str) -> dict:
    rows = [line.split() for line in text.splitlines()[1:]]
    return {"cells": cells_digest({r[0]: f"{r[1]} {r[2]}" for r in rows})}


PARSERS = {
    "verify": _verify,
    "derive": _derive,
    "reproduce-table": _reproduce_table,
    "loss-check": _loss_check,
    "parity": _parity,
    "list": _list,
}
PINNED = ("verdict", "outcomes", "degraded", "cells", "diff")


def observe(job: Job, stdout: str) -> dict:
    """The pinnable facts in one job's standard output."""
    return PARSERS[job.command](job.fmt, stdout)


def check(job: Job, exit_code: int, stdout: str) -> list[str]:
    """Every way the job's result differs from its pinned expectation."""
    problems = []
    if exit_code != job.exit_code:
        problems.append(f"exit code {exit_code}, expected {job.exit_code}")
    try:
        seen = observe(job, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return problems + [f"unparseable output: {exc!r}"]
    for field in PINNED:
        want = getattr(job, field)
        if want is not None and seen.get(field) != want:
            problems.append(f"{field} {seen.get(field)!r}, expected {want!r}")
    if job.command == "verify" and job.exit_code == 0 and "min_fidelity" in seen:
        fid = seen["min_fidelity"]
        if fid is None or fid < PASS_FIDELITY:
            problems.append(f"min fidelity {fid!r} below {PASS_FIDELITY!r}")
    return problems
