"""Byte-stable CLI output, and results that do not depend on batching.

The digests are sha256 of the standard output of each command run with
``--seed 1337``, recorded before outcome maps became one stacked array
walked in blocks. Every printed fidelity and probability is written with
``repr``, so a digest changes if any computed value moves by one ulp.
"""
import argparse
import dataclasses
import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

from telegate import catalog, cli, oracle, patterns, reports
from telegate.cli import main
from telegate.patterns import CorrectionOp, CorrectionTable, OutcomeLayout, format_key

from reference import table_json

GOLDEN = [
    ("verify --pattern single-qubit", 0, "4180b90ade33b9f20ebc3d56812b3fc400c19398326717d7b4aa24bc4534014c"),
    ("verify --pattern phase --format json", 0, "3297a706a327d2414de73b50d4ded6092b884f38f5075274e7d9607777be7319"),
    ("verify --pattern pi8 --format csv", 0, "0eb2cb3871a4fc9d921a58d94d9f80cce6e0fd24ff5edb04c0e45efee6651d2f"),
    ("verify --pattern cz --resource h", 0, "0349c14a2a2262eb0007687671cd228f9b5ed56374fc486fee3f441283977aaa"),
    ("verify --pattern cz --resource bell --format json", 0, "d43e0aa8f2b4a771c1e0d379be44d634b3d3ab511d20bfbf3534bf27efa08465"),
    ("verify --pattern triple-cz --format csv", 0, "8aa106f0b763758a047eaa78b961bb84500b8e9c20c4361ca1bbb4cd45bd0011"),
    ("verify --pattern controlled-phase --format json", 0, "448b8be7ea27adcac123220225c793e8da71a54cd8d5d4f2d40556addfdbd6ed"),
    ("verify --pattern cnot --format csv", 0, "283b53a9898edb1c29e7a17664211fc2d47a3c4d911c792d53b25b90a96918f0"),
    ("verify --pattern swap", 0, "3c39e2ba399710fbbb395f1ab007496a7aa6eb1ce0def762f767d22b4b9cd439"),
    ("verify --pattern toffoli", 0, "48bb4af0693482529cf231ee8baea2a71f8bbdc3c829d5490cb8dffb0145c98c"),
    ("verify --pattern chain-cz --n 3 --format json", 0, "c7c7365dbdef8cc502a1a0510a913db2a46e98fab2734a7c705eaa21603d2de0"),
    ("derive --pattern cnot", 0, "6152cdbb3dff40b28ff72380793822fdc5e33279c72c8e632d6aa145405028f8"),
    ("derive --pattern triple-cz --format json", 0, "78e571be10395b6c18e9b27872c643c6b82837d666cde879b3e71302c269e9a5"),
    ("loss-check --pattern cz", 0, "1a7f3ab089291e02f661750eae340d61665d1ee252f70fcd7588c10479cfd1a3"),
    ("loss-check --pattern cz --resource bell --basis ghz", 0, "43951fbfee50cb4782e00cade578c4893aced989889df776a37bf9d1221957cc"),
    # Rank-deficient outcomes alone: lossy, with no annihilated component.
    ("loss-check --pattern fredkin", 0, "909eeee7df2610eb641826d00985bf2631b1800bef02f59fee31aceb99cd8e52"),
    ("reproduce-table --table 2", 0, "678fde371c776f67b56f7ec54158ac7057ab5f68ebc1985a21c2ab4f45a573fe"),
    ("reproduce-table --table 3 --format json", 0, "2eb5fb57fae320c23549b161c0f7642cf9cb9ee410e657b81e1db87175c69696"),
    ("reproduce-table --table 4", 0, "e0209bfdfd829624509f85a9ac8b13360396360017f22b8b5b808d8456e3a0d5"),
    ("reproduce-table --table 5 --format csv", 0, "2d77d55a2c955539ce3b8d69fbfbd3d66d1a4ea2616113c6061a25f2cb828c2f"),
    ("reproduce-table --table 6", 0, "fce1cb2f7c70471b43860d456078f3423d13459c9d2b042e6d9930bb8c409509"),
    ("parity --max-n 5", 0, "23689727ce5404362e526851aadcb75b119ac6e64e6d7f22a8df82fb929e0d03"),
    ("list", 0, "de10646bba48656553cd5e8b028268b29008dab51426b3e62bc2c76b09950662"),
    ("verify --pattern fredkin", 1, "608015fb27823b0e94992a0978d33c47438a14323ccda8a877572110c0b5baa2"),
    # A failed derivation's JSON, with the rank reasons of its first outcomes.
    ("verify --pattern fredkin --format json", 1, "3376b4996d5052503e73ca5359be12c9c3ee670bd52f6f376b3ac9c34ec6a18e"),
    ("loss-check --pattern cz-no-ee --format json", 0, "5197a9fdb925ad322d5b388959e93165b650100eca47a12b3d308f70aedbbe9d"),
    # Correction-table writer outputs, pinned from the whole-document writer.
    ("derive --pattern cnot --format csv", 0, "710741729cfd79381f69260f6f1a2ff36fd21e4c01ad69ea57f8531e7eea3b1b"),
    ("derive --pattern toffoli --format json", 0, "3f1b5281c03a8a4add844e7db7be1b611b6905a56f984167fb7b9c13b1c04625"),
    ("reproduce-table --table 4 --format json", 0, "86af386d90f93f8f4adc8ba0889dff13ce1b8397e8dfc7829f9df92b7bf094fd"),
    ("reproduce-table --table 2 --format csv", 0, "7312ed5c61cc5ea6731789da705723555010aee3109e137433922c95dade671b"),
    # 16384 outcomes: more than one block of the stacked maps.
    ("verify --pattern chain-cz --n 5 --format json", 0, "2a449d3315eedaf7dc4244105571f894874e9b5459f2274994b8a5408f0e52ab"),
]


@pytest.mark.parametrize("command,exit_code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_and_exit_code_unchanged(capsys, command, exit_code, digest):
    code = main(command.split() + ["--seed", "1337"])
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _everything(pattern):
    table, failures = oracle.derive_corrections_with_failures(pattern)
    report = oracle.verify_pattern(pattern, corrections=table)
    loss = oracle.detect_information_loss(pattern)
    return table, failures, report, loss


@pytest.mark.parametrize(
    "make", [catalog.triple_cz_pattern, lambda: catalog.chain_cz_pattern(3)], ids=["triple-cz", "chain-cz-3"]
)
def test_block_boundaries_do_not_change_results(monkeypatch, make):
    pattern = make()
    table, failures, report, loss = _everything(pattern)
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    assert len(pattern.layout) % 7  # the last block is a partial one
    # A fresh pattern, so the maps' classes are found in blocks of 7 too.
    table7, failures7, report7, loss7 = _everything(make())
    assert table7 == table
    assert list(failures7) == list(failures)
    assert loss7 == loss
    assert np.array_equal(report7.fidelities, report.fidelities, equal_nan=True)
    assert np.array_equal(
        report7.pair_probabilities[report7.pair_of], report.pair_probabilities[report.pair_of]
    )
    for name in (
        "layout", "min_fidelity", "worst_outcome", "worst_input",
        "zero_probability_outcomes", "suspicious_outcomes", "outcome_probability_range",
        "passed", "notes",
    ):
        assert getattr(report7, name) == getattr(report, name), name
    assert np.array_equal(report7.probability_sums, report.probability_sums)


def test_block_boundaries_do_not_change_fredkin_derivation(monkeypatch, fredkin_partial):
    _, table, failures = fredkin_partial
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    pattern = catalog.fredkin_pattern()
    assert len(pattern.layout) % 7
    table7, failures7 = oracle.derive_corrections_with_failures(pattern)
    assert list(failures7) == list(failures)
    assert table7 == table


def _phase_with_special_values():
    # One pair row per outcome, so each special cell sits in one outcome.
    report = oracle.verify_pattern(catalog.phase_gate_pattern())
    probs = report.pair_probabilities[report.pair_of]
    probs[0, :4] = [-0.0, np.nan, np.inf, -np.inf]
    fids = report.fidelities.copy()
    fids[1, :3] = [-0.0, np.nan, 5e-324]
    return dataclasses.replace(
        report, pair_probabilities=probs, pair_fidelities=fids, pair_of=np.arange(len(probs))
    )


def _all_identity_loss_demo():
    pattern = catalog.build_pattern("cz-mismatched")
    table = CorrectionTable.from_entries({key: CorrectionOp.identity() for key in pattern.layout})
    return oracle.verify_pattern(pattern, corrections=table, loss_demo=True)


def _derived(pattern):
    return oracle.verify_pattern(pattern, corrections=oracle.derive_corrections(pattern))


def _empty_grid():
    report = oracle.verify_pattern(catalog.phase_gate_pattern())
    return dataclasses.replace(report, layout=OutcomeLayout(((),)), pair_of=np.arange(0))


REPORTS = {
    "phase": lambda: oracle.verify_pattern(catalog.phase_gate_pattern()),
    "phase-special-values": _phase_with_special_values,
    "cnot": lambda: _derived(catalog.cnot_pattern()),
    "chain-cz-3": lambda: _derived(catalog.chain_cz_pattern(3)),
    "cz-mismatched-identity": _all_identity_loss_demo,
    "empty-grid": _empty_grid,
}


def _whole_json(report):
    """The report's JSON written as one document, the bytes the streamed
    writer must reproduce."""
    doc = reports.verification_to_doc(report)
    doc["outcomes"] = [
        {
            "fidelities": [None if f != f else f for f in fids],
            "labels": format_key(key),
            "probabilities": probs,
        }
        for key, fids, probs in zip(
            report.layout, report.fidelities.tolist(),
            report.pair_probabilities[report.pair_of].tolist(),
        )
    ]
    return json.dumps(doc, indent=1, sort_keys=True)


def _whole_csv(report):
    """The report's CSV written line by line, one per (outcome, input) cell."""
    lines = ["outcome,input,probability,fidelity"]
    probabilities = report.pair_probabilities[report.pair_of]
    for key, fids, probs in zip(report.layout, report.fidelities, probabilities):
        lines += [
            f'"{format_key(key)}",{label},{float(p)!r},{"" if f != f else repr(float(f))}'
            for label, p, f in zip(report.input_labels, probs, fids)
        ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_grid_writers_match_json_and_repr(monkeypatch, name):
    report = REPORTS[name]()
    if name == "cz-mismatched-identity":
        assert np.isnan(report.fidelities).sum() == 128
    text = "".join(reports.verification_json_pieces(report))
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True)
    assert text == _whole_json(report)
    csv_text = "".join(reports.verification_csv_pieces(report))
    assert csv_text == _whole_csv(report)
    # Blocks of 3 outcomes end every grid here on a partial block.
    outcomes = len(report.layout)
    assert outcomes % 3 or not outcomes
    blocks = -(-outcomes // 3)
    monkeypatch.setattr(patterns, "_WRITE_BLOCK", 3)
    pieces = list(reports.verification_json_pieces(report))
    assert len(pieces) == (blocks + 2 if outcomes else 1)
    assert "".join(pieces) == text
    pieces = list(reports.verification_csv_pieces(report))
    assert len(pieces) == blocks + 1
    assert "".join(pieces) == csv_text


TABLES = {
    "phase": lambda: (oracle.derive_corrections(catalog.phase_gate_pattern()), 1),
    "cnot": lambda: (oracle.derive_corrections(catalog.cnot_pattern()), 2),
    "triple-cz": lambda: (oracle.derive_corrections(catalog.triple_cz_pattern()), 3),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_writer_matches_the_whole_document(monkeypatch, name):
    table, width = TABLES[name]()
    diffs, footer = {"printed": {"mismatch_count": 0, "mismatches": [], "total": len(table)}}, "rows"
    reference = table_json(name, table, width, diffs, footer)
    pieces = list(reports.table_json_pieces(name, table, width, diffs=diffs, footer=footer))
    assert "".join(pieces) == reference
    # Blocks of 3 outcomes end every table here on a partial block.
    outcomes = len(table.layout)
    assert outcomes % 3
    monkeypatch.setattr(patterns, "_WRITE_BLOCK", 3)
    pieces = list(reports.table_json_pieces(name, table, width, diffs=diffs, footer=footer))
    assert len(pieces) == -(-outcomes // 3) + 2
    assert "".join(pieces) == reference


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", ["derive --pattern cnot", "reproduce-table --table 2", "reproduce-table --table 4"])
def test_table_commands_do_not_depend_on_the_write_block(capsys, monkeypatch, command, fmt):
    argv = command.split() + ["--format", fmt]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(patterns, "_WRITE_BLOCK", 3)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole


class _ByteCount:
    """A text stream that keeps only the number of bytes written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text.encode("utf-8"))
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


@pytest.mark.parametrize(
    "command,fmt,size",
    [
        ("verify", "json", 16 * 2**20),
        ("verify", "csv", 16 * 2**20),
        ("derive", "json", 2**20),
        ("derive", "csv", 2**19),
        ("derive", "text", 2**19),
    ],
    ids=["json", "csv", "derive-json", "derive-csv", "derive-text"],
)
def test_cli_streams_reports_in_pieces_far_smaller_than_the_report(monkeypatch, command, fmt, size):
    # chain-cz n=5 writes 18 MB of JSON or 29 MB of CSV as a verification
    # report, and 0.7-1.3 MB as a derived table; the CLI writes each block
    # of outcomes as it is rendered, so no report-sized text exists.
    pattern = catalog.chain_cz_pattern(5)
    table = oracle.derive_corrections(pattern)
    report = oracle.verify_pattern(pattern, corrections=table)
    # derive runs on the table derived above, so only its writer is measured.
    monkeypatch.setattr(cli, "resolve_pattern", lambda args: (pattern, [], None))
    monkeypatch.setattr(oracle, "derive_corrections", lambda p: table)
    sink = _ByteCount()
    monkeypatch.setattr(sys, "stdout", sink)
    args = argparse.Namespace(format=fmt, out=None)
    tracemalloc.start()
    try:
        if command == "derive":
            assert cli.cmd_derive(args) == cli.EXIT_PASS
        else:
            cli._emit(
                args,
                None,
                lambda: reports.verification_json_pieces(report),
                lambda: reports.verification_csv_pieces(report),
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > size
    assert peak < sink.size / 4
