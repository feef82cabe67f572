"""CLI contract: exit codes, formats, round-trips, byte stability."""
import contextlib
import copy
import csv
import functools
import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import telegate
from telegate import catalog, oracle, reports
from telegate import statevec as sv
from telegate.gates import CZ
from telegate.cli import build_parser, main, resolve_pattern
from telegate.patterns import (
    CorrectionOp, CorrectionTable, format_key, pattern_from_document, pattern_to_document,
    validate_pattern,
)

from reference import (
    reused_group_document, reused_resource_document, shuffled_document, teleports_document,
    wide_group_document,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verify_pass_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--pattern", "cnot")
        assert code == 0
        assert "verdict: PASS" in out

    def test_chain_two_fails_with_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--pattern", "chain-cz", "--n", "2")
        assert code == 1
        assert "FAIL" in out

    def test_unknown_pattern_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--pattern", "nonesuch")
        assert code == 2
        assert "unknown pattern" in err

    def test_bad_pattern_file_is_usage_error(self, capsys, tmp_path):
        doc = pattern_to_document(catalog.controlled_z_pattern("h"))
        del doc["groups"][0]["vectors"][0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--pattern-file", str(bad))
        assert code == 2
        assert "completeness" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--pattern-file", "/nonexistent.json")
        assert code == 2

    def test_unknown_table_id_is_usage_error(self, capsys):
        code, _, err = run(capsys, "reproduce-table", "--table", "9")
        assert code == 2

    def test_missing_pattern_arg_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "derive", "loss-check"])
    def test_variant_flag_is_refused(self, capsys, command):
        # The engine alone picks toffoli's variant; the literal one is not a
        # measurement, so no flag can make a command simulate it.
        with pytest.raises(SystemExit) as exited:
            main([command, "--pattern", "toffoli", "--variant", "literal"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --variant literal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("list",),
            ("verify", "--pattern", "phase"),
            ("derive", "--pattern", "phase"),
            ("loss-check", "--pattern", "phase"),
            ("parity", "--max-n", "1"),
            ("reproduce-table", "--table", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: --seed must be at least 0, got -1\n"

    def test_parity_past_register_limit_is_refused_before_any_chain(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "_map_chunks", lambda *a: calls.append(1))
        code, out, err = run(capsys, "parity", "--max-n", str(catalog.MAX_CHAIN_LENGTH + 1))
        assert code == 2 and out == ""
        assert err.startswith("error: max_n must lie in 1..") and err.count("\n") == 1
        assert calls == []

    def test_parity_csv_is_refused_before_any_chain(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parity_experiment ran")

        monkeypatch.setattr(oracle, "parity_experiment", refuse)
        with pytest.raises(SystemExit) as exited:
            main(["parity", "--format", "csv"])
        assert exited.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_closed_stdout_exits_141_silently(self):
        # The report is far larger than a pipe buffer, so the writer is
        # still streaming its pieces when the reader closes its end, and the
        # broken pipe comes between two of them.
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(telegate.__file__))}
        argv = ["verify", "--pattern", "chain-cz", "--n", "3", "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "telegate.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""


DIRECTORY = object()


def _document_with(path, value, factory=catalog.cnot_pattern):
    """The pattern document of ``factory`` (cnot unless given) with the field
    at ``path`` set to ``value``, or deleted when ``value`` is None."""
    doc = pattern_to_document(factory())
    *parents, last = path
    node = doc
    for step in parents:
        node = node[step]
    if value is None:
        del node[last]
    else:
        node[last] = value
    return doc


# The phase document's four correction cells, and a fifth for outcome (1).
_PHASE_CELLS = pattern_to_document(catalog.phase_gate_pattern())["corrections"]
_REPEATED_CELL = {"labels": [[1]], "ops": [{"name": "Up", "wires": [0]}]}


def _phase_document_with_outputs(qubits, resources, groups, outputs, target):
    """The phase document without its corrections, its register grown to
    ``qubits`` with the extra resources and groups, the given outputs and
    the real ``target`` matrix."""
    doc = pattern_to_document(catalog.phase_gate_pattern())
    del doc["corrections"]
    doc["num_qubits"] = qubits
    doc["resources"] += resources
    doc["groups"] += groups
    doc["outputs"] = outputs
    doc["target"] = {"dim": len(target), "entries": [[[x, 0.0] for x in row] for row in target]}
    return doc


def _basis_state(bits):
    """The terms of one computational-basis state."""
    return [{"coeff": [1.0, 0.0], "bits": bits}]


def _two_wire_phase_document(outputs):
    """The phase document with qubit 3 as a second input wire, measured
    alone in {|0>, |1>}, the given two output wires and the identity
    target."""
    doc = _phase_document_with_outputs(
        4,
        [],
        [{"qubits": [3], "vectors": [
            {"label": [0], "terms": _basis_state("0")},
            {"label": [1], "terms": _basis_state("1")},
        ]}],
        outputs,
        [[float(i == j) for j in range(4)] for i in range(4)],
    )
    doc["inputs"] = [0, 3]
    return doc


def _pass_through_phase_document():
    """The two-wire phase document without qubit 3's group, so that input
    wire passes through unmeasured to the second output wire."""
    doc = _two_wire_phase_document([2, 3])
    del doc["groups"][-1]
    return doc


# A one-qubit wire: no resources and no groups, its input its output.
_GROUP_LESS_DOCUMENT = {
    "name": "wire", "num_qubits": 1, "inputs": [0], "resources": [], "groups": [],
    "outputs": [0], "target": {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
}


# Flag -> input file contents; pattern-file cases are (path, value) edits of
# the cnot document, (path, value, factory) edits of another pattern's
# document or whole documents, and "--n" cases give chain-cz's chain length
# instead.
# DIRECTORY puts a directory where the file should be, and bytes are written
# as they are; "--out" cases are derive's output path.
# The register cases are one qubit or one chain link past
# MAX_REGISTER_QUBITS, or a resource declaring more qubits than the
# register has: each must be refused before any state is allocated.
MALFORMED_INPUTS = {
    "chain-past-register-limit": ("--n", 9),
    "document-past-register-limit": ("--pattern-file", (("num_qubits",), 64)),
    "resource-past-register": ("--pattern-file", (("resources", 0, "qubits"), list(range(64)))),
    "resource-without-qubits": ("--pattern-file", (("resources", 0, "qubits"), None)),
    "short-target-entry": ("--pattern-file", (("target", "entries", 0, 0), [1])),
    "list-valued-label": ("--pattern-file", (("groups", 0, "vectors", 0, "label"), [[0, 1]])),
    "sign-in-bit-slot": ("--pattern-file", (("groups", 0, "vectors", 1, "label"), ["+", 0, 0, "+"])),
    "object-vocabulary": ("--pattern-file", (("vocabulary",), {"a": 1})),
    # A name or variant is printed in every report, so it must be a string.
    "object-name": ("--pattern-file", (("name",), {"a": [1]}, catalog.phase_gate_pattern)),
    "list-variant": ("--pattern-file", (("variant",), [1, 2], catalog.phase_gate_pattern)),
    # One correction cell of the phase document (one output wire) names a
    # factor its wires cannot carry.
    "factor-off-the-outputs": (
        "--pattern-file",
        (("corrections", 1, "ops"), [{"name": "sx", "wires": [5]}], catalog.phase_gate_pattern),
    ),
    "factor-on-a-repeated-wire": (
        "--pattern-file",
        (("corrections", 1, "ops"), [{"name": "Ucz", "wires": [0, 0]}], catalog.phase_gate_pattern),
    ),
    "entangler-on-one-wire": (
        "--pattern-file",
        (("corrections", 1, "ops"), [{"name": "Ucz", "wires": [0]}], catalog.phase_gate_pattern),
    ),
    "factor-on-a-negative-wire": (
        "--pattern-file",
        (("corrections", 1, "ops"), [{"name": "sx", "wires": [-1]}], catalog.phase_gate_pattern),
    ),
    "list-valued-factor-name": (
        "--pattern-file",
        (("corrections", 1, "ops"), [{"name": ["sx"], "wires": [0]}], catalog.phase_gate_pattern),
    ),
    # A fifth phase cell lists outcome (1) again.
    "repeated-correction-cell": (
        "--pattern-file",
        (("corrections",), _PHASE_CELLS + [_REPEATED_CELL], catalog.phase_gate_pattern),
    ),
    # JSON true and false are not bits: [[true]] once read as (1), and
    # false once read as 0 in a group vector's label.
    "true-label-on-first-cell": (
        "--pattern-file", (("corrections", 0, "labels"), [[True]], catalog.phase_gate_pattern),
    ),
    "true-label-on-second-cell": (
        "--pattern-file", (("corrections", 1, "labels"), [[True]], catalog.phase_gate_pattern),
    ),
    "false-in-group-label": (
        "--pattern-file", (("groups", 0, "vectors", 0, "label"), [False, 0, 0, "+"]),
    ),
    # The phase document's second vector also labelled (1), so its cell (2)
    # names no outcome; the labels are the fault, and the error says so.
    "repeated-group-label-with-cells": (
        "--pattern-file", (("groups", 0, "vectors", 1, "label"), [1], catalog.phase_gate_pattern),
    ),
    # Counts, qubits, wires and dimensions are JSON integers, and the parts
    # of a coefficient or matrix entry are JSON numbers: true and false,
    # fractions and digit strings were once read as numbers.
    "boolean-inputs": ("--pattern-file", (("inputs",), [False, True])),
    "fractional-inputs": ("--pattern-file", (("inputs",), [0.0, 1.9])),
    "fractional-qubit-count": ("--pattern-file", (("num_qubits",), 9.5)),
    "string-qubit-count": ("--pattern-file", (("num_qubits",), "9")),
    "string-outputs": ("--pattern-file", (("outputs",), "46")),
    # A string where a list of qubits or wires is due is refused as a
    # whole, not one character at a time.
    "string-inputs": ("--pattern-file", (("inputs",), "01")),
    "number-outputs": ("--pattern-file", (("outputs",), 4)),
    "string-resource-qubits": ("--pattern-file", (("resources", 0, "qubits"), "12")),
    "string-group-qubits": ("--pattern-file", (("groups", 0, "qubits"), "0123")),
    "object-factor-wires": (
        "--pattern-file", (("corrections", 0, "ops", 0, "wires"), {"0": 0}, catalog.phase_gate_pattern),
    ),
    "boolean-group-qubits": (
        "--pattern-file", (("groups", 0, "qubits"), [False, True], catalog.phase_gate_pattern),
    ),
    "fractional-resource-qubits": (
        "--pattern-file", (("resources", 0, "qubits"), [1.5, 2.2], catalog.phase_gate_pattern),
    ),
    "boolean-factor-wire": (
        "--pattern-file", (("corrections", 0, "ops", 0, "wires"), [False], catalog.phase_gate_pattern),
    ),
    "string-factor-wires": (
        "--pattern-file", (("corrections", 0, "ops", 0, "wires"), "0", catalog.phase_gate_pattern),
    ),
    "fractional-target-dim": ("--pattern-file", (("target", "dim"), 2.7, catalog.phase_gate_pattern)),
    "boolean-coefficient": (
        "--pattern-file",
        (("resources", 0, "terms", 0, "coeff"), [True, False], catalog.phase_gate_pattern),
    ),
    "boolean-target-entry": (
        "--pattern-file", (("target", "entries", 0, 0), [True, False], catalog.phase_gate_pattern),
    ),
    "boolean-unitary": ("--u", [[[True, False], [0, 0]], [[0, 0], [True, False]]]),
    # Three of the phase document's four cells, or none: every outcome
    # needs one.
    "missing-correction-cell": (
        "--pattern-file", (("corrections",), _PHASE_CELLS[:3], catalog.phase_gate_pattern),
    ),
    "empty-correction-list": ("--pattern-file", (("corrections",), [], catalog.phase_gate_pattern)),
    # Entries that repeat qubits, each refused before it builds its state or
    # basis (they once all did, and 40 such resources took 1.3 GB).
    "reused-resource-qubits": ("--pattern-file", reused_resource_document(8, 20)),
    "reused-group-qubits": ("--pattern-file", reused_group_document(3, 10)),
    # Numbers a float cannot hold, or that overflow once summed, squared or
    # multiplied; JSON's Infinity and NaN are read as floats.
    "overflowing-coefficient": ("--pattern-file", (("resources", 0, "terms", 0, "coeff"), [10**400, 0])),
    "infinite-coefficient": (
        "--pattern-file", (("groups", 0, "vectors", 0, "terms", 0, "coeff"), [float("inf"), 0]),
    ),
    "nan-coefficient": ("--pattern-file", (("resources", 0, "terms", 0, "coeff"), [float("nan"), 0])),
    "coefficient-square-overflows": ("--pattern-file", (("resources", 0, "terms", 0, "coeff"), [1e300, 0])),
    "infinite-qubit-count": ("--pattern-file", (("num_qubits",), float("inf"))),
    "infinite-qubit-index": ("--pattern-file", (("resources", 0, "qubits", 0), float("inf"))),
    "huge-target-entry": ("--pattern-file", (("target", "entries", 0, 0), [1e300, 0])),
    "overflowing-unitary": ("--u", [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]),
    "huge-unitary-entry": ("--u", [[[1e300, 0], [0, 0]], [[0, 0], [1, 0]]]),
    "ragged-unitary": ("--u", [[[1, 0], [0, 0]], [[0, 0]]]),
    "object-unitary": ("--u", {"a": 1}),
    # A gate maps its input wires to as many output wires: qubit 3 in |0>
    # added as a second output of the one-wire phase gate, or its output
    # measured in {|0>, |1>} so none is left.
    "second-output-wire": (
        "--pattern-file",
        _phase_document_with_outputs(
            4, [{"qubits": [3], "terms": _basis_state("0")}], [], [2, 3],
            [[float(i == j) for j in range(4)] for i in range(4)],
        ),
    ),
    "no-output-wire": (
        "--pattern-file",
        _phase_document_with_outputs(
            3,
            [],
            [{"qubits": [2], "vectors": [
                {"label": [0], "terms": _basis_state("0")},
                {"label": [1], "terms": _basis_state("1")},
            ]}],
            [],
            [[1.0]],
        ),
    ),
    # Output wires are an ordered subset of the register: one past it,
    # one repeated or one negative once passed validation and failed in
    # the contraction with a traceback.
    "output-past-register": ("--pattern-file", _two_wire_phase_document([2, 99])),
    "repeated-output": ("--pattern-file", _two_wire_phase_document([2, 2])),
    "negative-output": ("--pattern-file", _two_wire_phase_document([2, -1])),
    # Every input wire is teleported through some group: a pattern without
    # groups, or one whose input wire passes through unmeasured to an
    # output, once verified.
    "group-less": ("--pattern-file", _GROUP_LESS_DOCUMENT),
    "pass-through-input": ("--pattern-file", _pass_through_phase_document()),
    # A group one qubit past half the register limit: its basis alone would
    # hold more amplitudes than the widest register.
    "group-past-register-limit": ("--pattern-file", wide_group_document(sv.MAX_REGISTER_QUBITS // 2 + 1)),
    "directory-pattern-file": ("--pattern-file", DIRECTORY),
    "binary-pattern-file": ("--pattern-file", b"\x89PNG\r\n\x1a\n\xff\xfe"),
    "directory-unitary": ("--u", DIRECTORY),
    "binary-unitary": ("--u", b"\xff\xfe\x00"),
    # Arrays nested past the interpreter's recursion limit: the JSON
    # decoder gives up before the document can be read at all.
    "deeply-nested-pattern-file": ("--pattern-file", b"[" * 100000 + b"]" * 100000),
    "deeply-nested-unitary": ("--u", b"[" * 100000 + b"]" * 100000),
    "truncated-unitary": ("--u", b"[[1, 2"),
    "directory-out": ("--out", DIRECTORY),
    # Flags that do not apply to the chosen pattern; FILE is a valid
    # document, and the error names the flag before FILE or the value.
    "pattern-with-pattern-file": ("flags", ("--pattern", "cnot", "--pattern-file", "FILE")),
    "chain-length-on-cnot": ("flags", ("--pattern", "cnot", "--n", "3")),
    "resource-with-pattern-file": ("flags", ("--pattern-file", "FILE", "--resource", "bell")),
}


@pytest.mark.parametrize(
    "argv,select",
    [
        *((("--pattern", name), True) for name in sorted(catalog.catalog_entries()) if name != "chain-cz"),
        (("--pattern", "chain-cz", "--n", "3"), True),
        *((("--pattern", "cz", "--resource", r, "--basis", b), True)
          for r in catalog.CZ_RESOURCES for b in catalog.BASIS_KINDS),
        (("--pattern", "toffoli"), False),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else f"select={value}",
)
def test_every_resolved_catalog_pattern_validates(argv, select):
    # Toffoli's selected pattern included: no command simulates a pattern
    # that basis validation refuses.
    pattern, _, _ = resolve_pattern(build_parser().parse_args(["verify", *argv]), select=select)
    validate_pattern(pattern)


def _run_malformed(capsys, tmp_path, command, case):
    flag, document = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    argv = [command, flag, str(path)]
    if flag == "--n":
        argv = [command, "--pattern", "chain-cz", "--n", str(document)]
    elif flag == "--u":
        argv += ["--pattern", "single-qubit"]
    elif flag == "--out":
        argv += ["--pattern", "phase"]
    elif flag == "flags":
        argv = [command] + [str(path) if a == "FILE" else a for a in document]
        document = pattern_to_document(catalog.phase_gate_pattern())
    elif isinstance(document, tuple):
        document = _document_with(*document)
    if document is DIRECTORY:
        path.mkdir()
    elif isinstance(document, bytes):
        path.write_bytes(document)
    else:
        path.write_text(json.dumps(document))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if flag == "flags":
        assert argv[-2] in err
    return err


@pytest.mark.parametrize(
    "case", sorted(c for c, (flag, _) in MALFORMED_INPUTS.items() if flag != "--out")
)
def test_malformed_input_is_one_line_usage_error(capsys, tmp_path, case):
    _run_malformed(capsys, tmp_path, "verify", case)


@pytest.mark.parametrize(
    "case,error",
    [
        ("repeated-correction-cell", "correction table lists outcome (1) twice"),
        ("true-label-on-second-cell", "label [True] is not a list of bits and signs"),
        ("repeated-group-label-with-cells", "group 0 labels are not a bijection onto its basis vectors"),
        ("sign-in-bit-slot", "group 0 labels differ in length or in which slots hold signs"),
        ("false-in-group-label", "label [False, 0, 0, '+'] is not a list of bits and signs"),
        ("missing-correction-cell", "correction table has 3 entries, expected 4"),
        ("empty-correction-list", "correction table has 0 entries, expected 4"),
        ("string-qubit-count", "'9' is not an integer"),
        ("string-outputs", "outputs must be a list of integers, got '46'"),
        ("string-resource-qubits", "resource 0 qubits must be a list of integers, got '12'"),
        ("boolean-inputs", "inputs must be a list of integers, got [False, True]"),
        ("fractional-inputs", "inputs must be a list of integers, got [0.0, 1.9]"),
        ("boolean-target-entry", "[True, False] is not a pair of numbers"),
        ("truncated-unitary", "malformed document: Expecting ',' delimiter: line 1 column 7 (char 6)"),
        ("output-past-register", "qubit index 99 out of range for 4 qubits"),
        ("repeated-output", "qubit subset (2, 2) contains duplicates"),
        ("negative-output", "qubit index -1 out of range for 4 qubits"),
        ("group-less", "input wires [0] are not measured by any group"),
        ("pass-through-input", "input wires [3] are not measured by any group"),
        (
            "group-past-register-limit",
            "group 0 has 12 qubits, but a basis wider than 11 qubits exceeds the 22-qubit register limit",
        ),
    ],
    ids=[
        "repeated-cell", "boolean", "repeated-label", "sign-in-bit-slot", "false-in-group-label",
        "missing-cell", "no-cells", "string-count", "string-outputs", "string-resource-qubits",
        "boolean-inputs", "fractional-inputs", "boolean-entry", "truncated-unitary",
        "output-past-register", "repeated-output", "negative-output", "group-less",
        "pass-through-input", "wide-group",
    ],
)
def test_document_errors_name_their_cause(capsys, tmp_path, case, error):
    assert _run_malformed(capsys, tmp_path, "verify", case) == f"error: {error}\n"


def test_group_vector_count_is_checked_before_any_vector_is_built(capsys, tmp_path, monkeypatch):
    from telegate import patterns

    built = []
    state_of = patterns._state_of
    monkeypatch.setattr(patterns, "_state_of", lambda *a: built.append(a[2]) or state_of(*a))
    doc = pattern_to_document(catalog.cnot_pattern())
    vectors = doc["groups"][0]["vectors"]
    vectors.append({"label": vectors[0]["label"], "terms": "not terms"})
    (tmp_path / "input.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--pattern-file", str(tmp_path / "input.json"))
    assert code == 2 and out == ""
    expected = f"group 0 basis has {len(vectors)} vectors, expected {len(vectors) - 1}"
    assert err == f"error: {expected} (completeness violation)\n"
    assert "group 0" not in built


@pytest.mark.parametrize(
    "case",
    [
        "sign-in-bit-slot",
        "object-vocabulary",
        "factor-off-the-outputs",
        "factor-on-a-repeated-wire",
        "entangler-on-one-wire",
        "factor-on-a-negative-wire",
        "directory-pattern-file",
        "directory-out",
        "second-output-wire",
        "no-output-wire",
        "output-past-register",
        "repeated-output",
        "negative-output",
        "group-less",
        "pass-through-input",
        "group-past-register-limit",
    ],
)
def test_malformed_document_is_one_line_usage_error_for_derive(capsys, tmp_path, case):
    _run_malformed(capsys, tmp_path, "derive", case)


@pytest.mark.parametrize(
    "case",
    [
        "second-output-wire", "no-output-wire", "output-past-register", "repeated-output",
        "negative-output", "group-less", "pass-through-input", "group-past-register-limit",
    ],
)
def test_output_count_error_is_one_line_usage_error_for_loss_check(capsys, tmp_path, case):
    _run_malformed(capsys, tmp_path, "loss-check", case)


@pytest.mark.parametrize(
    "gate,wires,code,line",
    [
        (
            "cnot", 5, 2,
            "error: the full vocabulary names controlled-X recoveries on at most 4 output wires, not 5",
        ),
        ("cz", 5, 0, "  (4);(4);(4);(4);(4): Ucz[0,1](I x I x I x I x I)"),
        ("cnot", 4, 0, "  (4);(4);(4);(4): Ucx[0,1](I x I x I x I)"),
    ],
    ids=["cnot-5-wires", "cz-5-wires", "cnot-4-wires"],
)
def test_controlled_x_recoveries_are_named_on_at_most_four_wires(tmp_path, gate, wires, code, line):
    # A controlled-X word is read from a table of GL(n, 2): 20160 maps for 4
    # wires, 9999360 for 5. An identity linear part (controlled-Z) needs no
    # table, and a wider one is refused by its wire count. Each derivation
    # runs in a fresh process, so building the 5-wire table would time out.
    two_wire = np.eye(4)[[0, 1, 3, 2]] if gate == "cnot" else CZ
    path = tmp_path / "teleports.json"
    path.write_text(json.dumps(teleports_document(wires, np.kron(two_wire, np.eye(1 << (wires - 2))))))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(telegate.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "telegate.cli", "derive", "--pattern-file", str(path)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == code
    if code:
        assert (proc.stdout, proc.stderr) == ("", line + "\n")
    else:
        assert line in proc.stdout.splitlines()


FAN_OUT = (("Ucx", (0, 1)), ("Ucx", (0, 2)))
SWAP_12 = (("Ucx", (1, 2)), ("Ucx", (2, 1)), ("Ucx", (1, 2)))


@pytest.mark.parametrize(
    "word,entangler",
    [
        (FAN_OUT, "Ucx[0,1]Ucx[0,2]"),
        (FAN_OUT + (("Ucz", (0, 1)),), "Ucx[0,2]Ucx[0,1]Ucz[0,1]"),
        (SWAP_12 + FAN_OUT, "Ucx[1,2]Ucx[2,1]Ucx[1,2]Ucx[0,1]Ucx[0,2]"),
    ],
    ids=["fan-out", "fan-out-cz01", "swap12-fan-out"],
)
def test_three_wire_recoveries_print_their_entangler(capsys, tmp_path, word, entangler):
    # Each recovery of three teleports aimed at T is T times a Pauli string,
    # so every line names T's entangler. Fan-out, with or without the swap
    # of wires 1 and 2, keeps its controlled-swap word; fan-out then CZ01
    # is not one of those classes and is named by its own entangler.
    path = tmp_path / "teleports.json"
    path.write_text(json.dumps(teleports_document(3, CorrectionOp(word).matrix(3))))
    code, out, _ = run(capsys, "derive", "--pattern-file", str(path))
    assert code == 0
    ops = [line.split(": ")[1] for line in out.splitlines()[1:]]
    assert len(ops) == 64
    assert all(op.startswith(entangler + "(") for op in ops)


@pytest.mark.parametrize(
    "name,kwargs", [("cnot", {}), ("cz-mismatched", {}), ("fredkin", {}), ("chain-cz", {"n": 3})],
    ids=["cnot", "cz-mismatched", "fredkin", "chain-cz-3"],
)
def test_group_vector_order_does_not_change_any_report(capsys, tmp_path, name, kwargs):
    # The catalog document and a copy with each group's vectors shuffled
    # describe one pattern, so every report must come out byte for byte.
    doc = pattern_to_document(catalog.build_pattern(name, **kwargs))
    paths = tmp_path / "sorted.json", tmp_path / "shuffled.json"
    for path, text in zip(paths, (doc, shuffled_document(doc, seed=7))):
        path.write_text(json.dumps(text))
    for command in ("verify", "derive", "loss-check"):
        for fmt in ("text", "json", "csv"):
            runs = [run(capsys, command, "--pattern-file", str(path), "--format", fmt) for path in paths]
            assert runs[0] == runs[1], (command, fmt)


@functools.cache
def _catalog_document(name):
    return json.dumps(pattern_to_document(catalog.build_pattern(name)))


def _nodes(node, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for step, child in children:
        yield from _nodes(child, (*path, step))


# Numbers past what a float or an index can hold come up rarely on their own.
EXTREME_NUMBERS = st.sampled_from([float("inf"), float("-inf"), float("nan"), 2**64, -(10**400), 1e308])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | EXTREME_NUMBERS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_documents(draw):
    """A catalog pattern's document with one or two nodes replaced by a JSON
    value or by a copy of another node, deleted, or repeated in their list."""
    doc = json.loads(_catalog_document(draw(st.sampled_from(sorted(catalog.catalog_entries())))))
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(doc))
        path, node = draw(st.sampled_from(nodes))
        parent = dict(nodes)[path[:-1]] if path else None
        actions = ["replace", "copy"] + ["delete"] * bool(path) + ["repeat"] * isinstance(parent, list)
        action = draw(st.sampled_from(actions))
        if action == "delete":
            del parent[path[-1]]
            continue
        if action == "replace":
            value = draw(JSON_VALUES)
        else:
            value = copy.deepcopy(draw(st.sampled_from(nodes))[1] if action == "copy" else node)
        if parent is None:
            doc = value
        elif action == "repeat":
            parent.insert(path[-1], value)
        else:
            parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=120, deadline=None)
@given(mutated_documents())
def test_mutated_documents_never_crash_verify(fuzz_file, doc):
    # Exit 1 means verification or derivation failed, so it needs a document
    # the parser accepts; any other defect must be a one-line usage error.
    # derive and loss-check read the same document.
    fuzz_file.write_text(json.dumps(doc))
    for command in ("verify", "derive", "loss-check"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--pattern-file", str(fuzz_file)])
        assert code in (0, 1, 2), command
        assert "Traceback" not in err.getvalue(), command
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, command
        else:
            pattern_from_document(json.loads(fuzz_file.read_text()))


class TestList:
    def test_lists_catalog(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert "fredkin" in out and "16" in out
        assert "triple-cz" in out and "3/3/3" in out
        assert "single-qubit" in out
        assert "u:" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "json")
        doc = json.loads(out)
        names = {p["name"]: p for p in doc["patterns"]}
        assert names["fredkin"]["qubits"] == 16
        assert names["triple-cz"]["groups"] == "3/3/3"


class TestVerify:
    def test_pattern_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "phase.json"
        from telegate.patterns import save_pattern

        save_pattern(catalog.phase_gate_pattern(), path)
        code, out, _ = run(capsys, "verify", "--pattern-file", str(path))
        assert code == 0

    @pytest.mark.parametrize(
        "argv", [("--pattern", "cnot"), ("--pattern", "chain-cz", "--n", "3")], ids=["cnot", "chain-cz-3"]
    )
    def test_shuffled_correction_cells_give_identical_output(self, capsys, tmp_path, argv):
        # Cell keys become outcome positions when the document is read, so
        # the order of the cells in the file cannot reach the report.
        path, shuffled = tmp_path / "derived.json", tmp_path / "shuffled.json"
        assert run(capsys, "derive", *argv, "--out", str(path))[0] == 0
        doc = json.loads(path.read_text())
        cells = list(doc["corrections"])
        random.Random(7).shuffle(doc["corrections"])
        assert doc["corrections"] != cells
        shuffled.write_text(json.dumps(doc))
        first = run(capsys, "verify", "--pattern-file", str(path))
        assert first[0] == 0 and "verdict: PASS" in first[1]
        assert run(capsys, "verify", "--pattern-file", str(shuffled)) == first

    def test_machine_report_round_trips_bit_exactly(self, capsys):
        code, out, _ = run(capsys, "verify", "--pattern", "phase", "--format", "json")
        doc = json.loads(out)
        assert doc["kind"] == "verification" and doc["passed"] is True
        code2, out2, _ = run(capsys, "verify", "--pattern", "phase", "--format", "json")
        doc2 = json.loads(out2)
        assert repr(doc["min_fidelity"]) == repr(doc2["min_fidelity"])
        assert f'"min_fidelity": {doc["min_fidelity"]!r}' in out

    def test_output_byte_stable(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "verify", "--pattern", "cz", "--format", "json")
            outs.append(out)
        assert outs[0] == outs[1]
        texts = []
        for _ in range(2):
            _, out, _ = run(capsys, "verify", "--pattern", "cz")
            texts.append(out)
        assert texts[0] == texts[1]

    def test_reports_reference_table_verdict(self, capsys):
        code, out, _ = run(capsys, "verify", "--pattern", "cnot")
        assert code == 0
        assert "reference corrections verify: FAIL" in out
        assert "64/128" in out

    def test_controlled_phase_notes_both_readings(self, capsys):
        code, out, _ = run(capsys, "verify", "--pattern", "controlled-phase")
        assert code == 0
        assert "transposed reading (0/64 mismatches)" in out
        assert "captioned (56/64 mismatches)" in out

    @pytest.mark.parametrize(
        "argv",
        [("--pattern", "cnot"), ("--pattern", "chain-cz", "--n", "3"), ("--pattern", "toffoli")],
        ids=["cnot", "chain-cz-3", "toffoli"],
    )
    def test_register_contracted_once(self, capsys, monkeypatch, argv):
        # Derivation and both verifications share one contraction; toffoli's
        # variant selection hands its contracted maps on with the table.
        calls = []
        contract = oracle._map_chunks
        monkeypatch.setattr(oracle, "_map_chunks", lambda *a: calls.append(1) or contract(*a))
        code, _, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert len(calls) == 1

    def test_tolerance_flag(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--pattern", "phase", "--tolerance", "1e-15"
        )
        assert code in (0, 1)  # extreme tolerance may fail; flag must parse

    @pytest.mark.parametrize("value", ["-1", "nan", "2", "inf"])
    def test_tolerance_outside_unit_interval_is_usage_error(self, capsys, value):
        code, out, err = run(capsys, "verify", "--pattern", "phase", "--tolerance", value)
        assert code == 2 and out == ""
        assert err.startswith("error: --tolerance") and err.count("\n") == 1

    def test_custom_unitary_from_file(self, capsys, tmp_path):
        u = tmp_path / "u.json"
        u.write_text(json.dumps([[[0, 0], [1, 0]], [[1, 0], [0, 0]]]))  # sx
        code, out, _ = run(capsys, "verify", "--pattern", "single-qubit", "--u", str(u))
        assert code == 0

    def test_toffoli_auto_records_variants(self, capsys):
        code, out, _ = run(capsys, "verify", "--pattern", "toffoli")
        assert code == 0
        assert "variant literal: rejected" in out
        assert "variant corrected: verified" in out

    @pytest.mark.parametrize("name", ["derive_corrections_with_failures", "verify_pattern"])
    def test_toffoli_auto_derives_and_verifies_once(self, capsys, monkeypatch, name):
        # The variant selection's table and report are the ones printed.
        calls = []
        fn = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
        code, out, _ = run(capsys, "verify", "--pattern", "toffoli")
        assert code == 0 and out.endswith("verdict: PASS\n")
        assert len(calls) == 1

    def test_toffoli_auto_note_agrees_with_verdict(self, capsys, monkeypatch):
        # The exact verdict certifies the corrected variant even at
        # tolerance 0.
        code, out, err = run(capsys, "verify", "--pattern", "toffoli", "--tolerance", "0")
        assert code == 0 and err == ""
        assert "note: variant corrected: verified" in out
        assert out.endswith("verdict: PASS\n")
        # With a wrong table (Up appended to one cell) no variant verifies:
        # the corrected variant's report fails, and the notes list both
        # variants' records.
        derive = oracle.derive_corrections

        def wrong(pattern):
            cells = list(derive(pattern).items())
            key, op = cells[0]
            cells[0] = (key, CorrectionOp(op.factors + (("Up", (0,)),)))
            return CorrectionTable.from_entries(cells, pattern.layout)

        monkeypatch.setattr(oracle, "derive_corrections", wrong)
        code, out, err = run(capsys, "verify", "--pattern", "toffoli")
        assert code == 1 and err == ""
        assert "note: variant corrected: built but failed verification" in out
        assert "note: variant literal: rejected" in out
        assert "verified" not in out
        assert out.endswith("verdict: FAIL\n")

    def test_toffoli_auto_with_no_variant_built_fails(self, capsys, monkeypatch):
        def refuse(pattern):
            raise oracle.DerivationError([])

        monkeypatch.setattr(oracle, "derive_corrections", refuse)
        code, out, err = run(capsys, "verify", "--pattern", "toffoli")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[0] == "pattern: toffoli" and lines[-1] == "verdict: FAIL"
        assert lines[1].startswith("note: variant corrected: rejected: no correction found")
        assert lines[2].startswith("note: variant literal: rejected: group 0 basis")
        assert len(lines) == 4


class TestDerive:
    def test_derive_prints_table(self, capsys):
        code, out, _ = run(capsys, "derive", "--pattern", "phase")
        assert code == 0
        assert "(1): sz" in out and "(2): I" in out

    def test_derive_saves_pattern_with_corrections(self, capsys, tmp_path):
        out_path = tmp_path / "cz.json"
        code, _, _ = run(capsys, "derive", "--pattern", "cz", "--out", str(out_path))
        assert code == 0
        from telegate.patterns import load_pattern

        loaded = load_pattern(out_path)
        assert loaded.corrections is not None
        assert len(loaded.corrections) == 64

    def test_derive_csv(self, capsys):
        code, out, _ = run(capsys, "derive", "--pattern", "phase", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "outcome,op"


class TestCsvQuotedLabels:
    """A pattern file may use any string as a label. A CSV field that holds
    label text doubles each quote inside it (RFC 4180), so csv.reader gives
    every row as many fields as the header and the key text back whole."""

    @pytest.mark.parametrize("name,command", [
        ("cz", "derive"), ("cz", "verify"),
        # cz-no-ee derives no table, so these are the failed-derivation rows
        # and the lossy outcomes.
        ("cz-no-ee", "derive"), ("cz-no-ee", "verify"), ("cz-no-ee", "loss-check"),
    ])
    def test_rows_parse_and_keys_round_trip(self, capsys, tmp_path, name, command):
        doc = pattern_to_document(catalog.build_pattern(name))
        # '"' sorts before '+' and '-' as "+" did, so the outcome order stays.
        for group in doc["groups"]:
            for vector in group["vectors"]:
                vector["label"] = ['"' if x == "+" else x for x in vector["label"]]
        path = tmp_path / "quoted.json"
        path.write_text(json.dumps(doc))
        pattern = pattern_from_document(doc)
        keys = [format_key(pattern.layout.key(i)) for i in range(len(pattern.layout))]
        _, out, err = run(capsys, command, "--pattern-file", str(path), "--format", "csv")
        assert err == ""
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)
        assert all(row[0] in keys for row in rows)
        assert any('"' in row[0] for row in rows)
        if (name, command) == ("cz", "derive"):
            assert [row[0] for row in rows] == keys


class TestFailedDerivationFormats:
    """A failed derivation writes the chosen format and still exits 1."""

    @pytest.mark.parametrize("command,kind", [("verify", "verification"), ("derive", "correction-table")])
    def test_json_lists_the_first_failures(self, capsys, fredkin_partial, command, kind):
        _, _, failures = fredkin_partial
        code, out, err = run(capsys, command, "--pattern", "fredkin", "--format", "json")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["kind"] == kind and doc["pattern"] == "fredkin" and doc["passed"] is False
        assert doc["notes"] == [] and doc["unrepairable"] == len(failures) == 4096
        assert doc["failures"] == [
            {"outcome": format_key(key), "reason": reason}
            for key, reason in failures[:reports.MAX_LISTED]
        ]

    @pytest.mark.parametrize("command", ["verify", "derive"])
    def test_csv_rows_are_the_first_failures(self, capsys, fredkin_partial, command):
        _, _, failures = fredkin_partial
        code, out, err = run(capsys, command, "--pattern", "fredkin", "--format", "csv")
        assert code == 1 and err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["outcome", "reason"]
        assert rows[1:] == [[format_key(key), reason] for key, reason in failures[:reports.MAX_LISTED]]

    def test_derive_text_is_the_error_line(self, capsys, fredkin_partial):
        _, _, failures = fredkin_partial
        code, out, _ = run(capsys, "derive", "--pattern", "fredkin")
        assert code == 1
        assert out == f"derivation failed: {oracle.DerivationError(failures)}\n"

    def test_no_variant_built_is_json_with_no_failures(self, capsys, monkeypatch):
        def refuse(pattern):
            raise oracle.DerivationError([])

        monkeypatch.setattr(oracle, "derive_corrections", refuse)
        code, out, err = run(capsys, "verify", "--pattern", "toffoli", "--format", "json")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["passed"] is False and doc["unrepairable"] == 0 and doc["failures"] == []
        assert [note.split(":")[0] for note in doc["notes"]] == ["variant corrected", "variant literal"]


class TestLossCheck:
    def test_mismatched_cz_is_lossy_and_names_components(self, capsys):
        code, out, _ = run(
            capsys, "loss-check", "--pattern", "cz", "--resource", "bell",
            "--basis", "ghz",
        )
        assert code == 0
        assert "LOSSY" in out
        assert "c1" in out and "c2" in out

    def test_default_cz_not_lossy(self, capsys):
        code, out, _ = run(capsys, "loss-check", "--pattern", "cz")
        assert code == 0
        assert "not lossy" in out

    def test_unlinked_cz_lossy(self, capsys):
        code, out, _ = run(capsys, "loss-check", "--pattern", "cz-no-ee")
        assert code == 0
        assert "LOSSY" in out

    def test_toffoli_auto_neither_derives_nor_verifies(self, capsys, monkeypatch):
        # The loss check reads no table or verdict, so the auto variant is the
        # one basis validation leaves, with nothing derived or verified.
        calls = []
        for name in ("derive_corrections", "verify_pattern"):
            fn = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda *a, fn=fn, **k: calls.append(fn) or fn(*a, **k))
        code, out, err = run(capsys, "loss-check", "--pattern", "toffoli")
        assert (code, err) == (0, "") and "not lossy" in out
        assert calls == []

    def test_json_loss_report(self, capsys):
        code, out, _ = run(
            capsys, "loss-check", "--pattern", "cz-mismatched", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["lossy"] is True
        assert "c1" in doc["annihilated_components"]


class TestReproduceTable:
    def test_phase_table_rows(self, capsys):
        code, out, _ = run(capsys, "reproduce-table", "--table", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip().startswith("(")]
        recoveries = [l.split("|")[-1].strip() for l in lines]
        assert recoveries == ["sz", "I", "sz.sx", "sx"]
        assert "0/4 cells differ" in out

    def test_pi8_table(self, capsys):
        code, out, _ = run(capsys, "reproduce-table", "--table", "pi8")
        assert code == 0
        assert "0/4 cells differ" in out

    def test_swap_first_cell(self, capsys):
        code, out, _ = run(capsys, "reproduce-table", "--table", "6", "--format", "json")
        doc = json.loads(out)
        first = next(
            e for e in doc["entries"] if e["labels"] == "(0,0,0,+);(0,0,+)"
        )
        assert first["op"] == "I x I"

    def test_controlled_phase_table_reports_both_readings(self, capsys):
        code, out, _ = run(capsys, "reproduce-table", "--table", "4")
        assert code == 0
        assert "transposed" in out
        assert "0/64" in out and "56/64" in out

    def test_cnot_table_has_diff_summary(self, capsys):
        code, out, _ = run(capsys, "reproduce-table", "--table", "5")
        assert code == 0
        assert "64/128 cells differ" in out
        assert "two half-width blocks" in out

    def test_csv_grid(self, capsys):
        code, out, _ = run(capsys, "reproduce-table", "--table", "5", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].count('"(') == 8  # 8 second-group columns


class TestParity:
    def test_parity_command(self, capsys):
        code, out, _ = run(capsys, "parity", "--max-n", "3")
        assert code == 0
        assert "n=1: PASS" in out
        assert "n=2: FAIL" in out
        assert "n=3: PASS" in out


class TestCatalogMetadata:
    """The CLI reads a gate's label, reference table and table number from
    its catalog entry, so a renamed entry is picked up everywhere."""

    @pytest.fixture
    def renamed_cnot(self, monkeypatch):
        entries = catalog.catalog_entries
        monkeypatch.setattr(
            catalog,
            "catalog_entries",
            lambda: {**entries(), "cnot-copy": {**entries()["cnot"], "table": "7"}},
        )

    def test_list(self, capsys, renamed_cnot):
        code, out, _ = run(capsys, "list")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("cnot-copy "))
        assert row.endswith("controlled-NOT (control on first output)")

    def test_verify(self, capsys, renamed_cnot):
        code, out, _ = run(capsys, "verify", "--pattern", "cnot-copy")
        assert code == 0
        assert "reference corrections verify: FAIL" in out
        assert "64/128" in out

    @pytest.mark.parametrize(
        "name,kind",
        sorted((n, k) for n, e in catalog.catalog_entries().items() for k in ("reference", "captioned") if k in e),
    )
    def test_printed_tables_cover_their_pattern_outcomes(self, name, kind):
        # verify diffs a derived table against these with compare_tables,
        # which refuses tables over other outcomes; so it need not catch that.
        table = catalog.catalog_entries()[name][kind]()
        assert table.layout == catalog.build_pattern(name).layout
        assert (table.index >= 0).all()

    def test_reproduce_table(self, capsys, renamed_cnot):
        code, out, _ = run(capsys, "reproduce-table", "--table", "7")
        assert code == 0
        assert "reference table: cnot-copy" in out
        assert "64/128 cells differ" in out
