"""Command-line front end.

Subcommands: list | verify | derive | loss-check | reproduce-table.
Exit codes: 0 = pass, 1 = verification or derivation failure, 2 = usage
or schema error, 141 = stdout closed early (128 + SIGPIPE, as a shell
reports it). Output is byte-stable for fixed seed and flags.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import chain

import numpy as np

from . import catalog, oracle, reports
from . import statevec as sv
from .gates import CZ
from .patterns import GatePattern, PatternFormatError, complex_of, format_key, load_pattern, save_pattern

# The imports above leave about 21.7k objects the collector tracks (numpy,
# telegate and the standard library), and all of them live until the process
# exits, where CPython's final full collections would traverse every one
# again, 3-4 ms each. Freezing moves them into the permanent generation,
# which no later collection visits. It runs once, at import, not in main():
# a caller running main() many times in one process would otherwise freeze
# whatever garbage it had not yet collected.
gc.freeze()

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PIPE = 141

# The pattern flags, in the order they are declared and checked. Each
# applies only to the catalog entry whose ``flags`` name it.
PATTERN_FLAGS = ("n", "resource", "basis", "u")


def _flag_owners() -> dict[str, str]:
    entries = catalog.catalog_entries().items()
    return {flag: name for name, entry in entries for flag in entry.get("flags", ())}


def _load_unitary(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise PatternFormatError(f"malformed document: {exc}") from exc
    try:
        u = np.array([[complex_of(z) for z in row] for row in doc], dtype=complex)
    except (TypeError, ValueError, OverflowError):
        u = None
    if u is None or u.shape != (2, 2) or not sv.is_unitary(u):
        raise PatternFormatError(f"{path} does not hold a 2x2 unitary")
    return u


def resolve_pattern(args, select=True) -> tuple[GatePattern, list[str], oracle.VariantSelection | None]:
    """Build the requested pattern; returns it plus report notes, and the
    variant selection that derived and verified it, if ``select`` and one
    ran. A flag that does not apply to the requested pattern is a usage error."""
    if args.pattern_file and args.pattern is not None:
        raise PatternFormatError("--pattern and --pattern-file cannot be combined")
    owners = _flag_owners()
    for flag in PATTERN_FLAGS:
        if getattr(args, flag) is not None and args.pattern != owners[flag]:
            raise PatternFormatError(f"--{flag} applies only to --pattern {owners[flag]}")
    if args.pattern_file:
        return load_pattern(args.pattern_file), [], None
    name = args.pattern
    if name is None:
        raise PatternFormatError("one of --pattern or --pattern-file is required")
    # Every flag set here belongs to this entry's factory.
    flags = {f: getattr(args, f) for f in PATTERN_FLAGS if getattr(args, f) is not None}
    notes: list[str] = []
    # Metadata cannot read a file: --u names one, and the factory takes its matrix.
    if args.u is not None:
        flags["u"] = _load_unitary(args.u)
    elif name == "single-qubit":
        notes.append("no --u given; using the Hadamard gate")
    # Metadata cannot require --n, add the parity note or set the controlled-Z target.
    if name == "chain-cz":
        if args.n is None:
            raise PatternFormatError("chain-cz needs --n (number of linking pairs)")
        if args.n % 2 == 0:
            notes.append(
                "even chain: catalog target is the identity-signed variant; "
                "verification below runs against controlled-Z (parity law)"
            )
        return catalog.build_pattern(name, **flags).with_target(CZ), notes, None
    # Metadata cannot run the selection, which derives and verifies each variant.
    # Unselected, the catalog default is the one variant that validates.
    if name == "toffoli" and select:
        tol = getattr(args, "tolerance", oracle.FIDELITY_TOL)  # verify alone has the flag
        selection = oracle.select_toffoli_variant(args.seed, tol)
        notes += [f"variant {var}: {text}" for var, text in sorted(selection.record.items())]
        return selection.pattern, notes, selection
    return catalog.build_pattern(name, **flags), notes, None


def _emit(args, text_fn, json_fn, csv_fn=None) -> None:
    """Write the output in the chosen format: each function returns the
    text, or an iterable of its pieces, which are written as they come.
    Text and JSON end with a newline. A command whose ``--format`` offers
    no csv passes no csv function."""
    if args.format == "json":
        out, end = json_fn(), "\n"
    elif args.format == "csv":
        out, end = csv_fn(), ""
    else:
        out, end = text_fn(), "\n"
    sys.stdout.writelines([out] if isinstance(out, str) else out)
    sys.stdout.write(end)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_list(args) -> int:
    rows = []
    for name, entry in sorted(catalog.catalog_entries().items()):
        pattern = catalog.build_pattern(name)
        groups = "/".join(str(len(g.qubits)) for g in pattern.groups)
        rows.append(
            {"name": name, "qubits": pattern.num_qubits, "groups": groups,
             "target": entry["target"], "params": entry["params"]}
        )
    lines = ["pattern".ljust(18) + "qubits".ljust(7) + "groups".ljust(10) + "target"]
    lines += [
        r["name"].ljust(18) + str(r["qubits"]).ljust(7) + r["groups"].ljust(10) + r["target"]
        + (f"  [{r['params']}]" if r["params"] else "")
        for r in rows
    ]
    cells = ["name,qubits,groups,target,params"]
    cells += ['{name},{qubits},"{groups}","{target}","{params}"'.format(**r) for r in rows]
    _emit(
        args,
        lambda: "\n".join(lines),
        lambda: reports.dumps({"kind": "catalog", "patterns": rows}),
        lambda: "\n".join(cells) + "\n",
    )
    return EXIT_PASS


def _failed(args, kind: str, pattern: GatePattern, notes: list[str], lines, failures=()) -> int:
    """A failure with no report to show: the text ``lines``; as JSON, the
    pattern, its notes, the number of unrepairable outcomes and the first
    MAX_LISTED of them with their reasons; as CSV, those outcomes' rows."""
    def listed():
        return [(format_key(key), reason) for key, reason in failures[:reports.MAX_LISTED]]

    def json_text():
        doc = {"kind": kind, "pattern": pattern.name, "passed": False, "notes": notes}
        doc.update(unrepairable=len(failures), failures=[{"outcome": k, "reason": r} for k, r in listed()])
        return reports.dumps(doc)

    def csv_text():
        rows = (f'"{reports.csv_escaped(k)}","{reports.csv_escaped(r)}"' for k, r in listed())
        return "\n".join(["outcome,reason", *rows]) + "\n"

    _emit(args, lambda: "\n".join(lines), json_text, csv_text)
    return EXIT_FAIL


def cmd_verify(args) -> int:
    """Verify with the pattern's own corrections when it ships them,
    otherwise with freshly derived ones; the other table (derived, or the
    printed reference) is verified too and diffed, per report notes. A
    variant selection's table and report are used as they are."""
    if not 0 <= args.tolerance < 1:
        raise PatternFormatError(f"--tolerance must lie in [0, 1), got {args.tolerance!r}")
    pattern, notes, selection = resolve_pattern(args)
    entry = {} if args.pattern_file else catalog.catalog_entries().get(args.pattern, {})
    primary, report = pattern.corrections, None
    secondary, secondary_name = None, ""

    def failed(*lines: str, failures=()) -> int:
        head = [f"pattern: {pattern.name}", *(f"note: {note}" for note in notes)]
        text = [*head, *lines, "verdict: FAIL"]
        return _failed(args, "verification", pattern, notes, text, failures)

    if selection is not None:
        primary, report = selection.table, selection.report
        if report is None:
            return failed()
    elif primary is None:
        try:
            primary = oracle.derive_corrections(pattern)
        except oracle.DerivationError as exc:
            return failed(f"derivation failed: {exc}", failures=exc.failures)
        if "reference" in entry:
            secondary, secondary_name = entry["reference"](), "reference"
    else:
        # The shipped table is a reference transcription (or came from a
        # pattern file); check it against a freshly derived one.
        try:
            secondary, secondary_name = oracle.derive_corrections(pattern), "derived"
        except oracle.DerivationError as exc:
            notes.append(f"derivation failed: {exc}")

    def verify(table):
        return oracle.verify_pattern(
            pattern, corrections=table, seed=args.seed, fidelity_tol=args.tolerance
        )

    if report is None:
        report = verify(primary)
    report.notes.extend(notes)

    if secondary is not None:
        # Both tables are complete and over the pattern's outcomes: a derived
        # table by construction, a catalog reference by its layout.
        report.table_diff = oracle.compare_tables(primary, secondary, pattern.num_outputs)
        other = verify(secondary)
        report.notes.append(
            f"{secondary_name} corrections verify: "
            f"{'PASS' if other.passed else 'FAIL'} "
            f"(min fidelity {other.min_fidelity!r})"
        )
    if "captioned" in entry:
        transposed = report.table_diff
        captioned = oracle.compare_tables(primary, entry["captioned"](), pattern.num_outputs)
        report.notes.append(
            "printed grid matches the transposed reading "
            f"({transposed.mismatch_count}/{transposed.total} mismatches) vs "
            f"captioned ({captioned.mismatch_count}/{captioned.total} mismatches)"
        )

    _emit(
        args,
        lambda: reports.render_verification(report),
        lambda: reports.verification_json_pieces(report),
        lambda: reports.verification_csv_pieces(report),
    )
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_derive(args) -> int:
    pattern, notes, selection = resolve_pattern(args)
    table = selection.table if selection else None
    if table is None:
        try:
            table = oracle.derive_corrections(pattern)
        except oracle.DerivationError as exc:
            text = [f"derivation failed: {exc}"]
            return _failed(args, "correction-table", pattern, notes, text, exc.failures)
    if args.out:
        save_pattern(pattern.with_corrections(table), args.out)
        notes.append(f"pattern with derived corrections written to {args.out}")

    def cells(line: str, escape=str):
        """``line`` formatted with each cell's key text and op, each passed
        through ``escape``, one piece per block."""
        for block in reports.table_cell_blocks(table, pattern.num_outputs, escape):
            yield "".join(line.format(key, op) for key, op in block)

    head = f"derived corrections for {pattern.name} ({len(table)} outcomes)"
    _emit(
        args,
        lambda: chain([head], cells("\n  {}: {}"), (f"\nnote: {n}" for n in notes)),
        lambda: reports.table_json_pieces(pattern.name, table, pattern.num_outputs),
        lambda: chain(["outcome,op\n"], cells('"{}","{}"\n', reports.csv_escaped)),
    )
    return EXIT_PASS


def cmd_loss_check(args) -> int:
    pattern, _, _ = resolve_pattern(args, select=False)
    report = oracle.detect_information_loss(pattern, seed=args.seed)
    _emit(
        args,
        lambda: reports.render_loss(report),
        lambda: reports.dumps(reports.loss_to_doc(report)),
        lambda: reports.loss_to_csv(report),
    )
    return EXIT_PASS


def cmd_parity(args) -> int:
    results = oracle.parity_experiment(args.max_n, seed=args.seed)
    _emit(
        args,
        lambda: reports.render_parity(results),
        lambda: reports.dumps(reports.parity_to_doc(results)),
    )
    return EXIT_PASS


# The sign written before a unit coefficient, by its rounded (real, imag).
_UNIT_SIGNS = {(1, 0): "+", (-1, 0): "-", (0, 1): "+i", (0, -1): "-i"}


def _coeff_str(z: complex, var: str) -> str:
    sign = _UNIT_SIGNS.get((int(round(z.real)), int(round(z.imag))))
    return f"+({z.real:+.3f}{z.imag:+.3f}i){var}" if sign is None else sign + var


def _teleport_state_strings(pattern: GatePattern) -> dict:
    """Pre-correction output of each outcome, by key text, written over
    input amplitudes a, b. Only for single-output-wire patterns with
    monomial branch maps."""
    strings = {}
    for key, m in oracle.outcome_maps(pattern).items():
        scale = 1.0 / np.abs(m).max()
        shown = zip(*np.nonzero(np.abs(m) > sv.SHOWN_AMP))
        text = " ".join(_coeff_str(m[r, c] * scale, "ab"[c]) + f"|{r}>" for r, c in shown)
        strings[format_key(key)] = text[1:] if text.startswith("+") else text
    return strings


def cmd_reproduce_table(args) -> int:
    entries = catalog.catalog_entries()
    ids = {entry["table"]: name for name, entry in entries.items() if "table" in entry}
    table_id = ids.get(args.table, args.table)
    if table_id not in ids.values():
        raise PatternFormatError(
            f"unknown table id {args.table!r}; choose {'/'.join(ids)} or "
            f"{'/'.join(ids.values())}"
        )
    entry = entries[table_id]
    pattern = catalog.build_pattern(table_id)
    derived = oracle.derive_corrections(pattern)
    diff = oracle.compare_tables(derived, entry["reference"](), pattern.num_outputs)
    fields = {"diffs": {"printed": reports.table_diff_to_doc(diff)}}
    title = f"reference table: {table_id}"
    if pattern.num_outputs == 1:
        # A one-wire table has four cells, so every format is built.
        states = _teleport_state_strings(pattern)
        cells = [cell for block in reports.table_cell_blocks(derived, 1) for cell in block]
        lines = [title, "outcome | state before recovery | recovery"]
        lines += [f"  {key:6s}| {states[key]:22s}| {op}" for key, op in cells]
        text = "\n".join(lines + [reports.render_table_diff(diff)])
        csv = "".join(["outcome,state,op\n", *(f'"{k}","{states[k]}","{op}"\n' for k, op in cells)])
        fields["states"] = [{"labels": key, "state": states[key]} for key, _ in cells]
    else:
        fields["footer"] = footer = (
            "layout: first-group outcomes as rows, second-group outcomes as columns; "
            "the reference prints this split into two half-width blocks"
        )
        text = reports.render_grid(title, derived, 2, footer) + "\n" + reports.render_table_diff(diff)
        if "captioned" in entry:
            captioned = oracle.compare_tables(derived, entry["captioned"](), 2)
            fields["diffs"]["printed-as-captioned"] = reports.table_diff_to_doc(captioned)
            text += (
                f"\nprinted grid matches the transposed reading ({diff.mismatch_count}"
                f"/{diff.total} mismatches) not the captioned one "
                f"({captioned.mismatch_count}/{captioned.total} mismatches)"
            )
        csv = reports.grid_to_csv(derived, 2)

    def json_pieces():
        return reports.table_json_pieces(table_id, derived, pattern.num_outputs, **fields)

    _emit(args, lambda: text, json_pieces, lambda: csv)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telegate",
        description="Verify measurement-based quantum gate patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    owners = _flag_owners()

    def add_common(p, pattern_args=True, formats=("text", "json", "csv")):
        p.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
        p.add_argument("--format", choices=formats, default="text")
        if pattern_args:
            p.add_argument("--pattern", help="catalog pattern name")
            p.add_argument("--pattern-file", help="pattern document path")
            p.add_argument("--n", type=int, help=f"chain length for {owners['n']}")
            p.add_argument(
                "--resource", choices=tuple(catalog.CZ_RESOURCES),
                help=f"linking-pair state for {owners['resource']}",
            )
            p.add_argument(
                "--basis", choices=catalog.BASIS_KINDS,
                help=f"first-group basis for {owners['basis']}",
            )
            p.add_argument("--u", help=f"JSON file with a 2x2 unitary for {owners['u']}")

    p = sub.add_parser("list", help="list the pattern catalog")
    add_common(p, pattern_args=False)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("verify", help="verify a pattern against its target")
    add_common(p)
    p.add_argument("--tolerance", type=float, default=oracle.FIDELITY_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="derive the correction table of a pattern")
    add_common(p)
    p.add_argument("--out", help="write the pattern with derived corrections here")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("loss-check", help="detect information loss in a pattern")
    add_common(p)
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("parity", help="chain-length parity experiment")
    add_common(p, pattern_args=False, formats=("text", "json"))
    p.add_argument("--max-n", type=int, default=5)
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("reproduce-table", help="re-derive a reference correction table")
    add_common(p, pattern_args=False)
    p.add_argument("--table", required=True, help="2-6 or a gate name")
    p.set_defaults(func=cmd_reproduce_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise sv.UsageError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except BrokenPipeError:
        # The reader went away: say nothing, and send the final flush of
        # the buffered output to the null device so it cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (
        PatternFormatError, sv.UsageError, sv.DegenerateStateError, OSError, UnicodeDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oracle.MissingCorrectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
