"""Gate patterns: resources, joint-measurement groups and correction tables.

A :class:`GatePattern` is the full recipe implementing one logical gate by
measurement alone: which register qubits carry the inputs, which ancilla
subsets are prepared in which entangled states, which ordered groups of
qubits are jointly measured in which orthonormal bases, which wires carry
the result, and (when known) which correction operator repairs each
measurement outcome.

Outcome labels are tuples in the written order of the basis construction,
bits first and the branch sign last, e.g. ``(0, 1, "+")``. An outcome key
holds one label per group in declared group order, and
:class:`OutcomeLayout` numbers the keys; correction tables are indexed by
that number. Each group lists its labels sorted, so that number runs in
key order.
"""
from __future__ import annotations

import cmath
import json
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from . import statevec as sv
from .gates import CZ, I2, PHASE, SX, SZ

Label = tuple
OutcomeKey = tuple


class PatternFormatError(ValueError):
    """A pattern document or pattern structure violates the schema."""


ELEMENTARY_OPS: dict[str, np.ndarray] = {
    "I": I2,
    "sx": SX,
    "sz": SZ,
    "Up": PHASE,
    "Ucz": CZ,
    # Controlled-X, control = first tagged wire. Needed by the three-qubit
    # gate corrections: their targets sit outside the Clifford group, so
    # some measurement byproducts conjugate into two-qubit Clifford
    # recoveries rather than Pauli strings.
    "Ucx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}

ENTANGLING_OPS = ("Ucz", "Ucx")

# Correction vocabularies derivation names recoveries in (see oracle._name_recoveries).
VOCABULARIES = ("pauli_phase", "full")


def _embed(op: np.ndarray, wires: tuple[int, ...], num_wires: int) -> np.ndarray:
    """Operator acting as ``op`` on ``wires`` and identity elsewhere."""
    n, k = num_wires, len(wires)
    t = np.eye(1 << n, dtype=complex).reshape([2] * n + [1 << n])
    t = np.moveaxis(t, wires, range(k))
    m = op @ t.reshape(1 << k, -1)
    t = m.reshape([2] * n + [1 << n])
    t = np.moveaxis(t, range(k), wires)
    return t.reshape(1 << n, 1 << n)


@lru_cache(maxsize=64)
def _factor_matrix(name: str, wires: tuple[int, ...], num_wires: int) -> np.ndarray:
    """The elementary factor ``name`` on ``wires`` of ``num_wires`` wires,
    embedded once per (name, wires, width) and read-only because every
    caller shares it. Correction vocabularies use a few dozen factors, so
    the bound holds all of them."""
    try:
        op = ELEMENTARY_OPS[name]
    except KeyError:
        raise PatternFormatError(f"unknown correction factor {name!r}") from None
    mat = _embed(op, wires, num_wires)
    mat.flags.writeable = False
    return mat


def _chain_text(names: list[str]) -> str:
    """One wire's factor chain in matrix order, e.g. ``sz.Up``; ``I`` when
    it is empty."""
    return ".".join(names) or "I"


def _entangler_text(pairs: tuple[tuple[str, tuple[int, ...]], ...], num_wires: int) -> str:
    """Name of leading entangling factors, e.g. ``Ucx[1,2]``; the lone
    two-wire controlled-Z is plain ``Ucz``."""
    if num_wires == 2 and pairs == (("Ucz", (0, 1)),):
        return "Ucz"
    return "".join(f"{name}[{i},{j}]" for name, (i, j) in pairs)


@dataclass(frozen=True)
class CorrectionOp:
    """Product of named elementary operators on the output wires.

    ``factors`` lists (name, wires) pairs in matrix order: the leftmost
    factor is the last one applied to the state, matching the way operator
    products are written.
    """

    factors: tuple[tuple[str, tuple[int, ...]], ...]

    @staticmethod
    def identity() -> "CorrectionOp":
        return CorrectionOp(())

    @staticmethod
    def from_wire_products(
        wire_tails: tuple[tuple[str, ...], ...],
        cz_pairs: tuple[tuple[int, int], ...] = (),
    ) -> "CorrectionOp":
        """Tensor product of per-wire factor chains, optionally left-composed
        with controlled-Z factors on output-wire pairs."""
        factors: list[tuple[str, tuple[int, ...]]] = [
            ("Ucz", tuple(pair)) for pair in cz_pairs
        ]
        for wire, tail in enumerate(wire_tails):
            for name in tail:
                if name != "I":
                    factors.append((name, (wire,)))
        return CorrectionOp(tuple(factors))

    def matrix(self, num_wires: int) -> np.ndarray:
        out = np.eye(1 << num_wires, dtype=complex)
        for name, wires in self.factors:
            out = out @ _factor_matrix(name, wires, num_wires)
        return out

    def render(self, num_wires: int) -> str:
        """Compact display, e.g. ``Ucz(sz.Up x I)`` or ``sx x sz.sx``;
        entangling factors on three or more wires name their pair, as in
        ``Ucx[1,2](I x I x sz)``."""
        factors = self.factors
        lead = 0
        while lead < len(factors) and factors[lead][0] in ENTANGLING_OPS:
            lead += 1
        pairs, factors = factors[:lead], factors[lead:]
        if any(len(w) != 1 for _, w in factors):
            chain = ".".join(f"{n}@{w}" for n, w in self.factors)
            return chain or "I"
        tails: list[list[str]] = [[] for _ in range(num_wires)]
        for name, (wire,) in factors:
            tails[wire].append(name)
        body = " x ".join(map(_chain_text, tails))
        if not pairs:
            return body
        return f"{_entangler_text(pairs, num_wires)}({body})"


def _label_text(label: Label) -> str:
    return "(" + ",".join(map(str, label)) + ")"


def format_key(key: OutcomeKey) -> str:
    return ";".join(map(_label_text, key))


@dataclass(frozen=True)
class OutcomeLayout:
    """The outcomes of ordered measurement groups. Outcome i's key reads i
    in mixed radix: its digit for group g, the last group varying fastest,
    picks ``labels[g][digit]``. A pattern's groups list their labels sorted,
    so its positions run in lexicographic key order. Every conversion
    between keys and positions goes through this class."""

    labels: tuple[tuple[Label, ...], ...]

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.labels))

    @cached_property
    def _positions(self) -> list[dict[Label, int]]:
        return [{label: i for i, label in enumerate(labels)} for labels in self.labels]

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __iter__(self):
        return product(*self.labels)

    def position(self, key: OutcomeKey) -> int:
        """The position of ``key``; KeyError when it is not an outcome."""
        if not isinstance(key, tuple) or len(key) != len(self.labels):
            raise KeyError(key)
        index = 0
        for label, positions in zip(key, self._positions):
            try:
                index = index * len(positions) + positions[label]
            except (KeyError, TypeError):
                raise KeyError(key) from None
        return index

    def keys_at(self, positions) -> list[OutcomeKey]:
        positions = np.asarray(positions, dtype=np.intp)
        columns = np.unravel_index(positions, self.shape) if self.labels else ()
        digits = list(zip(*(c.tolist() for c in columns))) or [()] * len(positions)
        return [tuple(map(tuple.__getitem__, self.labels, d)) for d in digits]

    def key(self, position: int) -> OutcomeKey:
        return self.keys_at([position])[0]

    def iter_texts(self, escape=str) -> Iterator[str]:
        """``format_key`` of every key in position order, one at a time,
        each label's text passed through ``escape`` once per label."""
        return map(";".join, product(*([escape(_label_text(x)) for x in ls] for ls in self.labels)))


@dataclass(frozen=True, eq=False)
class CorrectionTable(Mapping):
    """The correction of each outcome of ``layout``, kept once per distinct
    op: outcome i gets ``ops[index[i]]``, and every outcome has one. Ops are
    numbered by first outcome. As a mapping it reads key -> op in outcome
    order. A table fits a pattern only when ``layout`` equals the pattern's
    :attr:`GatePattern.layout`.
    """

    layout: OutcomeLayout
    ops: tuple[CorrectionOp, ...]
    index: np.ndarray  # intp, one per outcome of layout

    def __post_init__(self):
        index, count = self.index, len(self.layout)
        if index.shape != (count,) or (count and not 0 <= index.min() <= index.max() < len(self.ops)):
            raise PatternFormatError(
                f"correction index must give each of {count} outcomes one of {len(self.ops)} ops"
            )

    @classmethod
    def from_entries(cls, cells, layout: OutcomeLayout | None = None) -> "CorrectionTable":
        """The table of (key, op) cells, or of a key -> op mapping, over
        ``layout``; by default over each key slot's labels, sorted. A key
        outside the layout or listed twice is refused, and so is a layout
        outcome without a cell."""
        cells = list(cells.items() if isinstance(cells, Mapping) else cells)
        if layout is None:
            slots = zip(*(key for key, _ in cells))
            layout = OutcomeLayout(tuple(tuple(sorted(set(labels))) for labels in slots))
        placed = []
        for key, op in cells:
            try:
                placed.append((layout.position(key), op))
            except KeyError:
                raise PatternFormatError(f"correction key {key} names no outcome") from None
        placed.sort(key=lambda cell: cell[0])
        for (position, _), (following, _) in zip(placed, placed[1:]):
            if position == following:
                raise PatternFormatError(
                    f"correction table lists outcome {format_key(layout.key(position))} twice"
                )
        if len(placed) != len(layout):
            raise PatternFormatError(
                f"correction table has {len(placed)} entries, expected {len(layout)}"
            )
        rows: dict[CorrectionOp, int] = {}
        index = np.array([rows.setdefault(op, len(rows)) for _, op in placed], dtype=np.intp)
        return cls(layout, tuple(rows), index)

    def matrices(self, num_wires: int) -> np.ndarray:
        """Each op's matrix, stacked as (len(ops), d, d)."""
        dim = 1 << num_wires
        return np.array([op.matrix(num_wires) for op in self.ops]).reshape(-1, dim, dim)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key: OutcomeKey) -> CorrectionOp:
        return self.ops[self.index[self.layout.position(key)]]

    def __iter__(self):
        return iter(self.layout)


@dataclass(frozen=True)
class MeasurementGroup:
    """Ordered qubit subset plus a complete joint basis with outcome labels."""

    qubits: tuple[int, ...]
    basis: sv.MeasurementBasis
    labels: tuple[Label, ...]

    @property
    def size(self) -> int:
        return self.basis.size


@dataclass(frozen=True)
class GatePattern:
    """One gate construction: wiring, resources, measurements, corrections."""

    name: str
    num_qubits: int
    input_wires: tuple[int, ...]
    resources: tuple[tuple[tuple[int, ...], sv.StateVector], ...]
    groups: tuple[MeasurementGroup, ...]
    output_wires: tuple[int, ...]
    target: np.ndarray
    corrections: CorrectionTable | None = None
    vocabulary: str = "pauli_phase"  # correction vocabulary hint for derivation
    variant: str = ""                # basis-variant note, when applicable
    # Results computed once per pattern object (oracle.outcome_maps); none
    # depends on the corrections, so a with_corrections copy shares them,
    # and any other dataclasses.replace copy starts with an empty memo.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_outputs(self) -> int:
        return len(self.output_wires)

    @cached_property
    def layout(self) -> OutcomeLayout:
        """The outcomes of the groups, one label per group."""
        return OutcomeLayout(tuple(g.labels for g in self.groups))

    def with_target(self, target: np.ndarray) -> "GatePattern":
        return replace(self, target=np.asarray(target, dtype=complex), corrections=None)

    def with_corrections(self, table: CorrectionTable | None) -> "GatePattern":
        copy = replace(self, corrections=table)
        copy._memo.update(self._memo)
        return copy


def _claim(owners: dict[int, str], qubits: tuple[int, ...], owner: str) -> None:
    """Give each of ``qubits`` to ``owner``: ``resource`` among the inputs'
    and resources' qubits, ``group g`` among the measured ones. A qubit that
    already has an owner is refused."""
    for q in qubits:
        if q in owners:
            if owner == "resource":
                raise PatternFormatError(f"qubit {q} declared by both {owners[q]} and a resource")
            raise PatternFormatError(f"qubit {q} measured by both {owners[q]} and {owner}")
        owners[q] = owner


def validate_pattern(pattern: GatePattern) -> None:
    """Check the wiring, basis and correction invariants; raise on violation."""
    n = pattern.num_qubits
    sv.check_subset(pattern.input_wires, n)
    seen: dict[int, str] = {q: "input" for q in pattern.input_wires}
    for qubits, state in pattern.resources:
        sv.check_subset(qubits, n)
        _claim(seen, qubits, "resource")
        if state.num_qubits != len(qubits):
            raise PatternFormatError(
                f"resource on qubits {qubits} has a {state.num_qubits}-qubit state"
            )
    if set(seen) != set(range(n)):
        missing = sorted(set(range(n)) - set(seen))
        raise PatternFormatError(f"register qubits {missing} have no preparation")

    measured: dict[int, str] = {}
    for gi, group in enumerate(pattern.groups):
        sv.check_subset(group.qubits, n)
        _claim(measured, group.qubits, f"group {gi}")
        k, basis = len(group.qubits), group.basis
        if basis.num_qubits != k or basis.vectors.shape[1] != 1 << k:
            raise PatternFormatError(
                f"group {gi} basis has {basis.num_qubits} qubits and vectors of "
                f"{basis.vectors.shape[1]} amplitudes, expected {k} and {1 << k} "
                f"for its {k} measured qubits"
            )
        report = sv.validate_basis(basis)
        if report.vector_count != report.expected_count:
            raise PatternFormatError(
                f"group {gi} basis has {report.vector_count} vectors, "
                f"expected {report.expected_count} (completeness violation)"
            )
        if not report.passed:
            raise PatternFormatError(
                f"group {gi} basis is not orthonormal "
                f"(max overlap {report.max_pairwise_overlap:.3e}, "
                f"max norm deviation {report.max_norm_deviation:.3e})"
            )
        if len(group.labels) != group.size or len(set(group.labels)) != group.size:
            raise PatternFormatError(
                f"group {gi} labels are not a bijection onto its basis vectors"
            )
        # Outcome keys are sorted, so labels must compare slot by slot.
        if len({tuple(isinstance(x, str) for x in label) for label in group.labels}) > 1:
            raise PatternFormatError(
                f"group {gi} labels differ in length or in which slots hold signs"
            )
        if list(group.labels) != sorted(group.labels):
            raise PatternFormatError(f"group {gi} labels are not in sorted order")

    outputs = set(sv.check_subset(pattern.output_wires, n))
    if outputs & set(measured):
        clash = sorted(outputs & set(measured))
        raise PatternFormatError(f"output wires {clash} are also measured")
    leftover = set(range(n)) - set(measured) - outputs
    if leftover:
        raise PatternFormatError(
            f"register qubits {sorted(leftover)} are neither measured nor outputs"
        )

    target = np.asarray(pattern.target)
    if target.shape != (1 << len(pattern.output_wires),) * 2:
        raise PatternFormatError(
            f"target of shape {target.shape} does not act on "
            f"{len(pattern.output_wires)} output wires"
        )
    if not pattern.output_wires or len(pattern.output_wires) != len(pattern.input_wires):
        raise PatternFormatError(
            f"pattern maps {len(pattern.input_wires)} input wires to "
            f"{len(pattern.output_wires)} output wires; a gate needs as many, at least one"
        )
    if not sv.is_unitary(target):
        raise PatternFormatError("target matrix is not unitary")
    if not isinstance(pattern.vocabulary, str) or pattern.vocabulary not in VOCABULARIES:
        raise PatternFormatError(f"unknown correction vocabulary {pattern.vocabulary!r}")

    if pattern.corrections is not None:
        _validate_corrections(pattern)


def _validate_corrections(pattern: GatePattern) -> None:
    table = pattern.corrections
    if table.layout != pattern.layout:
        raise PatternFormatError("correction table is not over the pattern's outcomes")
    width = pattern.num_outputs
    factors = {f for op in table.ops for f in op.factors}
    for name, wires in sorted(factors, key=repr):
        if name not in ELEMENTARY_OPS:
            raise PatternFormatError(f"unknown correction factor {name!r}")
        arity = ELEMENTARY_OPS[name].shape[0].bit_length() - 1
        if (
            len(wires) != arity
            or len(set(wires)) != arity
            or not all(0 <= w < width for w in wires)
        ):
            raise PatternFormatError(
                f"correction factor {name} takes {arity} distinct wire(s) "
                f"in 0..{width - 1}, got {list(wires)}"
            )


# ---------------------------------------------------------------------------
# Pattern document format (JSON)
# ---------------------------------------------------------------------------

# Every streamed writer yields one piece of text per this many outcomes.
_WRITE_BLOCK = 256


def dumps(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


def _indented(value, depth: int) -> str:
    """``value`` as ``dumps`` writes it ``depth`` levels deep."""
    return dumps(value).replace("\n", "\n" + " " * depth)


def _json_pieces(doc: dict, key: str, blocks):
    """``dumps`` of ``doc`` with a list under the top-level ``key``, in
    pieces: the text before the list, one per non-empty block of item texts
    (as ``dumps`` writes items two levels deep), and the rest; or one piece
    when the list is empty."""
    # Only top-level keys start a line with one space of indent, so the
    # placeholder is found exactly once.
    head, tail = dumps({**doc, key: None}).split(f'\n "{key}": null', 1)
    opened = False
    for block in filter(None, blocks):
        if not opened:
            yield f'{head}\n "{key}": ['
        yield (",\n" if opened else "\n") + ",\n".join(block)
        opened = True
    yield "\n ]" + tail if opened else f'{head}\n "{key}": []{tail}'


def _row_blocks(rows: np.ndarray, keys):
    """(row, key) for each outcome, one list per ``_WRITE_BLOCK`` outcomes,
    given one row and one key per outcome."""
    for lo in range(0, len(rows), _WRITE_BLOCK):
        # Rows first, so zip stops without drawing a key past the block.
        yield list(zip(rows[lo:lo + _WRITE_BLOCK].tolist(), keys))


def _json_list(texts) -> str:
    """Item texts as ``dumps`` writes a list three levels deep."""
    return "[\n    " + ",\n    ".join(texts) + "\n   ]" if texts else "[]"


def _terms_of(amps: np.ndarray, num_qubits: int) -> list[dict]:
    terms = []
    for idx in np.flatnonzero(np.abs(amps) > sv.WRITTEN_AMP):
        coeff = amps[int(idx)]
        terms.append(
            {"coeff": [coeff.real, coeff.imag], "bits": format(int(idx), f"0{num_qubits}b")}
        )
    return terms


def _is_integer(value) -> bool:
    """A JSON integer. true and false parse as bool, a subclass of int; they
    are refused with fractions and strings."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value) -> int:
    """A count or dimension: a JSON integer."""
    if not _is_integer(value):
        raise PatternFormatError(f"{value!r} is not an integer")
    return value


def _integers(value, field: str) -> tuple[int, ...]:
    """Qubits or wires: a JSON list of integers. Any other value, a digit
    string or a list with one bad element included, is refused as a whole
    under the name ``field``."""
    if not isinstance(value, list) or not all(map(_is_integer, value)):
        raise PatternFormatError(f"{field} must be a list of integers, got {value!r}")
    return tuple(value)


def complex_of(pair) -> complex:
    """A coefficient or matrix entry written as [re, im]: two JSON numbers,
    not true, false or strings."""
    re, im = pair
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
        raise PatternFormatError(f"{pair!r} is not a pair of numbers")
    return complex(re, im)


def _state_of(terms: list[dict], num_qubits: int, where: str) -> sv.StateVector:
    parsed = []
    for term in terms:
        try:
            coeff, bits = complex_of(term["coeff"]), term["bits"]
        except (KeyError, TypeError, ValueError) as exc:
            raise PatternFormatError(f"malformed term in {where}: {term!r}") from exc
        if not cmath.isfinite(coeff):
            raise PatternFormatError(f"non-finite coefficient in {where}: {term!r}")
        parsed.append((coeff, bits))
    try:
        # Finite coefficients can still overflow once summed and squared.
        with np.errstate(over="raise", invalid="raise"):
            return sv.from_ket_expression(num_qubits, parsed)
    except (sv.UsageError, sv.DegenerateStateError, FloatingPointError) as exc:
        raise PatternFormatError(f"bad state in {where}: {exc}") from exc


def _label_of(raw) -> Label:
    # JSON true and false parse as bool, a subclass of int; they are refused.
    if not isinstance(raw, list) or not all(type(x) in (int, str) for x in raw):
        raise PatternFormatError(f"label {raw!r} is not a list of bits and signs")
    return tuple(raw)


def pattern_to_document(pattern: GatePattern) -> dict:
    """The pattern as a JSON-ready document. Correction cells holding one
    op share one ``ops`` list, so copy a cell before editing it in place."""
    doc = {
        "name": pattern.name,
        "num_qubits": pattern.num_qubits,
        "inputs": list(pattern.input_wires),
        "resources": [
            {"qubits": list(qubits), "terms": _terms_of(state.amps, state.num_qubits)}
            for qubits, state in pattern.resources
        ],
        "groups": [
            {
                "qubits": list(g.qubits),
                "vectors": [
                    {
                        "label": list(g.labels[i]),
                        "terms": _terms_of(g.basis.vectors[i], g.basis.num_qubits),
                    }
                    for i in range(g.size)
                ],
            }
            for g in pattern.groups
        ],
        "outputs": list(pattern.output_wires),
        "target": {
            "dim": pattern.target.shape[0],
            "entries": [[[z.real, z.imag] for z in row] for row in pattern.target],
        },
        "vocabulary": pattern.vocabulary,
    }
    if pattern.variant:
        doc["variant"] = pattern.variant
    table = pattern.corrections
    if table is not None:
        ops = [_op_document(op) for op in table.ops]
        doc["corrections"] = [
            {"labels": [list(label) for label in key], "ops": ops[row]}
            for key, row in zip(table.layout, table.index.tolist())
        ]
    return doc


def pattern_from_document(doc: dict) -> GatePattern:
    try:
        name, variant = doc["name"], doc.get("variant", "")
        if not isinstance(name, str) or not isinstance(variant, str):
            raise PatternFormatError("pattern name and variant must be strings")
        num_qubits = _integer(doc["num_qubits"])
        if num_qubits > sv.MAX_REGISTER_QUBITS:
            raise PatternFormatError(
                f"{num_qubits} qubits exceed the {sv.MAX_REGISTER_QUBITS}-qubit register limit"
            )
        inputs = _integers(doc["inputs"], "inputs")
        outputs = _integers(doc["outputs"], "outputs")

        # Each entry claims its qubits, as validate_pattern does, before its
        # state or vectors are built: a qubit given twice is refused before
        # the second entry allocates, so repeated entries cannot add up.
        prepared = {q: "input" for q in sv.check_subset(inputs, num_qubits)}
        resources = []
        for ri, res in enumerate(doc["resources"]):
            qubits = sv.check_subset(_integers(res["qubits"], f"resource {ri} qubits"), num_qubits)
            _claim(prepared, qubits, "resource")
            state = _state_of(res["terms"], len(qubits), f"resource {ri}")
            resources.append((qubits, state))

        measured: dict[int, str] = {}
        groups = []
        for gi, grp in enumerate(doc["groups"]):
            qubits = sv.check_subset(_integers(grp["qubits"], f"group {gi} qubits"), num_qubits)
            _claim(measured, qubits, f"group {gi}")
            # Refused before any vector is built, so with the claims neither
            # the document's length nor a group's width can size an
            # allocation: a k-qubit basis holds 4^k amplitudes, at most the
            # register's 2^22.
            if 2 * len(qubits) > sv.MAX_REGISTER_QUBITS:
                raise PatternFormatError(
                    f"group {gi} has {len(qubits)} qubits, but a basis wider than "
                    f"{sv.MAX_REGISTER_QUBITS // 2} qubits exceeds the "
                    f"{sv.MAX_REGISTER_QUBITS}-qubit register limit"
                )
            if len(grp["vectors"]) != 1 << len(qubits):
                raise PatternFormatError(
                    f"group {gi} basis has {len(grp['vectors'])} vectors, "
                    f"expected {1 << len(qubits)} (completeness violation)"
                )
            # One array holds the basis: each vector is parsed into its row in
            # document order, then the rows are put in label order in place.
            # The key also orders labels that mix bits and signs in one slot,
            # which validate_pattern then refuses by name.
            vectors = np.empty((len(grp["vectors"]), 1 << len(qubits)), dtype=complex)
            labels = []
            for row, vec in zip(vectors, grp["vectors"]):
                labels.append(_label_of(vec["label"]))
                row[:] = _state_of(vec["terms"], len(qubits), f"group {gi}").amps
            order = sorted(range(len(labels)), key=lambda i: [(isinstance(x, str), x) for x in labels[i]])
            _sort_rows(vectors, order)
            basis = sv.MeasurementBasis(len(qubits), vectors)
            groups.append(MeasurementGroup(qubits, basis, tuple(labels[i] for i in order)))

        dim = _integer(doc["target"]["dim"])
        entries = doc["target"]["entries"]
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise PatternFormatError("target entries do not form a dim x dim matrix")
        target = np.array([[complex_of(z) for z in row] for row in entries], dtype=complex)

        cells = None
        if "corrections" in doc:
            cells = []
            for cell in doc["corrections"]:
                # Wires are read per cell, before equal ops are merged.
                factors = ((str(f["name"]), _integers(f["wires"], "factor wires")) for f in cell["ops"])
                cells.append((tuple(map(_label_of, cell["labels"])), CorrectionOp(tuple(factors))))

        pattern = GatePattern(
            name=name,
            num_qubits=num_qubits,
            input_wires=inputs,
            resources=tuple(resources),
            groups=tuple(groups),
            output_wires=outputs,
            target=target,
            vocabulary=doc.get("vocabulary", "pauli_phase"),
            variant=variant,
        )
    except (PatternFormatError, sv.UsageError):
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise PatternFormatError(f"missing or malformed field: {exc}") from exc
    validate_pattern(pattern)
    if cells is not None:
        # The cells are placed on the outcomes only once the groups are sound.
        pattern = pattern.with_corrections(CorrectionTable.from_entries(cells, pattern.layout))
        _validate_corrections(pattern)
    return pattern


def _sort_rows(rows: np.ndarray, order: list[int]) -> None:
    """Move row order[i] of ``rows`` to row i in place. Each cycle of the
    permutation passes through one spare row, so the array is never held
    twice."""
    done = [False] * len(order)
    for start in range(len(order)):
        if done[start] or order[start] == start:
            continue
        spare = rows[start].copy()
        i = start
        while order[i] != start:
            rows[i] = rows[order[i]]
            done[i] = True
            i = order[i]
        rows[i] = spare
        done[i] = True


def _op_document(op: CorrectionOp) -> list[dict]:
    return [{"name": n, "wires": list(w)} for n, w in op.factors]


def _correction_blocks(table: CorrectionTable):
    """The items of a pattern document's ``corrections`` list as ``dumps``
    writes them, one block per ``_WRITE_BLOCK`` outcomes, in outcome order.
    Each is joined from one text per distinct op and one per group label."""
    ops = [_indented(_op_document(op), 3) for op in table.ops]
    keys = product(*([_indented(list(label), 4) for label in ls] for ls in table.layout.labels))
    for block in _row_blocks(table.index, keys):
        yield [f'  {{\n   "labels": {_json_list(key)},\n   "ops": {ops[r]}\n  }}' for r, key in block]


def save_pattern(pattern: GatePattern, path) -> None:
    """Write the bytes ``json.dump`` writes for :func:`pattern_to_document`
    (indent 1, sorted keys) plus a newline, the corrections streamed one
    block of outcomes at a time."""
    doc = pattern_to_document(pattern.with_corrections(None))
    table = pattern.corrections
    with open(path, "w", encoding="utf-8") as fh:
        if table is None:
            fh.write(dumps(doc))
        else:
            fh.writelines(_json_pieces(doc, "corrections", _correction_blocks(table)))
        fh.write("\n")


def load_pattern(path) -> GatePattern:
    with open(path, "r", encoding="utf-8") as fh:
        # A document nested past the interpreter's recursion limit cannot be
        # decoded either.
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise PatternFormatError(f"not a valid pattern document: {exc}") from exc
    return pattern_from_document(doc)
