"""Brute-force verification oracle.

Enumerates every joint-measurement outcome of a pattern, applies or derives
the outcome corrections, certifies that each corrected branch implements the
target gate up to global phase, and detects information loss caused by
resource/basis mismatch.

Derivation and the verification verdict read each outcome's input->output
map, with no probe states. Everything here is deterministic: the random
inputs of verification's diagnostic grid and of the loss check come from a
seeded generator (default seed below), outcome records are emitted in
lexicographic label order, and each recovery has exactly one name, so two
runs with the same seed produce bit-identical reports.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from . import statevec as sv
from .gates import random_state
from .statevec import FIDELITY_TOL, SUSPICIOUS_PROB, ZERO_PROB
from .patterns import (
    CorrectionOp,
    CorrectionTable,
    GatePattern,
    OutcomeKey,
    OutcomeLayout,
    PatternFormatError,
    VOCABULARIES,
    format_key,
)

DEFAULT_SEED = 1337
RANDOM_INPUTS = 20  # seeded random states verification adds to the basis inputs


class MissingCorrectionError(LookupError):
    """A pattern to verify has no correction table."""


@dataclass(eq=False)
class DerivationFailures(Sequence):
    """The outcomes no correction repairs, in outcome order, read as
    ``(key, reason)``: outcome ``positions[i]`` of ``maps`` fails for the
    reason of its map's class. A class marked ``outside`` needs a recovery
    outside ``vocabulary``; any other failing map is not proportional to a
    unitary, and its reason names its rank, read from ``maps.facts``, and
    for a map of full rank its singular-value spread σ_min/σ_max, read from
    the same singular values."""

    maps: OutcomeMaps
    positions: np.ndarray
    outside: np.ndarray
    vocabulary: str

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        position = self.positions[i]
        return self.maps.layout.key(position), self.reason(int(self.maps.classes[position]))

    def reason(self, c: int) -> str:
        """Why class ``c``'s map has no correction."""
        if self.outside[c]:
            return f"needed recovery lies outside the {self.vocabulary} vocabulary"
        facts, dim = self.maps.facts, self.maps.distinct.shape[2]
        rank = facts.ranks([c])[0]
        reason = f"rank {rank}/{dim}, not proportional to a unitary"
        if rank < dim:
            return reason
        values = facts.singular_values([c])[0]
        return f"{reason}, singular-value spread min/max {values[-1] / values[0]:.6g}"


class DerivationError(RuntimeError):
    """No correction repairs some outcome; carries each one with its reason."""

    def __init__(self, failures: Sequence[tuple[OutcomeKey, str]]):
        self.failures = failures
        worst = ", ".join(f"{format_key(k)} ({reason})" for k, reason in failures[:4])
        extra = "" if len(failures) <= 4 else f" and {len(failures) - 4} more"
        super().__init__(f"no correction found for outcomes {worst}{extra}")


# ---------------------------------------------------------------------------
# Pattern execution
# ---------------------------------------------------------------------------

# Enumeration walks the outcomes this many at a time, and derivation,
# verification and the per-map facts walk the distinct maps this many at a
# time, which bounds their temporaries.
_BLOCK = 256
# Classification confirms maps at most this many amplitudes at a time (but
# always one map), so each block's gathered copy, 64 KiB, stays below
# glibc's default mmap threshold and reuses heap memory.
_CONFIRM = 1 << 12


def _register(pattern: GatePattern) -> np.ndarray:
    """The register the resource states make, over the qubits that are not
    input wires, in measurement order, one axis of size 2 per qubit: each
    group's other qubits in group order, group after group, then the other
    output wires in output order. Each entry is the product of its resource
    amplitudes in resource order, as np.kron multiplies them; a pattern
    without resources has the scalar 1."""
    inputs = set(pattern.input_wires)
    measured = [q for group in pattern.groups for q in group.qubits]
    qubits = [q for q in measured + list(pattern.output_wires) if q not in inputs]
    axis = {q: i for i, q in enumerate(qubits)}

    def placed(wires: tuple[int, ...], amps: np.ndarray) -> np.ndarray:
        # The factor's axes in register order, with size-1 axes elsewhere.
        order = sorted(range(len(wires)), key=lambda i: axis[wires[i]])
        shape = [1] * len(qubits)
        for q in wires:
            shape[axis[q]] = 2
        return amps.reshape([2] * len(wires)).transpose(order).reshape(shape)

    factors = [placed(wires, state.amps) for wires, state in pattern.resources]
    if not factors:
        return np.ones((), dtype=complex)
    register = factors[0]
    for factor in factors[1:]:
        shape = np.broadcast_shapes(register.shape, factor.shape)
        register = _multiply(register, factor, np.empty(shape, dtype=complex))
    return register


# The contraction streams the first group's basis rows in chunks whose maps
# hold at most this many amplitudes (but always one row's), so every step of
# a chunk gathers and writes at most this many besides the register, which
# the stream builds once. A stream writes its chunks into reused flat
# buffers: 0 holds the gathers, 1 the chunk's maps, which the last group
# writes, and 2 + g the output of every group g before the last, kept while
# later basis inputs share it.
_GATHER = 1 << 16


def _buffer(work: dict[int, np.ndarray], i: int, shape: tuple[int, ...]) -> np.ndarray:
    """The leading part of workspace buffer i as a C-ordered array of the
    given shape, the buffer first made or grown if it is too small."""
    size = math.prod(shape)
    if i not in work or work[i].size < size:
        work[i] = np.empty(size, dtype=complex)
    return work[i][:size].reshape(shape)


def _multiply(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.multiply(a, b, out=out)``, every entry rounded as numpy's vector
    loops round a complex product. numpy may form a lone product in a loop
    that rounds differently, so a one-entry product is the first of two."""
    if out.size == 1:
        out[...] = (np.full(2, a.item()) * b.item())[0]
        return out
    return np.multiply(a, b, out=out)


def _pinned_plans(
    basis: sv.MeasurementBasis, qubits: tuple[int, ...], wire: dict[int, int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """A group's nonzero plans for :func:`_contract`, one per basis input c,
    read from ``basis.entries`` alone; ``wire`` gives each input wire's bit
    of c. Each row keeps its nonzero entries whose columns hold c's bits on
    the group's input wires, in column order, each column read on the
    group's other qubits alone and each coefficient conjugated. A row has
    as many slots as the most such in any row (at least one); its spare
    slots have coefficient 0. Inputs that agree on the group's input wires
    share one plan."""
    rows, cols, vals = basis.entries
    bits = (cols[:, None] >> np.arange(len(qubits) - 1, -1, -1)) & 1
    held = np.array([q in wire for q in qubits], dtype=bool)
    columns = bits[:, ~held] @ (1 << np.arange(np.count_nonzero(~held) - 1, -1, -1))
    pins = [tuple((c >> wire[q]) & 1 for q in qubits if q in wire) for c in range(1 << len(wire))]
    plans: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for pin in pins:
        if pin in plans:
            continue
        keep = (bits[:, held] == pin).all(axis=1)
        kept = rows[keep]
        counts = np.bincount(kept, minlength=basis.size)
        # Each kept entry's slot is its rank within its row.
        slot = np.arange(len(kept)) - (np.cumsum(counts) - counts)[kept]
        index = np.zeros((basis.size, max(1, counts.max())), dtype=np.intp)
        coeffs = np.zeros(index.shape, dtype=complex)
        index[kept, slot] = columns[keep]
        coeffs[kept, slot] = vals[keep].conj()
        plans[pin] = index, coeffs
    return [plans[pin] for pin in pins]


def _contract(
    index: np.ndarray, coeffs: np.ndarray, flat: np.ndarray, work: dict, into: int | np.ndarray
) -> np.ndarray:
    """``vectors.conj() @ flat`` for the basis rows planned by
    :func:`_pinned_plans` and an (outcomes, K, columns) register, summed
    over each row's planned entries only, gathering in workspace buffer 0.
    ``into`` is the workspace buffer to write (not the one holding
    ``flat``), or an array of shape (outcomes, rows, ...) to write, its
    trailing axes holding the columns.

    Slot s adds every row's s-th planned entry, formed as the register slice
    at its column times its coefficient, in one pass over the whole chunk:
    :func:`_map_chunks` has already cut it to the gather budget. Catalog
    bases have at most 4 nonzeros per row, so this does a few gathers
    instead of a K-term sum; a dense basis has K per row.
    """
    shape = (len(flat), len(index), flat.shape[2])
    out = _buffer(work, into, shape) if isinstance(into, int) else into
    term = _buffer(work, 0, shape)
    terms = term.reshape(out.shape)
    coeffs = coeffs.reshape(*index.shape, *[1] * (out.ndim - 2))
    np.take(flat, index[:, 0], axis=1, out=term, mode="clip")
    _multiply(terms, coeffs[:, 0], out)
    for s in range(1, index.shape[1]):
        np.take(flat, index[:, s], axis=1, out=term, mode="clip")
        out += _multiply(terms, coeffs[:, s], terms)
    return out


def _map_chunks(pattern: GatePattern) -> Iterator[np.ndarray]:
    """Every outcome's input->output map, unnormalized, in lexicographic
    label order, as arrays of shape (outcomes, 2^num_outputs, d_in): column
    c holds the residual output amplitudes for basis input c.

    The maps are linear in the input, so each basis input c is contracted
    on its own, its input wires pinned to c's bits. The register is then
    the resource states' product alone, built once and shared by every
    column, over the other qubits in measurement order (see
    :func:`_register`): each group's qubits lead the axes left when it
    measures them and the outputs end in output order, so every flatten is
    a reshape, with no copy. Each group reads it through its plan for c (see
    :func:`_pinned_plans`), one :func:`_contract` pass, and the last group
    writes straight into column c of the chunk's maps. An output wire that
    is an input wire holds c's bit there, and the rest of the column is 0.
    Every nonzero component is the sum the input identity's register gave,
    less its zero terms; a plan's spare slot adds a term times 0, a signed
    zero, and each chunk has 0.0 added, so no component is -0.0.

    Inputs that agree on the input wires of groups 0..g share those groups'
    plans, and so their steps. The inputs run in order of their bits on
    each group's input wires, group by group, and each input redoes only
    the groups from the first whose plan differs from the previous input's,
    and always the last group, which writes its own column. Every group
    before the last writes a workspace buffer of its own, so an output kept
    for later inputs is never overwritten.

    The first group's basis rows stream in chunks whose maps hold at most
    ``_GATHER`` amplitudes, or one basis row's maps where those are wider,
    and every step writes into the stream's one workspace (see
    ``_GATHER``), so the register is the one array of its size and a
    yielded chunk is a view that stays valid only until the next one is
    requested. Each group's plans are made once for its whole basis, so
    every entry is the same sum however the rows are chunked.
    """
    register = _register(pattern)
    inputs, outputs, groups = pattern.input_wires, pattern.output_wires, pattern.groups
    dim, axes = 1 << len(inputs), [2] * len(outputs)
    wire = {w: len(inputs) - 1 - i for i, w in enumerate(inputs)}
    # Where column c lies in maps with an axis per output wire: at c's bit
    # on an output wire that is an input wire, whole on any other.
    at = [(..., *[(c >> wire[w]) & 1 if w in wire else slice(None) for w in outputs], c) for c in range(dim)]
    tail = [2] * sum(w not in wire for w in outputs)
    if not groups:
        maps = np.zeros((1, *axes, dim), dtype=complex)
        for c in range(dim):
            maps[at[c]] = register
        yield maps.reshape(1, -1, dim) + 0.0
        return
    plans = [_pinned_plans(g.basis, g.qubits, wire) for g in groups]
    widths = [sum(q not in wire for q in g.qubits) for g in groups]
    pins = [[wire[q] for q in g.qubits if q in wire] for g in groups]
    order = sorted(range(dim), key=lambda c: [(c >> b) & 1 for pin in pins for b in pin])
    last = len(groups) - 1
    redo = [0] + [
        next((g for g in range(last) if plans[g][c] is not plans[g][b]), last)
        for b, c in zip(order, order[1:])
    ]
    row = dim << (pattern.num_qubits - len(groups[0].qubits))  # maps amplitudes per basis row
    # Group g's input: the register, then group g - 1's output.
    steps = [register.reshape(1, 1 << widths[0], -1)] + [None] * len(groups)
    work: dict[int, np.ndarray] = {}
    for rows in _blocks(groups[0].size, max(1, _GATHER // row)):
        maps = _buffer(work, 1, ((rows.stop - rows.start) * row // (dim << len(axes)), *axes, dim))
        if len(tail) < len(axes):
            maps.fill(0)
        for c, g0 in zip(order, redo):
            for g in range(g0, len(groups)):
                index, coeffs = plans[g][c]
                t = steps[g]
                if g == 0:
                    index, coeffs = index[rows], coeffs[rows]
                else:
                    t = t.reshape(-1, 1 << widths[g], t.shape[2] >> widths[g])
                into = maps[at[c]].reshape(-1, len(index), *tail) if g == last else 2 + g
                steps[g + 1] = _contract(index, coeffs, t, work, into)
        maps += 0.0
        yield maps.reshape(len(maps), -1, dim)


@lru_cache
def _key_weights(width: int) -> np.ndarray:
    """Fixed weights that fold a map's ``width`` float64 parts into one key:
    sin 1, sin 2, ..., with no simple rational relation among them, so
    distinct maps rarely share a key."""
    weights = np.sin(np.arange(1.0, width + 1))
    weights.flags.writeable = False
    return weights


def _classify(chunks: Iterable[np.ndarray], total: int) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct maps among consecutive chunks of ``total`` maps,
    in first-occurrence order, and each outcome's class (its position in
    that order).

    Each map of a chunk gets one 64-bit key, the bits of its float64 parts'
    sum against :func:`_key_weights`, and every map is confirmed bit for bit
    equal to the first map with its key, a block of maps at a time (see
    ``_CONFIRM``). Only those first maps and any map that fails confirmation
    are looked up by their bytes in the class table, in position order, so
    a map first seen there opens the next class. The key only groups maps: they share a
    class only if their bytes are equal, so entries one ulp apart stay
    apart, and so would -0.0 and +0.0, but :func:`_map_chunks` makes every
    zero +0.0. The class table is the only store of the maps, so each
    distinct map is held once: its bytes leave the table as they join the
    returned stack."""
    table: dict[bytes, int] = {}
    classes = np.empty(total, dtype=np.intp)
    start = 0
    for chunk in chunks:
        rows = chunk.reshape(len(chunk), -1)
        bits = rows.view(np.uint64)
        # Each row's owner: the first row with its key, read off a stable sort.
        sums = (rows.view(float) @ _key_weights(bits.shape[1])).view(np.int64)
        order = np.argsort(sums, kind="stable")
        ordered = sums[order]
        heads = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        owner = np.empty(len(rows), dtype=np.intp)
        owner[order] = np.repeat(order[heads], np.diff(heads, append=len(rows)))
        loose = [
            block.start + np.flatnonzero((bits[block] != bits[owner[block]]).any(axis=1))
            for block in _blocks(len(rows), max(1, _CONFIRM // rows.shape[1]))
            if not np.array_equal(bits[block], bits[owner[block]])
        ]
        # A map that differs from its group's first is looked up on its own.
        for rest in loose:
            owner[rest] = rest
        looked = np.flatnonzero(owner == np.arange(len(rows)))
        ids = classes[start:start + len(rows)]
        ids[looked] = [table.setdefault(rows[i].tobytes(), len(table)) for i in looked.tolist()]
        ids[:] = ids[owner]
        start, shape = start + len(rows), chunk.shape[1:]
    # Each key leaves as its bytes join the distinct maps, so every distinct
    # map is held once, not once as a key and once more in the stack.
    keys, data = list(table), bytearray()
    table.clear()
    for i, key in enumerate(keys):
        data += key
        keys[i] = None
    distinct = np.frombuffer(data, dtype=complex).reshape(-1, *shape)
    return distinct, classes


class OutcomeMaps(Mapping):
    """Read-only view of every outcome's input->output map.

    ``distinct`` holds each bitwise-distinct map once, as an array of shape
    (classes, d_out, d_in) in first-occurrence order, every zero component
    +0.0 (see :func:`_map_chunks`); ``classes`` holds each
    outcome's row of ``distinct``, over outcomes in lexicographic label
    order, the order of the pattern's :attr:`GatePattern.layout`. Both come
    from :func:`_classify`, which reads each map's bytes only where a
    chunk's keyed grouping cannot vouch for it.
    ``maps[key]`` is one row of ``distinct``. Byproduct repairs leave few
    distinct maps among many outcomes, so per-map work runs once per row of
    ``distinct``, and what derivation, verification and loss checks decide
    about a map they read from :attr:`facts`.
    """

    def __init__(self, pattern: GatePattern, distinct: np.ndarray, classes: np.ndarray):
        for array in (distinct, classes):
            array.flags.writeable = False
        self.distinct = distinct
        self.classes = classes
        self.layout = pattern.layout

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.layout)

    def __getitem__(self, key: OutcomeKey) -> np.ndarray:
        return self.distinct[self.classes[self.layout.position(key)]]

    @cached_property
    def facts(self) -> MapFacts:
        """The facts of each distinct map, gathered on first read."""
        return MapFacts(self.distinct)


class MapFacts:
    """Per-class facts of a (classes, d, d) stack of maps M, from one Gram
    matrix M†M per map: ``scale`` s = tr(M†M)/d, the mean branch probability;
    ``zero``, s < ZERO_PROB, the one zero rule; ``unitary``, nonzero and
    ||M†M - s·I||_F <= SPREAD_TOL·s; and :meth:`singular_values`, with the
    :meth:`ranks` they give, each read lazily."""

    def __init__(self, distinct: np.ndarray):
        dim = distinct.shape[2]
        self.distinct, self.scale = distinct, np.empty(len(distinct))
        spread = np.empty(len(distinct))
        for block in _blocks(len(distinct)):
            gram = distinct[block].conj().transpose(0, 2, 1) @ distinct[block]
            self.scale[block] = np.real(np.trace(gram, axis1=1, axis2=2)) / dim
            shifted = gram - self.scale[block, None, None] * np.eye(dim)
            spread[block] = np.linalg.norm(shifted, axis=(1, 2))
        self.zero = self.scale < ZERO_PROB
        self.unitary = ~self.zero & (spread <= sv.SPREAD_TOL * self.scale)
        self._singular = np.full(distinct.shape[:2], -1.0)  # -1 until read

    def singular_values(self, classes) -> np.ndarray:
        """Each listed class's singular values, largest first, computed once."""
        todo = np.asarray(classes)[self._singular[classes, 0] < 0]
        for block in _blocks(len(todo)):
            self._singular[todo[block]] = np.linalg.svd(self.distinct[todo[block]], compute_uv=False)
        return self._singular[classes]

    def ranks(self, classes) -> np.ndarray:
        """Each listed class's rank: its singular values above RANK_TOL."""
        return np.count_nonzero(self.singular_values(classes) > sv.RANK_TOL, axis=1)


def outcome_maps(pattern: GatePattern) -> OutcomeMaps:
    """The linear input->output map of every outcome tuple.

    Map columns are the residual (unnormalized) output amplitudes for each
    computational-basis input; measurement branching is linear, so these
    matrices determine the pattern's action on any input. The maps are
    contracted once per pattern object and the same read-only mapping is
    returned to every later call. A ``with_corrections`` copy shares them
    (the maps do not depend on the corrections); a ``with_target`` copy
    starts afresh.
    """
    maps = pattern._memo.get("outcome_maps")
    if maps is None:
        maps = OutcomeMaps(pattern, *_classify(_map_chunks(pattern), len(pattern.layout)))
        pattern._memo["outcome_maps"] = maps
    return maps


def _blocks(count: int, size: int = _BLOCK):
    """Consecutive outcome slices of at most ``size`` outcomes."""
    for lo in range(0, count, size):
        yield slice(lo, min(lo + size, count))


@dataclass(frozen=True)
class OutcomeRecord:
    """One measurement branch for a fixed input state."""

    labels: OutcomeKey
    probability: float
    pre_correction_state: sv.StateVector | None
    corrected_state: sv.StateVector | None


def enumerate_outcomes(pattern: GatePattern, input_state: sv.StateVector) -> list[OutcomeRecord]:
    """All outcome branches of ``pattern`` on one input, in label order."""
    if input_state.num_qubits != len(pattern.input_wires):
        raise sv.UsageError(
            f"input on {input_state.num_qubits} qubits does not fit "
            f"{len(pattern.input_wires)} input wires"
        )
    maps = outcome_maps(pattern)
    classes = maps.classes
    branches = maps.distinct @ input_state.amps
    keys = list(pattern.layout)
    num_out = len(pattern.output_wires)
    table = pattern.corrections
    if table is not None and table.layout != pattern.layout:
        raise sv.UsageError("correction table is not over the pattern's outcomes")
    mats = None if table is None else table.matrices(num_out)
    records = []
    for block in _blocks(len(keys)):
        amps = branches[classes[block]]
        probs = np.real(np.sum(amps.conj() * amps, axis=1))
        live = probs > ZERO_PROB
        pre = np.zeros_like(amps)
        pre[live] = amps[live] / np.sqrt(probs[live])[:, None]
        corrected = None if mats is None else (mats[table.index[block]] @ pre[:, :, None])[:, :, 0]
        records += [
            OutcomeRecord(
                key,
                float(probs[i]),
                sv.StateVector(num_out, pre[i]) if live[i] else None,
                sv.StateVector(num_out, corrected[i]) if corrected is not None and live[i] else None,
            )
            for i, key in enumerate(keys[block])
        ]
    return records


# ---------------------------------------------------------------------------
# Recovery naming
# ---------------------------------------------------------------------------

def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = FIDELITY_TOL) -> np.ndarray:
    """Per pair of matrices in broadcast stacks: both zero (mean probability
    ||m||_F^2 / d below ZERO_PROB), or neither and |tr(a†b)| >=
    (1 - tol)·||a||_F·||b||_F, which only proportional ones reach."""
    ac = a.conj()
    aa, bb = (ac * a).real.sum(axis=(-2, -1)), (b.conj() * b).real.sum(axis=(-2, -1))
    zero_a, zero_b = aa < a.shape[-1] * ZERO_PROB, bb < b.shape[-1] * ZERO_PROB
    overlap = abs((ac * b).sum(axis=(-2, -1)))
    return (zero_a == zero_b) & (zero_a | (overlap >= (1.0 - tol) * np.sqrt(aa * bb)))


def _phases(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix in a (k, d, d) stack: each column's largest-magnitude row,
    and that entry's phase relative to column 0's in eighth turns (0 against
    a zero entry). For a phased permutation this pins the matrix up to
    global phase."""
    rows = np.abs(mats).argmax(axis=1)
    lead = np.take_along_axis(mats, rows[:, None, :], axis=1)[:, 0, :]
    turns = np.rint(np.angle(lead * lead[:, :1].conj()) / (np.pi / 4)).astype(np.intp) % 8
    return rows, turns


def _monomial_forms(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per matrix in a (k, d, d) stack: the rows of its :func:`_phases`, the
    turns as quarter turns q, and whether the matrix is the phased
    permutation they describe, sending column x to row rows[x] with phase
    i**q[x]: the turns are even, the rows a permutation, and the matrix
    equals that permutation up to phase. The one phased-permutation test of
    recovery naming."""
    rows, turns = _phases(stack)
    q = turns >> 1
    dim = stack.shape[-1]
    mats = np.zeros(stack.shape, dtype=complex)
    mats[np.arange(len(stack))[:, None], rows, np.arange(dim)] = np.array([1, 1j, -1, -1j])[q]
    ok = ((turns & 1) == 0).all(axis=1) & (np.sort(rows, axis=1) == np.arange(dim)).all(axis=1)
    return rows, q, ok & _equal_up_to_phase(mats, stack)


Factor = tuple[str, tuple[int, ...]]


# Four three-wire recovery classes, keyed by their linear part (the image
# of each wire's unit vector, wire 0 the leading bit) and their controlled-Z
# pairs, are named by the controlled-swap closure's word rather than by
# their own entangler's: the swap of wires 1 and 2 or not, wire 0's fan-out
# onto wires 1 and 2, then the controlled-Z pairs of wire 0 with each or
# not. Each word's matrix is its class's entangler; only the name differs,
# and fredkin's derived table reads these names.
_CSWAP_WORDS = {
    ((0b111, 0b010, 0b001), ()): (("Ucx", (0, 1)), ("Ucx", (0, 2))),
    ((0b111, 0b010, 0b001), ((0, 1), (0, 2))): (
        ("Ucx", (0, 1)), ("Ucx", (0, 2)), ("Ucz", (0, 1)), ("Ucz", (0, 2)),
    ),
    ((0b111, 0b001, 0b010), ()): (
        ("Ucx", (1, 2)), ("Ucx", (2, 1)), ("Ucx", (1, 2)), ("Ucx", (0, 1)), ("Ucx", (0, 2)),
    ),
    ((0b111, 0b001, 0b010), ((0, 1), (0, 2))): (
        ("Ucx", (1, 2)), ("Ucx", (2, 1)), ("Ucx", (1, 2)), ("Ucx", (0, 1)), ("Ucx", (0, 2)),
        ("Ucz", (0, 1)), ("Ucz", (0, 2)),
    ),
}


# _TAILS[flip][turn] names the one-wire factor that sends bit b to
# b ^ flip with phase i**(turn·b), up to global phase: the first chain over
# I, Up, sz, sx in that class in (length, alphabet) order. sz precedes sx,
# so the z-then-x class reads sz.sx, the way recovery products are written.
_TAILS = (
    (("I",), ("Up",), ("sz",), ("Up", "sz")),
    (("sx",), ("sx", "Up"), ("sz", "sx"), ("Up", "sx")),
)


def derive_corrections(pattern: GatePattern) -> CorrectionTable:
    """The correction repairing each outcome, found from its map alone.

    A map M of scale s = ||M||_F^2 / d, its mean branch probability, is
    zero when s < ZERO_PROB: the outcome is unreachable and gets the
    identity. Otherwise M must be proportional to a unitary (||M†M - s·I||_F
    <= SPREAD_TOL·s), and the needed recovery is T·M†/s with T the target.
    A recovery confirmed to be a phased permutation (see
    :func:`_monomial_forms`) is named as its own entangler times one
    tail per wire (see :func:`_name_recoveries`) when the vocabulary
    generates it: per-wire flips and quarter turns for ``pauli_phase``,
    and those with controlled-X and controlled-Z factors for ``full``. Each
    bitwise-distinct map is resolved once and its result goes to every
    outcome carrying it. Raises :class:`DerivationError` listing the
    outcomes no correction repairs.
    """
    table, failures = derive_corrections_with_failures(pattern)
    if failures:
        raise DerivationError(failures)
    return table


def derive_corrections_with_failures(
    pattern: GatePattern,
) -> tuple[CorrectionTable, DerivationFailures]:
    """Like :func:`derive_corrections`, but returns the unrepairable
    outcomes (with the reason read off their map) instead of raising; such
    outcomes are filled with the identity."""
    if pattern.vocabulary not in VOCABULARIES:
        raise PatternFormatError(f"unknown correction vocabulary {pattern.vocabulary!r}")
    maps = outcome_maps(pattern)
    facts, classes = maps.facts, maps.classes
    identity = CorrectionOp.identity()
    class_ops = np.full(len(maps.distinct), identity, dtype=object)
    outside = np.zeros(len(maps.distinct), dtype=bool)
    # Maps proportional to a unitary need the recovery T·M†/s, T the target.
    unitary = np.flatnonzero(facts.unitary)
    for block in _blocks(len(unitary)):
        at = unitary[block]
        adjoint = maps.distinct[at].conj().transpose(0, 2, 1)
        needed = pattern.target @ adjoint / facts.scale[at, None, None]
        named = _name_recoveries(needed, pattern.num_outputs, pattern.vocabulary)
        outside[at] = [op is None for op in named]
        class_ops[at] = [identity if op is None else op for op in named]
    # Classes are in first-occurrence order, so ops numbered by first class
    # are numbered by first outcome.
    rows: dict[CorrectionOp, int] = {}
    class_rows = np.array([rows.setdefault(op, len(rows)) for op in class_ops], dtype=np.intp)
    hits = np.flatnonzero((outside | ~(facts.zero | facts.unitary))[classes])
    failures = DerivationFailures(maps, hits, outside, pattern.vocabulary)
    return CorrectionTable(maps.layout, tuple(rows), class_rows[classes]), failures


def _name_recoveries(
    stack: np.ndarray, num_wires: int, vocabulary: str
) -> list[CorrectionOp | None]:
    """Name each recovery g of a (k, d, d) stack as its entangler E times
    one tail per wire, or None where the vocabulary does not generate it.

    g must be a phased permutation (see :func:`_monomial_forms`), whose
    integer form sends column x to row r[x] with i**q[x]. E is the identity
    for ``pauli_phase``; for ``full`` it is g's own entangler: the
    controlled-X word of g's linear part, then its controlled-Z pairs
    (or, for four three-wire classes, the word of ``_CSWAP_WORDS``). The
    remainder E⁻¹·g is local exactly when the vocabulary generates g: it
    sends x to x ^ t with turns linear in the bits of x, and wire i's tail
    is ``_TAILS[t_i][turn_i]``. Every step is integer arithmetic on the
    forms, done once per distinct form, and each distinct E's word is built
    once per call.
    """
    n, dim = num_wires, 1 << num_wires
    rows, q, ok = _monomial_forms(stack)
    named: list[CorrectionOp | None] = [None] * len(stack)
    good = np.flatnonzero(ok)
    if not good.size:
        return named
    forms, which = np.unique(np.hstack([rows, q])[good], axis=0, return_inverse=True)
    rows, q = forms[:, :dim], forms[:, dim:]
    place = 1 << np.arange(n - 1, -1, -1)
    bits = ((np.arange(dim)[:, None] & place) != 0).astype(np.intp)  # bits[x, i]: wire i of x
    first, second = np.triu_indices(n, 1)
    if vocabulary == "full":
        # E sends column x to row lin·x with sign (-1)**cz(x); column j of
        # lin is images[j], the image of wire j's unit vector.
        images = rows[:, place] ^ rows[:, :1]
        cz = (q[:, place[first] | place[second]] - q[:, place[first]] - q[:, place[second]]) % 4 == 2
    else:
        images = np.broadcast_to(place, (len(forms), n))
        cz = np.zeros((len(forms), len(first)), dtype=bool)
    e_rows = ((bits @ bits[images]) & 1) @ place
    e_turns = 2 * cz.astype(np.intp) @ (bits[:, first] & bits[:, second]).T
    # E⁻¹ sends row r[x] back to column rest[x] and undoes E's turns there.
    e_inverse = np.argsort(e_rows, axis=1)
    rest = np.take_along_axis(e_inverse, rows, axis=1)
    turns = q - np.take_along_axis(np.take_along_axis(e_turns, e_inverse, axis=1), rows, axis=1)
    turns = (turns - turns[:, :1]) % 4
    flips, wire_turns = rest[:, 0], turns[:, place]
    fits = (rest == np.arange(dim) ^ flips[:, None]).all(axis=1)
    fits &= (turns == wire_turns @ bits.T % 4).all(axis=1)
    pairs = list(zip(first.tolist(), second.tolist()))
    words: dict[tuple, tuple[Factor, ...]] = {}
    ops: list[CorrectionOp | None] = []
    for f, (found, flip, turn, image, on) in enumerate(
        zip(fits.tolist(), bits[flips].tolist(), wire_turns.tolist(), images.tolist(), cz.tolist())
    ):
        if not found:
            ops.append(None)
            continue
        key = (tuple(image), tuple(p for p, o in zip(pairs, on) if o))
        if key not in words:
            words[key] = _CSWAP_WORDS.get(key) or (
                _linear_word(bits[images[f]].T) + tuple(("Ucz", p) for p in key[1])
            )
        tails = tuple(_TAILS[a][b] for a, b in zip(flip, turn))
        ops.append(CorrectionOp(words[key] + CorrectionOp.from_wire_products(tails).factors))
    for i, f in zip(good.tolist(), which.reshape(-1).tolist()):
        named[i] = ops[f]
    return named


def _linear_word(lin: np.ndarray) -> tuple[Factor, ...]:
    """The shortest controlled-X word of the invertible bit matrix ``lin``:
    empty for the identity, else read from :func:`_linear_words`. That table
    spans GL(n, 2), 20160 maps for 4 wires but 9999360 for 5, so any other
    map on more than 4 wires is refused."""
    n = len(lin)
    if (lin == np.eye(n, dtype=lin.dtype)).all():
        return ()
    if n > 4:
        raise sv.UsageError(
            f"the full vocabulary names controlled-X recoveries on at most 4 output wires, not {n}"
        )
    return _linear_words(n)[int(lin.reshape(-1) @ (1 << np.arange(n * n)))]


@lru_cache(maxsize=4)
def _linear_words(num_wires: int) -> dict[int, tuple[Factor, ...]]:
    """Shortest controlled-X factor words for every invertible linear map
    over F2^num_wires (bit i = wire i), keyed by its bit matrix with entry
    (i, j) at bit i·num_wires + j, so row i is one mask of num_wires bits.
    Words are in matrix order: Ucx[c,t] before a word is the map whose row
    t is XORed with its row c."""
    n, row = num_wires, (1 << num_wires) - 1
    gens = [(c * n, t * n, ("Ucx", (c, t))) for c in range(n) for t in range(n) if c != t]
    identity = sum(1 << (i * n + i) for i in range(n))
    words: dict[int, tuple[Factor, ...]] = {identity: ()}
    queue = [identity]
    for a in queue:  # breadth first: the queue grows as it is read
        for c, t, factor in gens:
            b = a ^ ((a >> c) & row) << t
            if b not in words:
                words[b] = (factor,) + words[a]
                queue.append(b)
    return words


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableDiff:
    """Cell-level comparison of two correction tables up to global phase."""

    total: int
    mismatches: tuple[tuple[OutcomeKey, str, str], ...]

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)


def compare_tables(derived: CorrectionTable, printed: CorrectionTable, num_wires: int) -> TableDiff:
    """Per-cell operator equivalence up to global phase, tested once per
    distinct pair of ops, for two tables over one layout; mismatches come
    in that layout's order, sorted key order."""
    if printed.layout != derived.layout:
        raise sv.UsageError("correction tables address different outcome sets")
    width = len(printed.ops)
    first, pair_of = _distinct(derived.index * width + printed.index, len(derived.ops) * width)
    d, p = derived.index[first], printed.index[first]
    differ = ~_equal_up_to_phase(derived.matrices(num_wires)[d], printed.matrices(num_wires)[p])
    hits = np.flatnonzero(differ[pair_of])
    d_text, p_text = ([op.render(num_wires) for op in t.ops] for t in (derived, printed))
    cells = zip(derived.layout.keys_at(hits), derived.index[hits].tolist(), printed.index[hits].tolist())
    mismatches = tuple((key, d_text[a], p_text[b]) for key, a, b in cells)
    return TableDiff(total=len(derived), mismatches=mismatches)


@dataclass
class VerificationReport:
    """Per-outcome, per-input corrected-output fidelities for one pattern.

    Outcomes with the same (map, correction) pair have equal rows, so the
    grid is kept once per pair: outcome i (position i of ``layout``) has
    row ``pair_of[i]`` of ``pair_fidelities`` and ``pair_probabilities``.
    :attr:`fidelities` gathers the full (outcomes, inputs) grid on first
    access.
    """

    pattern: str
    variant: str
    seed: int
    layout: OutcomeLayout
    input_labels: list[str]
    pair_fidelities: np.ndarray     # (pairs, inputs); NaN where the branch has zero probability
    pair_probabilities: np.ndarray  # same shape
    pair_of: np.ndarray             # (outcomes,) each outcome's pair row
    min_fidelity: float
    worst_outcome: OutcomeKey | None
    worst_input: str | None
    zero_probability_outcomes: list[OutcomeKey]
    suspicious_outcomes: list[OutcomeKey]
    probability_sums: np.ndarray  # per input; 1 within SUM_TOL by completeness
    outcome_probability_range: tuple[float, float]
    passed: bool
    loss_demo: bool = False
    table_diff: TableDiff | None = None
    notes: list[str] = field(default_factory=list)

    @cached_property
    def fidelities(self) -> np.ndarray:
        """(outcomes, inputs) fidelities, NaN where the branch has zero probability."""
        return self.pair_fidelities[self.pair_of]


def default_inputs(dim: int, seed: int) -> tuple[np.ndarray, list[str]]:
    rng = np.random.default_rng(seed)
    num_qubits = dim.bit_length() - 1
    labels = [f"|{i:0{num_qubits}b}>" for i in range(dim)]
    rand = [random_state(num_qubits, rng, sv.MIN_GENERIC_AMP) for _ in range(RANDOM_INPUTS)]
    labels += [f"rand{r:02d}" for r in range(RANDOM_INPUTS)]
    return np.hstack([np.eye(dim, dtype=complex), np.column_stack(rand)]), labels


def _column_sums(pair_rows: np.ndarray, pair_of: np.ndarray) -> np.ndarray:
    """``pair_rows[pair_of].sum(axis=0)`` bit for bit, one block of rows at a
    time, for a grid of several columns (the default inputs give at least
    22). numpy adds the rows of such an axis-0 sum one after another, so
    each block is gathered into one reused buffer below the running sum,
    and its sum continues from that row."""
    step = 4 * _BLOCK
    rows = np.empty((min(step + 1, len(pair_of)), pair_rows.shape[1]))
    rows[0] = pair_rows[pair_of[0]]
    for lo in range(1, len(pair_of), step):
        block = pair_of[lo:lo + step]
        np.take(pair_rows, block, axis=0, out=rows[1:len(block) + 1], mode="clip")
        rows[0] = rows[:len(block) + 1].sum(axis=0)
    return rows[0].copy()


def _first_occurrences(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """For ids below ``size``, each distinct id's first position, in id
    order, and each position's rank among them, as ``np.unique(ids,
    return_index=True, return_inverse=True)[1:]`` gives them, read from a
    dense table of each value's first position instead of a sort."""
    table = np.full(size, len(ids))
    np.minimum.at(table, ids, np.arange(len(ids)))
    held = table < len(ids)
    return table[held], (np.cumsum(held) - 1)[ids]


def _distinct(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_index=True, return_inverse=True)[1:]`` for ids
    below ``size``, from :func:`_first_occurrences` when ``size`` is no larger."""
    if size <= len(ids):
        return _first_occurrences(ids, size)
    return np.unique(ids, return_index=True, return_inverse=True)[1:]


def verify_pattern(
    pattern: GatePattern,
    corrections: CorrectionTable | None = None,
    seed: int = DEFAULT_SEED,
    fidelity_tol: float = FIDELITY_TOL,
    loss_demo: bool = False,
) -> VerificationReport:
    """Certify the pattern against its target T over all outcomes.

    The verdict reads no input state: each distinct (map, correction) pair
    of a nonzero map M has R·M proportional to T (see
    :func:`_equal_up_to_phase`, at ``fidelity_tol``), the outcomes' M†M sum
    to I within SUM_TOL in spectral norm, and no map is zero (see
    :class:`MapFacts`) unless ``loss_demo`` is set. The grid over all
    computational basis states plus RANDOM_INPUTS seeded random states is
    diagnostic; its first random state is the generic probe for the
    suspicious outcomes and the range.
    """
    table = corrections if corrections is not None else pattern.corrections
    if table is None:
        raise MissingCorrectionError(
            f"pattern {pattern.name!r} has no correction table; derive one first"
        )
    dim = 1 << pattern.num_outputs
    columns, input_labels = default_inputs(dim, seed)

    maps = outcome_maps(pattern)
    layout = pattern.layout
    if table.layout != layout:
        raise sv.UsageError("correction table is not over the pattern's outcomes")
    mats, op_index = table.matrices(pattern.num_outputs), table.index
    target_out = pattern.target @ columns
    # Outcomes with a bitwise-equal map and the same correction have equal
    # rows; each distinct (map, correction) pair is computed and certified
    # at its first outcome, and the report keeps one row per pair.
    classes, zero = maps.classes, maps.facts.zero
    first, pair_of = _distinct(classes * len(mats) + op_index, len(zero) * len(mats))
    pair_fids = np.full((len(first), columns.shape[1]), np.nan)
    pair_probs = np.zeros_like(pair_fids)
    certified = True
    for block in _blocks(len(first)):
        outcomes = first[block]
        recoveries, held = mats[op_index[outcomes]], classes[outcomes]
        out = recoveries @ (maps.distinct[held] @ columns)
        norms = np.linalg.norm(out, axis=1)
        pair_probs[block] = norms**2
        overlaps = np.abs(np.sum(target_out.conj() * out, axis=1))
        np.divide(overlaps, norms, out=pair_fids[block], where=norms > np.sqrt(ZERO_PROB))
        fits = _equal_up_to_phase(pattern.target, recoveries @ maps.distinct[held], fidelity_tol)
        certified &= bool((fits | zero[held]).all())
    generic = pair_probs[pair_of, dim]
    zero_prob = layout.keys_at(np.flatnonzero(zero[classes]))
    suspicious = layout.keys_at(
        np.flatnonzero((generic >= ZERO_PROB) & (generic < SUSPICIOUS_PROB))
    )

    finite = np.isfinite(pair_fids)
    if finite.any():
        masked = np.where(finite, pair_fids, np.inf)
        min_fidelity = float(masked.min())
        # The worst cell is the first minimum in (outcome, input) order. Each
        # pair first occurs at its representative outcome, so that cell lies
        # in the holding pair with the earliest representative.
        holders = np.flatnonzero((masked == min_fidelity).any(axis=1))
        worst = holders[np.argmin(first[holders])]
        worst_outcome = layout.key(first[worst])
        worst_input = input_labels[int(np.argmax(masked[worst] == min_fidelity))]
    else:
        min_fidelity = 0.0
        worst_outcome = worst_input = None
    live_gen = generic[generic >= ZERO_PROB]
    prange = (
        (float(live_gen.min()), float(live_gen.max())) if live_gen.size else (0.0, 0.0)
    )
    sums = _column_sums(pair_probs, pair_of)
    # Complete measurements: Σ_c n_c·M_c†M_c = I within SUM_TOL in spectral
    # norm, n_c the outcomes of class c. The Frobenius norm bounds it, so the
    # SVD runs only when that bound is over.
    counts = np.bincount(classes, minlength=len(maps.distinct))
    gram = np.tensordot(counts[:, None, None] * maps.distinct.conj(), maps.distinct, ([0, 1], [0, 1]))
    residual = gram - np.eye(len(gram))
    complete = any(np.linalg.norm(residual, norm) <= sv.SUM_TOL for norm in ("fro", 2))
    notes = []
    if not complete:
        # Incomplete means the measurement groups are not honest projective
        # measurements (e.g. an overcomplete basis smuggled past validation).
        notes.append(
            f"probability sums deviate from 1 (max {float(np.max(np.abs(sums - 1.0)))!r}); "
            "the pattern's measurements are not complete projective measurements"
        )
    passed = certified and complete and (not zero_prob or loss_demo)
    return VerificationReport(
        pattern=pattern.name,
        variant=pattern.variant,
        seed=seed,
        layout=layout,
        input_labels=input_labels,
        pair_fidelities=pair_fids,
        pair_probabilities=pair_probs,
        pair_of=pair_of,
        min_fidelity=min_fidelity,
        worst_outcome=worst_outcome,
        worst_input=worst_input,
        zero_probability_outcomes=zero_prob,
        suspicious_outcomes=suspicious,
        probability_sums=sums,
        outcome_probability_range=prange,
        passed=passed,
        loss_demo=loss_demo,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Information loss
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossOutcome:
    key: OutcomeKey
    probability: float
    rank: int
    annihilated: tuple[int, ...]  # basis-input indices mapped to zero


@dataclass
class LossReport:
    pattern: str
    seed: int
    lossy: bool
    zero_probability_outcomes: list[OutcomeKey]
    outcomes: list[LossOutcome]
    annihilated_components: list[int]

    def component_names(self) -> list[str]:
        return [f"c{i}" for i in self.annihilated_components]


def detect_information_loss(pattern: GatePattern, seed: int = DEFAULT_SEED) -> LossReport:
    """Check whether any outcome destroys input components.

    Lists the outcomes whose map is zero (see :class:`MapFacts`), and for
    the others reports the rank of the input->output map, which basis
    inputs it annihilates and its probability on verification's generic
    probe, the first seeded random input (all amplitudes bounded away from
    zero). A pattern is lossy when an outcome with a nonzero map has a
    rank-deficient map, so that branch cannot carry every input faithfully.
    A map that annihilates a basis input is one: the vanishing column's norm
    bounds its smallest singular value.
    """
    dim = 1 << len(pattern.input_wires)
    generic = default_inputs(dim, seed)[0][:, dim]
    maps = outcome_maps(pattern)
    classes = maps.classes
    live, ranks = ~maps.facts.zero, maps.facts.ranks(np.arange(len(maps.distinct)))
    dead = (np.linalg.norm(maps.distinct, axis=1) < sv.RANK_TOL) & live[:, None]
    # Probabilities formed as np.linalg.norm(m @ generic) ** 2 forms them for
    # one map (dot products of the real and imaginary parts, then the root
    # squared), so the printed values do not depend on batching.
    out = (maps.distinct @ generic)[:, None, :]
    sq = out.real @ out.real.transpose(0, 2, 1) + out.imag @ out.imag.transpose(0, 2, 1)
    probs = [x**2 for x in np.sqrt(sq[:, 0, 0]).tolist()]
    flagged = live & (ranks < dim)
    lost = {c: tuple(np.flatnonzero(dead[c]).tolist()) for c in np.flatnonzero(flagged).tolist()}
    hits = np.flatnonzero(flagged[classes])
    outcomes = [
        LossOutcome(key, probs[c], int(ranks[c]), lost[c])
        for key, c in zip(maps.layout.keys_at(hits), classes[hits].tolist())
    ]
    annihilated = np.flatnonzero(dead.any(axis=0)).tolist()
    return LossReport(
        pattern=pattern.name,
        seed=seed,
        lossy=bool(flagged.any()),
        zero_probability_outcomes=maps.layout.keys_at(np.flatnonzero(~live[classes])),
        outcomes=outcomes,
        annihilated_components=annihilated,
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityResult:
    n: int
    passed: bool
    note: str


def parity_experiment(max_n: int, seed: int = DEFAULT_SEED) -> list[ParityResult]:
    """Chain constructions of length 1..max_n verified against controlled-Z.

    The |11> output component carries (-1)^n, so odd lengths pass and even
    lengths fail (their derivation against controlled-Z finds no local
    correction).
    """
    from .catalog import MAX_CHAIN_LENGTH, chain_cz_pattern
    from .gates import CZ

    if not 1 <= max_n <= MAX_CHAIN_LENGTH:
        raise sv.UsageError(f"max_n must lie in 1..{MAX_CHAIN_LENGTH}, got {max_n}")
    results = []
    for n in range(1, max_n + 1):
        pattern = chain_cz_pattern(n).with_target(CZ)
        try:
            table = derive_corrections(pattern)
        except DerivationError as exc:
            results.append(ParityResult(n, False, f"derivation failed: {exc}"))
            continue
        report = verify_pattern(pattern, corrections=table, seed=seed)
        results.append(ParityResult(n, report.passed, f"min fidelity {report.min_fidelity:.12f}"))
    return results


@dataclass(frozen=True)
class VariantSelection:
    """The toffoli variant shown (the first that verifies, else the last
    built, else the last that validated), its derived table and report
    (None if rejected first) and each variant's record."""

    pattern: GatePattern
    table: CorrectionTable | None
    report: VerificationReport | None
    record: dict[str, str]


def select_toffoli_variant(
    seed: int = DEFAULT_SEED, fidelity_tol: float = FIDELITY_TOL
) -> VariantSelection:
    """Try both transcriptions of the first three-control group basis, each
    derived and verified once. The literal one cannot form a complete
    orthonormal basis and is rejected before simulation."""
    from .catalog import TOFFOLI_VARIANTS, toffoli_pattern

    record: dict[str, str] = {}
    selected = built = None
    for variant in TOFFOLI_VARIANTS:
        try:
            pattern = toffoli_pattern(variant)
            table = derive_corrections(pattern)
        except (PatternFormatError, DerivationError) as exc:
            record[variant] = f"rejected: {exc}"
            continue
        report = verify_pattern(pattern, corrections=table, seed=seed, fidelity_tol=fidelity_tol)
        built = (pattern, table, report)
        if report.passed and selected is None:
            record[variant] = f"verified (min fidelity {report.min_fidelity:.12f})"
            selected = built
        else:
            record[variant] = f"built but failed verification ({report.min_fidelity:.6f})"
    return VariantSelection(*(selected or built or (pattern, None, None)), record)


def phase_family_obstruction() -> tuple[complex, float]:
    """Why the controlled-Z wiring, phased on its pairs and branches, cannot
    give the controlled quarter-turn diag(1, 1, 1, i).

    ``catalog.parameterized_cz_pattern(k, kt, p, m, n)`` puts phases p, m, n
    on its pair states and k, kt on its two groups' second branches. Its base
    outcome's map, divided by its (0,0) entry, is the closed form
    D = diag(1, n·p·k̄t, m·k̄, -m·n·p·k̄·k̄t). The map is multilinear in
    (k̄, k̄t, p, m, n), so agreeing with D entrywise within ATOL_AMP at the 32
    vertices {±1}^5, which this checks by simulation, pins it for every
    assignment. A disagreement raises RuntimeError.

    Returns two exact values:

    - The phase-free invariant D_00·D_11/(D_01·D_10), D's diagonal indexed
      by the two wires' bits, as read off the simulated vertices (the one
      farthest from -1). It is -1 for every assignment, and diag(1, 1, 1, i)
      has i, so no assignment realizes the gate, unit-modulus or not.
    - The least phase-insensitive distance sqrt(2 - |tr(D†G)|/2) from D to
      the gate G over unit phases, 2·sin(π/16). With x = n·p·k̄t and
      y = m·k̄, tr(D†G) = (1 + x̄) + ȳ·(1 - i·x̄), whose modulus is at most
      |1 + x̄| + |1 - i·x̄| <= 4·cos(π/8), with equality at x̄ = e^{iπ/4}.
    """
    from .catalog import parameterized_cz_pattern

    base = ((0, 0, "+"), (0, 0, "+"))
    ratios = []
    for k, kt, p, m, n in product((1.0, -1.0), repeat=5):
        d = outcome_maps(parameterized_cz_pattern(k, kt, p, m, n))[base]
        d = d / d[0, 0]
        form = np.diag([1, n * p * kt, m * k, -m * n * p * k * kt])  # real: k̄ = k
        if np.abs(d - form).max() > sv.ATOL_AMP:
            raise RuntimeError(f"closed form disagrees with simulation at {(k, kt, p, m, n)}")
        ratios.append(d[0, 0] * d[3, 3] / (d[1, 1] * d[2, 2]))
    invariant = max(ratios, key=lambda r: abs(r + 1))
    return complex(invariant), float(2 * np.sin(np.pi / 16))
