"""Brute-force verification oracle.

Enumerates every joint-measurement outcome of a pattern, applies or derives
the outcome corrections, certifies that each corrected branch implements the
target gate up to global phase, and detects information loss caused by
resource/basis mismatch.

Derivation reads each outcome's correction off its input->output map, with
no probe states. Everything here is deterministic: the random verification
and loss-check inputs come from a seeded generator (default seed below),
outcome records are emitted in lexicographic label order, and each
recovery has exactly one name, so two runs with the same seed produce
bit-identical reports.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import count, cycle, product

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
    """A correction entry required for verification is absent."""


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


def _register_factors(pattern: GatePattern) -> list[np.ndarray]:
    """The factors whose broadcast product is the register of every
    computational-basis input, its qubits in measurement order: each group's
    qubits in group order, group after group, then the output wires in
    output order. The placed input identity comes first and each resource
    follows in resource order, as np.kron multiplies them. Each factor has
    one axis per qubit, of size 2 on its own qubits and 1 elsewhere, then
    its columns (d_in for the identity, 1 for a resource)."""
    dim = 1 << len(pattern.input_wires)
    qubits = [q for group in pattern.groups for q in group.qubits] + list(pattern.output_wires)
    axis = {q: i for i, q in enumerate(qubits)}

    def placed(wires: tuple[int, ...], amps: np.ndarray, columns: int) -> np.ndarray:
        # The factor's axes in register order, with size-1 axes elsewhere.
        order = sorted(range(len(wires)), key=lambda i: axis[wires[i]])
        t = amps.reshape([2] * len(wires) + [columns]).transpose(order + [len(wires)])
        shape = [1] * len(qubits) + [columns]
        for q in wires:
            shape[axis[q]] = 2
        return t.reshape(shape)

    factors = [placed(pattern.input_wires, np.eye(dim, dtype=complex), dim)]
    factors += [placed(wires, state.amps, 1) for wires, state in pattern.resources]
    return factors


def _register_rows(factors: list[np.ndarray], k: int, rows: np.ndarray, work: dict) -> np.ndarray:
    """The register's rows at the given indices over its k leading qubits
    (the first most significant), as an array of shape (rows, 2, ..., 2,
    d_in) over the other qubits. Each entry is its input amplitude times
    each resource amplitude in resource order: the products np.kron forms,
    broadcast straight into that layout, so a row holds the same bits
    whichever other rows are built with it."""
    bits = (rows[:, None] >> np.arange(k - 1, -1, -1)) & 1
    t = None
    for i, factor in enumerate(factors):
        # The factor's row for an index reads the index's bits on its own
        # leading qubits.
        own = [a for a in range(k) if factor.shape[a] == 2]
        at = bits[:, own] @ (1 << np.arange(len(own) - 1, -1, -1))
        part = factor.reshape(-1, *factor.shape[k:])[at]
        if t is None:
            t = part
        else:
            out = _buffer(work, (len(factors) - 1 - i) % 2, np.broadcast_shapes(t.shape, part.shape))
            t = np.multiply(t, part, out=out)
    return t


# The contraction streams the first group's basis rows in chunks that read
# at most this many register amplitudes and produce at most as many (but
# always one row), so every step of a chunk gathers and writes at most this
# many (or one register row's worth, where a row is wider). A stream writes
# its chunks into three reused flat buffers: 0 holds the register rows, 1
# their partial products and then the gathers, 2 the first group's output;
# each later group writes into the one of 0 and 2 it does not read.
_GATHER = 1 << 16


def _buffer(work: dict[int, np.ndarray], i: int, shape: tuple[int, ...]) -> np.ndarray:
    """The leading part of workspace buffer i as a C-ordered array of the
    given shape, the buffer first made or grown if it is too small."""
    size = math.prod(shape)
    if i not in work or work[i].size < size:
        work[i] = np.empty(size, dtype=complex)
    return work[i][:size].reshape(shape)


def _plan(basis: sv.MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """A (rows, K) basis's nonzero plan for :func:`_contract`: each row's
    nonzero columns first, in column order, for as many slots as the widest
    row has nonzeros (a shorter row's last slots take its first zero
    columns, in column order), and the conjugated coefficients there."""
    rows, cols, _ = basis.entries
    counts = np.bincount(rows, minlength=basis.size)
    width = max(1, int(counts.max()))
    full = counts == width
    index = np.empty((basis.size, width), dtype=np.intp)
    index[full] = cols[full[rows]].reshape(-1, width)
    index[~full] = np.argsort(basis.vectors[~full] == 0, axis=1, kind="stable")[:, :width]
    coeffs = np.take_along_axis(basis.vectors, index, axis=1).conj()[:, :, None]
    return index, coeffs


def _contract(
    index: np.ndarray, coeffs: np.ndarray, flat: np.ndarray, work: dict, into: int
) -> np.ndarray:
    """``vectors.conj() @ flat`` for the basis rows planned by :func:`_plan`
    and an (outcomes, K, columns) register, summed over each row's nonzero
    entries only, into workspace buffer ``into`` (not the one holding
    ``flat``), gathering in buffer 1.

    Slot s adds every row's s-th planned entry times the register slice at
    its column, in one pass over the whole chunk: :func:`_map_chunks` has
    already cut it to the gather budget. Catalog bases have at most 4
    nonzeros per row, so this does a few gathers instead of a K-term sum; a
    dense basis has K per row.
    """
    out = _buffer(work, into, (len(flat), len(index), flat.shape[2]))
    term = _buffer(work, 1, out.shape)
    np.take(flat, index[:, 0], axis=1, out=term, mode="clip")
    np.multiply(coeffs[:, 0], term, out=out)
    for s in range(1, index.shape[1]):
        np.take(flat, index[:, s], axis=1, out=term, mode="clip")
        term *= coeffs[:, s]
        out += term
    return out


def _row_chunks(index: np.ndarray, cap: int) -> Iterator[slice]:
    """Consecutive chunks of a nonzero plan's basis rows, each the longest
    run of at most ``cap`` rows that reads at most ``cap`` distinct register
    rows, but always one row."""
    lo = 0
    while lo < len(index):
        window = index[lo:lo + cap]
        # Each register row counts at the basis row that reads it first.
        _, first = np.unique(window, return_index=True)
        reads = np.bincount(first // window.shape[1], minlength=len(window)).cumsum()
        hi = lo + max(1, int(np.searchsorted(reads, cap, side="right")))
        yield slice(lo, hi)
        lo = hi


def _map_chunks(pattern: GatePattern) -> Iterator[np.ndarray]:
    """Every outcome's input->output map, unnormalized, in lexicographic
    label order, as arrays of shape (outcomes, 2^num_outputs, d_in): column
    j holds the residual output amplitudes for basis input j.

    The register's qubits are in measurement order, so each group's qubits
    lead the axes left when it measures them and the outputs end in output
    order: every flatten is a reshape, with no copy. The first group's basis
    rows stream in chunks that read at most ``_GATHER`` register amplitudes
    and produce at most as many (see :func:`_row_chunks`); a complete basis
    keeps the amplitude count, so every later group's step stays in that
    budget too, and each step is one :func:`_contract` pass. A register row
    wider than the budget makes chunks of one basis row, whose steps gather
    and write that row's whole output at once. A chunk builds only the
    register rows it reads and goes through every later group on its own,
    all in the stream's one workspace (see ``_GATHER``), so no array is
    register-sized and a yielded chunk is a view that stays valid only until
    the next one is requested. Each group's nonzero plan is made once for
    its whole basis, so every entry is the same sum however the rows are
    chunked.
    """
    factors = _register_factors(pattern)
    dim = factors[0].shape[-1]
    work: dict[int, np.ndarray] = {}
    if not pattern.groups:
        yield _register_rows(factors, 0, np.zeros(1, dtype=np.intp), work).reshape(1, -1, dim)
        return
    (k, (index, coeffs)), *later = [(len(g.qubits), _plan(g.basis)) for g in pattern.groups]
    row = dim << (factors[0].ndim - 1 - k)  # amplitudes in one register row
    for rows in _row_chunks(index, max(1, _GATHER // row)):
        needed, at = np.unique(index[rows], return_inverse=True)
        # The register rows the chunk reads, overwritten once contracted.
        chunk = _register_rows(factors, k, needed, work).reshape(1, len(needed), row)
        chunk = _contract(at.reshape(-1, index.shape[1]), coeffs[rows], chunk, work, 2)
        for (width, plan), into in zip(later, cycle((0, 2))):
            chunk = _contract(*plan, chunk.reshape(-1, 1 << width, chunk.shape[2] >> width), work, into)
        yield chunk.reshape(-1, chunk.shape[2] // dim, dim)


def _classify(chunks: Iterable[np.ndarray], total: int) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct maps among consecutive chunks of ``total`` maps,
    in first-occurrence order, and each outcome's class (its position in
    that order). Maps are keyed by their bytes, so they share a class only
    if their bytes are equal: -0.0 and +0.0, or entries one ulp apart, stay
    apart."""
    firsts: dict[bytes, int] = {}
    classes = np.empty(total, dtype=np.intp)
    start = 0
    for chunk in chunks:
        end = start + len(chunk)
        seen = len(firsts)
        # One bytes object per map, straight from a void view of the chunk.
        keys = chunk.reshape(len(chunk), -1).view(np.dtype((np.void, chunk[0].nbytes)))
        owners = np.fromiter(
            map(firsts.setdefault, keys.ravel().tolist(), count(start)),
            dtype=np.intp, count=len(chunk),
        )
        # A map first seen here owns its own position and opens the next
        # class; any other map's owner came before it and is classed already.
        new = owners == np.arange(start, end)
        ids = classes[start:end]
        ids[new] = np.arange(seen, len(firsts))
        ids[~new] = classes[owners[~new]]
        start, shape = end, chunk.shape[1:]
    distinct = np.frombuffer(b"".join(firsts), dtype=complex).reshape(-1, *shape)
    return distinct, classes


class OutcomeMaps(Mapping):
    """Read-only view of every outcome's input->output map.

    ``distinct`` holds each bitwise-distinct map once, as an array of shape
    (classes, d_out, d_in) in first-occurrence order; ``classes`` holds each
    outcome's row of ``distinct``, over outcomes in lexicographic label
    order, the order of the pattern's :attr:`GatePattern.layout`.
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


def _blocks(count: int):
    """Consecutive outcome slices of at most ``_BLOCK`` outcomes."""
    for lo in range(0, count, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, count))


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
    if table is None:
        mats, op_index = np.empty((0, 1 << num_out, 1 << num_out)), np.full(len(keys), -1)
    elif table.layout != pattern.layout:
        raise sv.UsageError("correction table is not over the pattern's outcomes")
    else:
        mats, op_index = table.matrices(num_out), table.index
    records = []
    for block in _blocks(len(keys)):
        amps = branches[classes[block]]
        probs = np.real(np.sum(amps.conj() * amps, axis=1))
        live = probs > ZERO_PROB
        pre = np.zeros_like(amps)
        pre[live] = amps[live] / np.sqrt(probs[live])[:, None]
        corrected = np.zeros_like(amps)
        fixed = live & (op_index[block] >= 0)
        corrected[fixed] = (mats[op_index[block][fixed]] @ pre[fixed][:, :, None])[:, :, 0]
        records += [
            OutcomeRecord(
                key,
                float(probs[i]),
                sv.StateVector(num_out, pre[i]) if live[i] else None,
                sv.StateVector(num_out, corrected[i]) if fixed[i] else None,
            )
            for i, key in enumerate(keys[block])
        ]
    return records


# ---------------------------------------------------------------------------
# Recovery naming
# ---------------------------------------------------------------------------

def _equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per pair of matrices in broadcast stacks: both zero (mean probability
    ||m||_F^2 / d below ZERO_PROB), or neither and |tr(a†b)| >=
    (1 - FIDELITY_TOL)·||a||_F·||b||_F, which only proportional ones reach."""
    ac = a.conj()
    aa, bb = (ac * a).real.sum(axis=(-2, -1)), (b.conj() * b).real.sum(axis=(-2, -1))
    zero_a, zero_b = aa < a.shape[-1] * ZERO_PROB, bb < b.shape[-1] * ZERO_PROB
    overlap = abs((ac * b).sum(axis=(-2, -1)))
    return (zero_a == zero_b) & (zero_a | (overlap >= (1.0 - FIDELITY_TOL) * np.sqrt(aa * bb)))


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


def _subset_products(units: list[tuple[Factor, ...]]) -> list[tuple[Factor, ...]]:
    combos: list[tuple[Factor, ...]] = []
    for bits in product((0, 1), repeat=len(units)):
        flat: tuple[Factor, ...] = ()
        for unit, bit in zip(units, bits):
            if bit:
                flat += unit
        combos.append(flat)
    return combos


def _entangler_prefixes(num_wires: int) -> list[tuple[Factor, ...]]:
    """The entangling prefixes naming tries first for the ``full``
    vocabulary, in order. One listed twice, as ``()`` is for three wires,
    does no harm: the first prefix that fits wins.

    Two wires: the optional controlled-Z. Three wires: the closures of the
    byproduct conjugations through the doubly-controlled-X and the
    controlled-swap (mutually commuting generator sets, so plain subset
    products), fewest factors first.
    """
    if num_wires == 2:
        return [(), (("Ucz", (0, 1)),)]
    if num_wires != 3:
        return [()]
    ccx_units = [
        (("Ucx", (1, 2)),),
        (("Ucx", (0, 2)),),
        (("Ucz", (0, 1)),),
    ]
    cswap_units = [
        (("Ucx", (1, 2)), ("Ucx", (2, 1)), ("Ucx", (1, 2))),  # swap of wires 1,2
        (("Ucx", (0, 1)), ("Ucx", (0, 2))),
        (("Ucz", (0, 1)), ("Ucz", (0, 2))),
    ]
    candidates = _subset_products(ccx_units) + _subset_products(cswap_units)
    candidates.sort(key=lambda f: (len(f), str(f)))
    return candidates


# _TAILS[flip][turn] names the one-wire factor that sends bit b to
# b ^ flip with phase i**(turn·b), up to global phase: the first chain over
# I, Up, sz, sx in that class in (length, alphabet) order. sz precedes sx,
# so the z-then-x class reads sz.sx, the way recovery products are written.
_TAILS = (
    (("I",), ("Up",), ("sz",), ("Up", "sz")),
    (("sx",), ("sx", "Up"), ("sz", "sx"), ("Up", "sx")),
)


@lru_cache(maxsize=8)
def _prefix_forms(num_wires: int, vocabulary: str) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The fixed prefixes naming tries, in order: ``()`` for ``pauli_phase``,
    :func:`_entangler_prefixes` for ``full``. With them, each one's inverse
    in integer form: the prefix sends column inverse[y] to row y with
    i**back[y]."""
    prefixes = tuple(_entangler_prefixes(num_wires)) if vocabulary == "full" else ((),)
    rows, q, _ = _monomial_forms(np.array([CorrectionOp(p).matrix(num_wires) for p in prefixes]))
    inverse = np.argsort(rows, axis=1)
    back = np.take_along_axis(q, inverse, axis=1)
    for array in (inverse, back):
        array.flags.writeable = False  # shared by every caller
    return prefixes, inverse, back


def derive_corrections(pattern: GatePattern) -> CorrectionTable:
    """The correction repairing each outcome, found from its map alone.

    A map M of scale s = ||M||_F^2 / d, its mean branch probability, is
    zero when s < ZERO_PROB: the outcome is unreachable and gets the
    identity. Otherwise M must be proportional to a unitary (||M†M - s·I||_F
    <= SPREAD_TOL·s), and the needed recovery is T·M†/s with T the target.
    A recovery confirmed to be a phased permutation (see
    :func:`_monomial_forms`) is named as an entangling prefix times one
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
    """Name each recovery g of a (k, d, d) stack as a prefix P times one
    tail per wire, or None where the vocabulary does not generate it.

    g must be a phased permutation (see :func:`_monomial_forms`), whose
    integer form sends column x to row r[x] with i**q[x]. The candidate
    prefixes are the fixed ones of :func:`_prefix_forms`, then, for
    ``full``, g's own entangler E: the controlled-X word of its linear
    part, then its controlled-Z pairs, which leaves a local remainder
    exactly when the vocabulary generates g. The first P whose remainder P⁻¹·g is local
    names g: the remainder sends x to x ^ t with turns linear in the bits of
    x, and wire i's tail is ``_TAILS[t_i][turn_i]``. Every step is integer
    arithmetic on the forms, done once per distinct form.
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
    prefixes, inverse, back = _prefix_forms(n, vocabulary)
    # P⁻¹ sends row r[x] back to column rest[x] and undoes P's turns there.
    rest, back = inverse[:, rows], back[:, rows]
    if vocabulary == "full":
        # E sends column x to row lin·x with sign (-1)**cz(x); column j of
        # lin is the image of wire j's unit vector.
        lin = bits[rows[:, place] ^ rows[:, :1]].transpose(0, 2, 1)
        first, second = np.triu_indices(n, 1)
        cz = (q[:, place[first] | place[second]] - q[:, place[first]] - q[:, place[second]]) % 4 == 2
        e_rows = ((bits @ lin.transpose(0, 2, 1)) & 1) @ place
        e_turns = 2 * cz.astype(np.intp) @ (bits[:, first] & bits[:, second]).T
        e_inverse = np.argsort(e_rows, axis=1)
        e_back = np.take_along_axis(e_turns, e_inverse, axis=1)
        rest = np.concatenate([rest, np.take_along_axis(e_inverse, rows, axis=1)[None]])
        back = np.concatenate([back, np.take_along_axis(e_back, rows, axis=1)[None]])
    turns = q - back
    turns = (turns - turns[..., :1]) % 4
    flips, wire_turns = rest[..., 0], turns[..., place]
    fits = (rest == np.arange(dim) ^ flips[..., None]).all(axis=2)
    fits &= (turns == wire_turns @ bits.T % 4).all(axis=2)
    pick = fits.argmax(axis=0)
    at = (pick, np.arange(len(forms)))
    ops: list[CorrectionOp | None] = []
    for f, (k, found, flip, turn) in enumerate(
        zip(pick.tolist(), fits[at].tolist(), bits[flips[at]].tolist(), wire_turns[at].tolist())
    ):
        if not found:
            ops.append(None)
            continue
        if k < len(prefixes):
            prefix = prefixes[k]
        else:
            pairs = zip(first.tolist(), second.tolist(), cz[f].tolist())
            prefix = _linear_words(n)[tuple(map(tuple, lin[f].tolist()))]
            prefix += tuple(("Ucz", (i, j)) for i, j, on in pairs if on)
        tails = tuple(_TAILS[a][b] for a, b in zip(flip, turn))
        ops.append(CorrectionOp(prefix + CorrectionOp.from_wire_products(tails).factors))
    for i, f in zip(good.tolist(), which.reshape(-1).tolist()):
        named[i] = ops[f]
    return named


@lru_cache(maxsize=4)
def _linear_words(num_wires: int) -> dict:
    """Shortest controlled-X factor words for every invertible linear map
    over F2^num_wires (bit i = wire i). Words are in matrix order."""
    from collections import deque

    n = num_wires
    gens = [(c, t) for c in range(n) for t in range(n) if c != t]
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    words: dict[tuple, tuple] = {identity: ()}
    queue = deque([identity])
    while queue:
        a = queue.popleft()
        for c, t in gens:
            rows = [list(r) for r in a]
            rows[t] = [x ^ y for x, y in zip(rows[t], rows[c])]
            b = tuple(tuple(r) for r in rows)
            if b not in words:
                words[b] = (("Ucx", (c, t)),) + words[a]
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
    distinct pair of ops, for two tables with cells at the same outcomes of
    one layout; mismatches come in that layout's order, sorted key order."""
    if printed.layout != derived.layout or not np.array_equal(derived.index >= 0, printed.index >= 0):
        raise sv.UsageError("correction tables address different outcome sets")
    order = np.flatnonzero(derived.index >= 0).tolist()
    pairs = list(zip(derived.index[order].tolist(), printed.index[order].tolist()))
    a, b = derived.matrices(num_wires), printed.matrices(num_wires)
    differ = {pair: not _equal_up_to_phase(a[pair[0]], b[pair[1]]) for pair in set(pairs)}
    hits = [(i, pair) for i, pair in zip(order, pairs) if differ[pair]]
    d_text, p_text = ([op.render(num_wires) for op in t.ops] for t in (derived, printed))
    keys = derived.layout.keys_at([i for i, _ in hits])
    mismatches = tuple((key, d_text[d], p_text[p]) for key, (_, (d, p)) in zip(keys, hits))
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
    time. numpy adds the rows of an axis-0 sum one after another, so each
    block is gathered into one reused buffer below the running sum, and its
    sum continues from that row. A single column is contiguous and numpy
    sums it pairwise instead, so it is gathered whole."""
    if pair_rows.shape[1] == 1:
        return pair_rows[pair_of].sum(axis=0)
    step = 4 * _BLOCK
    rows = np.empty((min(step + 1, len(pair_of)), pair_rows.shape[1]))
    rows[0] = pair_rows[pair_of[0]]
    for lo in range(1, len(pair_of), step):
        block = pair_of[lo:lo + step]
        np.take(pair_rows, block, axis=0, out=rows[1:len(block) + 1], mode="clip")
        rows[0] = rows[:len(block) + 1].sum(axis=0)
    return rows[0].copy()


def verify_pattern(
    pattern: GatePattern,
    inputs: np.ndarray | None = None,
    corrections: CorrectionTable | None = None,
    seed: int = DEFAULT_SEED,
    fidelity_tol: float = FIDELITY_TOL,
    loss_demo: bool = False,
) -> VerificationReport:
    """Certify the pattern against its target over all outcomes and inputs.

    Inputs default to all computational basis states plus RANDOM_INPUTS
    seeded random states; the columns of other inputs are labelled
    ``input00``, ``input01`` and so on. Zero-probability outcomes are those with a zero
    map (see :class:`MapFacts`). The first default random state is the
    generic probe for the suspicious outcomes and the range, whatever the
    inputs.
    """
    table = corrections if corrections is not None else pattern.corrections
    if table is None:
        raise MissingCorrectionError(
            f"pattern {pattern.name!r} has no correction table; derive one first"
        )
    dim = 1 << pattern.num_outputs
    defaults, input_labels = default_inputs(dim, seed)
    if inputs is None:
        inputs = defaults
    else:
        input_labels = [f"input{i:02d}" for i in range(inputs.shape[1])]
    # Column dim of the default inputs is the generic probe; other inputs
    # carry it as one more column, which the report's grid leaves out.
    probe_col = dim if inputs is defaults else inputs.shape[1]
    columns = inputs if inputs is defaults else np.hstack([inputs, defaults[:, dim:dim + 1]])

    maps = outcome_maps(pattern)
    layout = pattern.layout
    if table.layout != layout:
        raise sv.UsageError("correction table is not over the pattern's outcomes")
    mats, op_index = table.matrices(pattern.num_outputs), table.index
    if (op_index < 0).any():
        missing = layout.key(int(np.argmax(op_index < 0)))
        raise MissingCorrectionError(f"no correction entry for outcome {format_key(missing)}")
    target_out = pattern.target @ columns
    # Outcomes with a bitwise-equal map and the same correction have equal
    # rows; each distinct (map, correction) pair is computed at its first
    # outcome, and the report keeps one row per pair.
    classes = maps.classes
    _, first, pair_of = np.unique(
        classes * len(mats) + op_index, return_index=True, return_inverse=True
    )
    pair_fids = np.full((len(first), columns.shape[1]), np.nan)
    pair_probs = np.zeros_like(pair_fids)
    for block in _blocks(len(first)):
        outcomes = first[block]
        out = mats[op_index[outcomes]] @ (maps.distinct[classes[outcomes]] @ columns)
        norms = np.linalg.norm(out, axis=1)
        pair_probs[block] = norms**2
        overlaps = np.abs(np.sum(target_out.conj() * out, axis=1))
        np.divide(overlaps, norms, out=pair_fids[block], where=norms > np.sqrt(ZERO_PROB))
    generic = pair_probs[pair_of, probe_col]
    pair_fids, pair_probs = pair_fids[:, :inputs.shape[1]], pair_probs[:, :inputs.shape[1]]
    zero_prob = layout.keys_at(np.flatnonzero(maps.facts.zero[classes]))
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
    conserved = bool(np.max(np.abs(sums - 1.0)) <= sv.SUM_TOL)
    notes = []
    if not conserved:
        # Sums off 1 mean the measurement groups are not honest projective
        # measurements (e.g. an overcomplete basis smuggled past validation).
        notes.append(
            f"probability sums deviate from 1 (max {float(np.max(np.abs(sums - 1.0)))!r}); "
            "the pattern's measurements are not complete projective measurements"
        )
    passed = (
        min_fidelity >= 1.0 - fidelity_tol
        and (not zero_prob or loss_demo)
        and conserved
    )
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
