"""Brute-force verification oracle.

Enumerates every joint-measurement outcome of a pattern, applies or derives
the outcome corrections, certifies that each corrected branch implements the
target gate up to global phase, and detects information loss caused by
resource/basis mismatch.

Derivation reads each outcome's correction off its input->output map, with
no probe states. Everything here is deterministic: the random verification
and loss-check inputs come from a seeded generator (default seed below),
outcome records are emitted in lexicographic label order, and each
dictionary signature names exactly one candidate, so two runs with the same
seed produce bit-identical reports.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import count, product

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
        return self.maps.layout.key(position), self.reason(int(self.maps.classes[1][position]))

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


def _register_rows(factors: list[np.ndarray], k: int, rows: np.ndarray) -> np.ndarray:
    """The register's rows at the given indices over its k leading qubits
    (the first most significant), as an array of shape (rows, 2, ..., 2,
    d_in) over the other qubits. Each entry is its input amplitude times
    each resource amplitude in resource order: the products np.kron forms,
    broadcast straight into that layout, so a row holds the same bits
    whichever other rows are built with it."""
    bits = (rows[:, None] >> np.arange(k - 1, -1, -1)) & 1
    t = None
    for factor in factors:
        # The factor's row for an index reads the index's bits on its own
        # leading qubits.
        own = [a for a in range(k) if factor.shape[a] == 2]
        at = bits[:, own] @ (1 << np.arange(len(own) - 1, -1, -1))
        part = factor.reshape(-1, *factor.shape[k:])[at]
        if t is None:
            t = part
        else:
            out = np.empty(np.broadcast_shapes(t.shape, part.shape), dtype=complex)
            t = np.multiply(t, part, out=out)
    return t


# The contraction gathers at most this many amplitudes at a time (but always
# one column of every basis row), and streams the first group's basis rows
# in chunks that read at most this many register amplitudes and produce at
# most as many (but always one row). A chunk's working set is then a few
# such blocks: its register rows and their contraction, or a later group's
# input and output, plus one gather.
_GATHER = 1 << 16


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


def _contract(index: np.ndarray, coeffs: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``vectors.conj() @ flat`` for the basis rows planned by :func:`_plan`
    and an (outcomes, K, columns) register, summed over each row's nonzero
    entries only.

    Slot s adds every row's s-th planned entry times the register slice at
    its column. Catalog bases have at most 4 nonzeros per row, so this does
    a few gathers instead of a K-term sum; a dense basis has K per row.
    """
    outcomes, _, columns = flat.shape
    rows, width = index.shape
    out = np.empty((outcomes, rows, columns), dtype=complex)
    step_c = max(1, min(columns, _GATHER // rows))
    step_o = max(1, _GATHER // (rows * step_c))
    for lo in range(0, outcomes, step_o):
        for c in range(0, columns, step_c):
            src = flat[lo:lo + step_o, :, c:c + step_c]
            acc = out[lo:lo + step_o, :, c:c + step_c]
            np.multiply(coeffs[:, 0], src[:, index[:, 0]], out=acc)
            for s in range(1, width):
                term = src[:, index[:, s]]
                term *= coeffs[:, s]
                acc += term
                del term
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
    and produce at most as many (see :func:`_row_chunks`). A chunk builds
    only the register rows it reads, contracts and drops them, and goes
    through every later group on its own, so no array is register-sized.
    Each group's nonzero plan is made once for its whole basis, so every
    entry is the same sum however the rows are chunked.
    """
    factors = _register_factors(pattern)
    dim = factors[0].shape[-1]
    if not pattern.groups:
        yield _register_rows(factors, 0, np.zeros(1, dtype=np.intp)).reshape(1, -1, dim)
        return
    (k, (index, coeffs)), *later = [(len(g.qubits), _plan(g.basis)) for g in pattern.groups]
    row = dim << (factors[0].ndim - 1 - k)  # amplitudes in one register row
    for rows in _row_chunks(index, max(1, _GATHER // row)):
        needed, at = np.unique(index[rows], return_inverse=True)
        # The register rows the chunk reads, dropped once contracted; the
        # chunk before goes once they are built.
        chunk = _register_rows(factors, k, needed).reshape(1, len(needed), row)
        chunk = _contract(at.reshape(-1, index.shape[1]), coeffs[rows], chunk)
        for width, plan in later:
            chunk = _contract(*plan, chunk.reshape(-1, 1 << width, chunk.shape[2] >> width))
        yield chunk.reshape(-1, chunk.shape[2] // dim, dim)


def _classify(chunks: Iterable[np.ndarray], total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bitwise-distinct maps among consecutive chunks of ``total`` maps,
    in first-occurrence order; the first outcome carrying each; and each
    outcome's class (its position in that order). Maps are keyed by their
    bytes, so they share a class only if their bytes are equal: -0.0 and
    +0.0, or entries one ulp apart, stay apart."""
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
        # Let the chunk go before the next one is contracted.
        del chunk, keys
    reps = np.fromiter(firsts.values(), dtype=np.intp, count=len(firsts))
    distinct = np.frombuffer(b"".join(firsts), dtype=complex).reshape(-1, *shape)
    return distinct, reps, classes


class OutcomeMaps(Mapping):
    """Read-only view of every outcome's input->output map.

    ``distinct`` holds each bitwise-distinct map once, as an array of shape
    (classes, d_out, d_in) in first-occurrence order; ``classes`` is
    ``(reps, classes)``, the first outcome carrying each distinct map and
    each outcome's row of ``distinct``, over outcomes in lexicographic label
    order, the order of the pattern's :attr:`GatePattern.layout`.
    ``maps[key]`` is one row of ``distinct``. Byproduct repairs leave few
    distinct maps among many outcomes, so per-map work runs once per row of
    ``distinct``, and what derivation, verification and loss checks decide
    about a map they read from :attr:`facts`.
    """

    def __init__(
        self, pattern: GatePattern, distinct: np.ndarray, reps: np.ndarray, classes: np.ndarray
    ):
        for array in (distinct, reps, classes):
            array.flags.writeable = False
        self.distinct = distinct
        self.classes = (reps, classes)
        self.layout = pattern.layout

    def __len__(self) -> int:
        return len(self.classes[1])

    def __iter__(self):
        return iter(self.layout)

    def __getitem__(self, key: OutcomeKey) -> np.ndarray:
        return self.distinct[self.classes[1][self.layout.position(key)]]

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
    _, classes = maps.classes
    branches = maps.distinct @ input_state.amps
    keys = list(pattern.layout)
    num_out = len(pattern.output_wires)
    table = CorrectionTable.from_entries(pattern.corrections or (), pattern.layout)
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
# Correction dictionary
# ---------------------------------------------------------------------------

def _matrix_of_tail(tail: tuple[str, ...]) -> np.ndarray:
    from .patterns import ELEMENTARY_OPS

    out = np.eye(2, dtype=complex)
    for name in tail:
        out = out @ ELEMENTARY_OPS[name]
    return out


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per pair of matrices in broadcast stacks: both zero (mean probability
    ||m||_F^2 / d below ZERO_PROB), or neither and |tr(a†b)| >=
    (1 - FIDELITY_TOL)·||a||_F·||b||_F, which only proportional ones reach."""
    ac = a.conj()
    aa, bb = (ac * a).real.sum(axis=(-2, -1)), (b.conj() * b).real.sum(axis=(-2, -1))
    zero_a, zero_b = aa < a.shape[-1] * ZERO_PROB, bb < b.shape[-1] * ZERO_PROB
    overlap = abs((ac * b).sum(axis=(-2, -1)))
    return (zero_a == zero_b) & (zero_a | (overlap >= (1.0 - FIDELITY_TOL) * np.sqrt(aa * bb)))


def _canonical_tails() -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Single-wire factor chains of length <= 3, deduplicated up to phase,
    with their matrices.

    Enumeration order (length, then alphabet position) makes the first
    representative of each operator class the canonical, shortest name.
    sz precedes sx so the canonical name of the z-then-x class is sz.sx,
    the way recovery products are conventionally written.
    """
    alphabet = ("I", "Up", "sz", "sx")
    combos = [combo for length in (1, 2, 3) for combo in product(alphabet, repeat=length)]
    return _first_per_phase_class(combos, [_matrix_of_tail(combo) for combo in combos])


def _first_per_phase_class(candidates: list, mats: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """The candidates whose matrix equals no earlier one's up to phase, with
    their matrices stacked. Every candidate is a phased permutation with
    quarter-turn phases, so equal signatures mean equal up to phase."""
    mats = np.array(mats)
    _, firsts = np.unique(_signatures(mats), return_index=True)
    keep = np.sort(firsts)
    return [candidates[i] for i in keep.tolist()], mats[keep]


def _phases(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix in a (k, d, d) stack: each column's largest-magnitude row,
    and that entry's phase relative to column 0's in eighth turns. For a
    phased permutation this pins the matrix up to global phase."""
    rows = np.abs(mats).argmax(axis=1)
    lead = np.take_along_axis(mats, rows[:, None, :], axis=1)[:, 0, :]
    turns = np.rint(np.angle(lead / lead[:, :1]) / (np.pi / 4)).astype(np.intp) % 8
    return rows, turns


def _packed(rows: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """One integer key per row of (k, d) column rows and eighth turns, equal
    exactly when the rows and the turns relative to column 0 are: the
    digits 8·row + turn in base 8d. The keys are int64 where d such digits
    fit (d <= 8), Python ints beyond."""
    k, dim = rows.shape
    keys = np.zeros(k, dtype=np.int64 if (8 * dim) ** dim < 2**63 else object)
    for digit in (rows * 8 + (turns - turns[:, :1]) % 8).T:
        keys = keys * (8 * dim) + digit.astype(keys.dtype)
    return keys


def _signatures(mats: np.ndarray) -> np.ndarray:
    """The packed key of each matrix's :func:`_phases`."""
    return _packed(*_phases(mats))


Factor = tuple[str, tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class CorrectionDictionary(Sequence):
    """Candidate corrections for derivation in build order, read as the
    sequence of their ops (also ``ops``), each built when read.

    Op k is prefix ``k % len(prefixes)`` times the tensor product of the
    tails picked by the digits of ``k // len(prefixes)`` in base
    ``len(tails)`` (wire 0 most significant). Every candidate is a phased
    permutation, so its signature pins it up to phase, and no two share a
    signature: ``keys`` holds the signatures, sorted, and ``positions`` the
    op carrying each.
    """

    num_wires: int
    vocabulary: str
    tails: list[tuple[str, ...]]
    prefixes: list[tuple[Factor, ...]]
    tail_mats: np.ndarray    # (len(tails), 2, 2)
    prefix_mats: np.ndarray  # (len(prefixes), d, d)
    keys: np.ndarray
    positions: np.ndarray

    @property
    def ops(self) -> CorrectionDictionary:
        return self

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        local, prefix = divmod(range(len(self))[k], len(self.prefixes))
        picks = np.unravel_index(local, (len(self.tails),) * self.num_wires)
        wire_tails = CorrectionOp.from_wire_products(tuple(self.tails[t] for t in picks))
        return CorrectionOp(self.prefixes[prefix] + wire_tails.factors)

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """The matrices of the ops at ``positions``: each prefix's matrix
        times the kron of its tails' matrices. All entries are 0, +-1 or
        +-i, so these products equal CorrectionOp.matrix exactly."""
        local, prefix = np.divmod(positions, len(self.prefixes))
        mats = np.ones((len(prefix), 1, 1), dtype=complex)
        for pick in np.unravel_index(local, (len(self.tails),) * self.num_wires):
            size = 2 * mats.shape[1]
            mats = np.einsum("lab,lcd->lacbd", mats, self.tail_mats[pick]).reshape(-1, size, size)
        return self.prefix_mats[prefix] @ mats

    def find(self, signatures: np.ndarray) -> np.ndarray:
        """The position of the op carrying each signature (see
        :func:`_signatures`), -1 where none does."""
        at = np.searchsorted(self.keys, signatures).clip(max=len(self.keys) - 1)
        return np.where(self.keys[at] == signatures, self.positions[at], -1)


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
    """Entangling correction prefixes for the ``full`` vocabulary, before
    deduplication up to phase.

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


@lru_cache(maxsize=8)
def correction_dictionary(num_wires: int, vocabulary: str = "pauli_phase") -> CorrectionDictionary:
    """Candidates: per-wire chains from {I, sx, sz, Up}; the ``full``
    vocabulary additionally composes entangling factors on output-wire
    pairs (byproducts on the control/target channels of non-Clifford
    targets propagate into exactly such controlled-Z/controlled-X
    recoveries)."""
    if vocabulary not in VOCABULARIES:
        raise PatternFormatError(f"unknown correction vocabulary {vocabulary!r}")
    tails, tail_mats = _canonical_tails()
    candidates = _entangler_prefixes(num_wires) if vocabulary == "full" else [()]
    prefixes, prefix_mats = _first_per_phase_class(
        candidates, [CorrectionOp(prefix).matrix(num_wires) for prefix in candidates]
    )
    # Each candidate's signature, composed from its parts' rows and turns
    # without forming its matrix. A local part (the kron of one tail per
    # wire, wire 0 most significant) sends column x to row rows[l, x]; its
    # prefix then sends that row on to prefix_rows[p, rows[l, x]], and the
    # turns of both add.
    tail_rows, tail_turns = _phases(tail_mats)
    rows = turns = np.zeros((1, 1), dtype=np.intp)
    for _ in range(num_wires):
        size = 2 * rows.shape[1]
        rows = (2 * rows[:, None, :, None] + tail_rows[None, :, None, :]).reshape(-1, size)
        turns = (turns[:, None, :, None] + tail_turns[None, :, None, :]).reshape(-1, size)
    prefix_rows, prefix_turns = _phases(prefix_mats)
    signatures = _packed(
        prefix_rows[:, rows].swapaxes(0, 1).reshape(-1, size),
        (turns[None] + prefix_turns[:, rows]).swapaxes(0, 1).reshape(-1, size),
    )
    positions = np.argsort(signatures)
    return CorrectionDictionary(
        num_wires, vocabulary, tails, prefixes, tail_mats, prefix_mats,
        signatures[positions], positions,
    )


def derive_corrections(pattern: GatePattern) -> CorrectionTable:
    """The correction repairing each outcome, found from its map alone.

    A map M of scale s = ||M||_F^2 / d, its mean branch probability, is
    zero when s < ZERO_PROB: the outcome is unreachable and gets the
    identity. Otherwise M must be proportional to a unitary (||M†M - s·I||_F
    <= SPREAD_TOL·s), and the needed recovery is T·M†/s with T the target.
    It is named by the dictionary op with its signature, confirmed equal
    to it up to phase; with the ``full``
    vocabulary, a recovery outside the enumerated candidates but inside the
    vocabulary-generated group (a signed permutation with quarter-turn
    phases) is factored exactly by :func:`decompose_monomial`. Each
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
    dictionary = correction_dictionary(pattern.num_outputs, pattern.vocabulary)
    maps = outcome_maps(pattern)
    facts = maps.facts
    reps, classes = maps.classes
    identity = CorrectionOp.identity()
    class_ops = np.full(len(reps), identity, dtype=object)
    outside = np.zeros(len(reps), dtype=bool)
    # Maps proportional to a unitary need the recovery T·M†/s, T the target.
    unitary = np.flatnonzero(facts.unitary)
    for block in _blocks(len(unitary)):
        at = unitary[block]
        adjoint = maps.distinct[at].conj().transpose(0, 2, 1)
        needed = pattern.target @ adjoint / facts.scale[at, None, None]
        named = _name_recoveries(needed, dictionary)
        outside[at] = [op is None for op in named]
        class_ops[at] = [identity if op is None else op for op in named]
    # Classes are in first-occurrence order, so ops numbered by first class
    # are numbered by first outcome.
    rows: dict[CorrectionOp, int] = {}
    class_rows = np.array([rows.setdefault(op, len(rows)) for op in class_ops], dtype=np.intp)
    hits = np.flatnonzero((outside | ~(facts.zero | facts.unitary))[classes])
    failures = DerivationFailures(maps, hits, outside, dictionary.vocabulary)
    return CorrectionTable(maps.layout, tuple(rows), class_rows[classes]), failures


def _name_recoveries(
    needed: np.ndarray, dictionary: CorrectionDictionary
) -> list[CorrectionOp | None]:
    """Name each needed recovery in a (k, d, d) stack: the dictionary op
    with its signature, confirmed equal up to phase; else, for the ``full``
    vocabulary, its exact factorization by :func:`decompose_monomial`; None
    when neither exists."""
    hits = dictionary.find(_signatures(needed))
    found = np.flatnonzero(hits >= 0)
    confirmed = np.zeros(len(needed), dtype=bool)
    confirmed[found] = _equal_up_to_phase(dictionary.rows(hits[found]), needed[found])
    ops = {hit: dictionary.ops[hit] for hit in set(hits[confirmed].tolist())}
    named: list[CorrectionOp | None] = [
        ops[hit] if ok else None for hit, ok in zip(hits.tolist(), confirmed.tolist())
    ]
    todo = np.flatnonzero(~confirmed)
    if dictionary.vocabulary == "full" and todo.size:
        results = decompose_monomial(needed[todo], dictionary.num_wires)
        for i, decomposed in zip(todo.tolist(), results):
            if decomposed is not None:
                named[i] = decomposed[0]
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


def decompose_monomial(
    stack: np.ndarray, num_wires: int
) -> list[tuple[CorrectionOp, np.ndarray] | None]:
    """Factor each phased permutation unitary of a (k, d, d) stack into
    named correction ops.

    Succeeds exactly when a matrix r is, up to global phase, a permutation
    realizing an invertible affine map over F2^num_wires together with
    quarter-turn phases of degree at most two in the bits: linear phase
    parts become Up/sz factors, quadratic parts become Ucz factors, the
    affine part becomes sx flips plus a controlled-X word. That is
    precisely the group the correction vocabulary generates, so anything
    else gets None. The checks run over the whole stack at once, and each
    distinct integer form (t, lin, cz, c) is built into its op and matrix
    once; each success is the op with its matrix, confirmed equal to r up
    to phase.
    """
    n = num_wires
    dim = 1 << n
    scale = np.linalg.norm(stack, axis=(1, 2)) / np.sqrt(dim)
    ok = scale**2 >= ZERO_PROB
    u = stack / np.where(ok, scale, 1.0)[:, None, None]
    # Every column holds exactly one entry, of unit modulus, at row perm[x],
    # and every row holds one too, so perm is a permutation.
    big = np.abs(u) > sv.MONOMIAL_TOL
    ok &= (big.sum(axis=1) == 1).all(axis=1) & (big.sum(axis=2) == 1).all(axis=1)
    perm = big.argmax(axis=1)
    phases = np.take_along_axis(u, perm[:, None, :], axis=1)[:, 0, :]
    ok &= ~(np.abs(np.abs(phases) - 1.0) > sv.MONOMIAL_TOL).any(axis=1)

    # bits[x, i] is bit i (wire i, most significant first) of basis index x.
    place = 1 << np.arange(n - 1, -1, -1)
    bits = (np.arange(dim)[:, None] & place) != 0
    t = perm[:, 0]
    # Column j of lin[m] is the image of wire j's unit vector.
    lin = bits[perm[:, place] ^ t[:, None]].transpose(0, 2, 1).astype(int)
    ok &= ((((bits @ lin.transpose(0, 2, 1)) & 1) @ place) ^ t[:, None] == perm).all(axis=1)

    rel = phases / np.where(ok, phases[:, 0], 1.0)[:, None]
    q = np.rint(np.angle(rel) / (np.pi / 2)).astype(int) % 4
    quarter_turns = np.array([1, 1j, -1, -1j])
    ok &= ~(np.abs(quarter_turns[q] - rel) > sv.MONOMIAL_TOL).any(axis=1)
    c = q[:, place]
    first, second = np.triu_indices(n, 1)
    degree2 = (q[:, place[first] | place[second]] - c[:, first] - c[:, second]) % 4
    cz = degree2 == 2
    ok &= ((degree2 == 0) | cz).all(axis=1)
    both = (bits[:, first] & bits[:, second]).astype(int)
    ok &= ((c @ bits.T + 2 * cz.astype(int) @ both.T) % 4 == q).all(axis=1)

    # ok implies perm is a permutation, so lin is invertible and has a word.
    words = _linear_words(n)
    pairs = list(zip(first.tolist(), second.tolist()))
    good = np.flatnonzero(ok)
    forms = np.column_stack([t, lin.reshape(len(stack), n * n), cz, c])[good]
    _, firsts, inverse = np.unique(forms, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    built = good[firsts]
    ops = []
    for m in built.tolist():
        factors: list[Factor] = [("sx", (i,)) for i, bit in enumerate(bits[t[m]].tolist()) if bit]
        factors += words[tuple(map(tuple, lin[m].tolist()))]
        factors += [("Ucz", pair) for pair, on in zip(pairs, cz[m].tolist()) if on]
        for i, turns in enumerate(c[m].tolist()):  # i**turns is Up then sz, each optional
            factors += [(name, (i,)) for name in ("Up",) * (turns & 1) + ("sz",) * (turns >> 1)]
        ops.append(CorrectionOp(tuple(factors)))
    # Each form's op sends column x to row perm[x] with phase i**q[x].
    mats = np.zeros((len(built), dim, dim), dtype=complex)
    mats[np.arange(len(built))[:, None], perm[built], np.arange(dim)] = quarter_turns[q[built]]
    same = _equal_up_to_phase(mats[inverse], u[good])
    results: list[tuple[CorrectionOp, np.ndarray] | None] = [None] * len(stack)
    for m, f, ok_m in zip(good.tolist(), inverse.tolist(), same.tolist()):
        if ok_m:
            results[m] = (ops[f], mats[f])
    return results


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
    distinct pair of ops; mismatches come in sorted key order."""
    other = printed.on(derived.layout)
    if len(other) != len(printed) or not np.array_equal(derived.index >= 0, other.index >= 0):
        raise sv.UsageError("correction tables address different outcome sets")
    order = derived.layout.sorted_positions()
    order = order[derived.index[order] >= 0].tolist()
    pairs = list(zip(derived.index[order].tolist(), other.index[order].tolist()))
    a, b = derived.matrices(num_wires), other.matrices(num_wires)
    differ = {pair: not _equal_up_to_phase(a[pair[0]], b[pair[1]]) for pair in set(pairs)}
    hits = [(i, pair) for i, pair in zip(order, pairs) if differ[pair]]
    d_text, p_text = ([op.render(num_wires) for op in t.ops] for t in (derived, other))
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
    block's sum continues from the running sum as its first row. A single
    column is contiguous and numpy sums it pairwise instead, so it is
    gathered whole."""
    if pair_rows.shape[1] == 1:
        return pair_rows[pair_of].sum(axis=0)
    sums = None
    for block in _blocks(len(pair_of)):
        rows = pair_rows[pair_of[block]]
        sums = (rows if sums is None else np.vstack([sums, rows])).sum(axis=0)
    return sums


def verify_pattern(
    pattern: GatePattern,
    inputs: np.ndarray | None = None,
    input_labels: list[str] | None = None,
    corrections: CorrectionTable | None = None,
    seed: int = DEFAULT_SEED,
    fidelity_tol: float = FIDELITY_TOL,
    loss_demo: bool = False,
) -> VerificationReport:
    """Certify the pattern against its target over all outcomes and inputs.

    Inputs default to all computational basis states plus RANDOM_INPUTS
    seeded random states. Zero-probability outcomes are those with a zero
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
    defaults, default_labels = default_inputs(dim, seed)
    if inputs is None:
        inputs, input_labels = defaults, default_labels
    elif input_labels is None:
        input_labels = [f"input{i:02d}" for i in range(inputs.shape[1])]
    # Column dim of the default inputs is the generic probe; other inputs
    # carry it as one more column, which the report's grid leaves out.
    probe_col = dim if inputs is defaults else inputs.shape[1]
    columns = inputs if inputs is defaults else np.hstack([inputs, defaults[:, dim:dim + 1]])

    maps = outcome_maps(pattern)
    layout = pattern.layout
    table = table.on(layout)
    mats, op_index = table.matrices(pattern.num_outputs), table.index
    if (op_index < 0).any():
        missing = layout.key(int(np.argmax(op_index < 0)))
        raise MissingCorrectionError(f"no correction entry for outcome {format_key(missing)}")
    target_out = pattern.target @ columns
    # Outcomes with a bitwise-equal map and the same correction have equal
    # rows; each distinct (map, correction) pair is computed at its first
    # outcome, and the report keeps one row per pair.
    _, classes = maps.classes
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
    zero). A pattern is lossy when an outcome with a nonzero map annihilates
    a basis input (its map's column vanishes) or has a rank-deficient map:
    either way that branch cannot carry every input faithfully.
    """
    dim = 1 << len(pattern.input_wires)
    generic = default_inputs(dim, seed)[0][:, dim]
    maps = outcome_maps(pattern)
    reps, classes = maps.classes
    live, ranks = ~maps.facts.zero, maps.facts.ranks(np.arange(len(reps)))
    dead = (np.linalg.norm(maps.distinct, axis=1) < sv.RANK_TOL) & live[:, None]
    # Probabilities formed as np.linalg.norm(m @ generic) ** 2 forms them for
    # one map (dot products of the real and imaginary parts, then the root
    # squared), so the printed values do not depend on batching.
    out = (maps.distinct @ generic)[:, None, :]
    sq = out.real @ out.real.transpose(0, 2, 1) + out.imag @ out.imag.transpose(0, 2, 1)
    probs = [x**2 for x in np.sqrt(sq[:, 0, 0]).tolist()]
    flagged = live & (dead.any(axis=1) | (ranks < dim))
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
    built, else the last tried), its derived table and report (None if
    rejected first) and each variant's record."""

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
    from .patterns import validate_pattern

    record: dict[str, str] = {}
    selected = built = None
    for variant in TOFFOLI_VARIANTS:
        pattern = toffoli_pattern(variant, validate=False)
        try:
            validate_pattern(pattern)
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


def effective_outcome_operator(pattern: GatePattern, key: OutcomeKey) -> np.ndarray:
    """The outcome's input->output map rescaled to unit leading norm."""
    maps = outcome_maps(pattern)
    if key not in maps:
        raise sv.UsageError(f"unknown outcome {format_key(key)}")
    c = maps.classes[1][maps.layout.position(key)]
    m = maps.distinct[c]
    return np.zeros_like(m) if maps.facts.zero[c] else m / np.sqrt(maps.facts.scale[c])


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-minimized Frobenius distance between unit-normalized operators."""
    na = a / np.linalg.norm(a)
    nb = b / np.linalg.norm(b)
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(na, nb)))))


def parameterized_phase_check(
    k: complex, kt: complex, p: complex, m: complex, n: complex
) -> np.ndarray:
    """Effective two-wire operator of the phase-parameterized CZ layout.

    Builds the controlled-Z wiring whose pair states carry phases p, m, n
    and whose bases carry branch phases k (first group) and kt (second
    group), then reads off the operator of the base outcome pair. It equals
    diag(1, n p conj(kt), m conj(k), -m n p conj(k) conj(kt)) up to global
    phase, so no unit-modulus assignment realizes the controlled
    quarter-turn phase gate.
    """
    from .catalog import parameterized_cz_pattern

    pattern = parameterized_cz_pattern(k, kt, p, m, n)
    base = ((0, 0, "+"), (0, 0, "+"))
    return effective_outcome_operator(pattern, base)


def _parameterized_phase_form(
    k: complex, kt: complex, p: complex, m: complex, n: complex
) -> np.ndarray:
    return np.diag(
        [1.0, n * p * np.conj(kt), m * np.conj(k), -m * n * p * np.conj(k) * np.conj(kt)]
    ).astype(complex)


def phase_parameter_grid_search(points_per_axis: int = 5) -> tuple[float, tuple]:
    """Scan unit-modulus parameter grids for the controlled quarter-turn.

    The simulated outcome operator is multilinear in (conj k, conj kt, p,
    m, n), so agreement with the diagonal closed form on the full {+1,-1}^5
    grid pins it for every unit-modulus assignment; that agreement is
    re-established here by simulation before the closed form is scanned.
    Returns the minimum phase-insensitive operator distance to
    diag(1,1,1,i) over the grid and the arg-min assignment.
    """
    from .gates import CPHASE

    for signs in product((1.0, -1.0), repeat=5):
        simulated = parameterized_phase_check(*signs)
        form = _parameterized_phase_form(*signs)
        if operator_distance(simulated, form) > sv.CLOSED_FORM_TOL:  # pragma: no cover
            raise RuntimeError(f"closed form disagrees with simulation at {signs}")

    phases = np.exp(2j * np.pi * np.arange(points_per_axis) / points_per_axis)
    best = (np.inf, ())
    for params in product(phases, repeat=5):
        dist = operator_distance(_parameterized_phase_form(*params), CPHASE)
        if dist < best[0]:
            best = (dist, params)
    return best
