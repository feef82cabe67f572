"""Brute-force verification oracle.

Enumerates every joint-measurement outcome of a pattern, applies or derives
the outcome corrections, certifies that each corrected branch implements the
target gate up to global phase, and detects information loss caused by
resource/basis mismatch.

Derivation reads each outcome's correction off its input->output map, with
no probe states. Everything here is deterministic: the random verification
and loss-check inputs come from a seeded generator (default seed below),
outcome records are emitted in lexicographic label order, and dictionary
search order is fixed (fewest factors first, then lexicographic rendering),
so two runs with the same seed produce bit-identical reports.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import count, product

import numpy as np

from . import statevec as sv
from .gates import random_state
from .patterns import (
    CorrectionOp,
    CorrectionTable,
    GatePattern,
    OutcomeKey,
    PatternFormatError,
    VOCABULARIES,
)

DEFAULT_SEED = 1337
FIDELITY_TOL = 1e-9          # equivalence threshold is 1 - FIDELITY_TOL
ZERO_PROB = 1e-12            # outcomes below this probability count as zero
SUSPICIOUS_PROB = 1e-6       # (ZERO_PROB, SUSPICIOUS_PROB) flags numerical dust
MIN_GENERIC_AMP = 1e-6       # generic probe states keep every amplitude above this
RANK_TOL = 1e-10             # singular values and column norms below this count as zero


class MissingCorrectionError(LookupError):
    """A correction entry required for verification is absent."""


class DerivationError(RuntimeError):
    """No correction repairs some outcome; carries each one with its reason."""

    def __init__(self, failures: list[tuple[OutcomeKey, str]]):
        self.failures = failures
        worst = ", ".join(f"{format_key(k)} ({reason})" for k, reason in failures[:4])
        extra = "" if len(failures) <= 4 else f" and {len(failures) - 4} more"
        super().__init__(f"no correction found for outcomes {worst}{extra}")


def format_key(key: OutcomeKey) -> str:
    return ";".join("(" + ",".join(str(x) for x in label) + ")" for label in key)


# ---------------------------------------------------------------------------
# Pattern execution
# ---------------------------------------------------------------------------

# Enumeration walks the stacked maps this many outcomes at a time, and
# derivation, verification and loss checks walk the distinct maps this many
# at a time, which bounds their temporaries.
_BLOCK = 256


def _register(pattern: GatePattern) -> tuple[np.ndarray, list[int]]:
    """Full register states for every computational-basis input, as a
    tensor of shape (1, 2, ..., 2, d_in) with one axis per qubit in
    input-then-resource order, plus that qubit order. Built by the
    successive outer products of np.kron."""
    dim = 1 << len(pattern.input_wires)
    amps = np.eye(dim, dtype=complex)
    qubits = list(pattern.input_wires)
    for resource_qubits, state in pattern.resources:
        amps = (amps[:, None, :] * state.amps[None, :, None]).reshape(-1, dim)
        qubits.extend(resource_qubits)
    return amps.reshape([1] + [2] * len(qubits) + [dim]), qubits


def _stacked_maps(pattern: GatePattern) -> np.ndarray:
    """Every outcome's input->output map, unnormalized, as an array of shape
    (outcomes, 2^num_outputs, d_in) in lexicographic label order: column j
    holds the residual output amplitudes for basis input j. The register is
    contracted one measurement group at a time: the group's conjugated
    basis, applied to the group's axes through its nonzero entries only,
    turns every outcome so far into one outcome per basis vector. Each step
    drops its input before contracting, so at most two register-sized
    arrays live.
    """
    t, qubits = _register(pattern)
    dim = t.shape[-1]
    for group in pattern.groups:
        axes = [qubits.index(q) + 1 for q in group.qubits]
        k = len(axes)
        flat = np.moveaxis(t, axes, range(1, k + 1)).reshape(t.shape[0], 1 << k, -1)
        del t
        measured = set(group.qubits)
        qubits = [q for q in qubits if q not in measured]
        t = _contract(group.basis.vectors, flat).reshape([-1] + [2] * len(qubits) + [dim])
        del flat
    perm = [qubits.index(w) + 1 for w in pattern.output_wires]
    return t.transpose([0] + perm + [len(qubits) + 1]).reshape(t.shape[0], -1, dim)


# The contraction gathers at most this many amplitudes at a time (but always
# one column of every basis row), which bounds its temporaries.
_GATHER = 1 << 16


def _contract(vectors: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``vectors.conj() @ flat`` for a (rows, K) basis and an (outcomes, K,
    columns) register, summed over each row's nonzero entries only.

    Slot s adds every row's s-th nonzero entry times the register slice at
    its column, for as many slots as the widest row has nonzeros; a shorter
    row's last slots fall on its zero entries. Catalog bases have at most 4
    nonzeros per row, so this does a few gathers instead of a K-term sum; a
    dense basis has K per row.
    """
    nonzero = vectors != 0
    width = max(1, int(nonzero.sum(axis=1).max()))
    # Each row's nonzero columns first, in column order.
    index = np.argsort(~nonzero, axis=1, kind="stable")[:, :width].copy()
    coeffs = np.take_along_axis(vectors, index, axis=1).conj()[:, :, None]
    outcomes, _, columns = flat.shape
    out = np.empty((outcomes, len(vectors), columns), dtype=complex)
    step_c = max(1, min(columns, _GATHER // len(vectors)))
    step_o = max(1, _GATHER // (len(vectors) * step_c))
    for lo in range(0, outcomes, step_o):
        for c in range(0, columns, step_c):
            src = flat[lo:lo + step_o, :, c:c + step_c]
            acc = out[lo:lo + step_o, :, c:c + step_c]
            np.multiply(coeffs[:, 0], src[:, index[:, 0]], out=acc)
            for s in range(1, width):
                term = src[:, index[:, s]]
                term *= coeffs[:, s]
                acc += term
    return out


class OutcomeMaps(Mapping):
    """Read-only view of every outcome's input->output map.

    ``stack`` holds all maps as one array of shape (outcomes, d_out, d_in)
    in lexicographic label order, the order of
    :attr:`GatePattern.outcome_keys`; ``maps[key]`` is one slice of it.
    Byproduct repairs leave few distinct maps among many outcomes, so
    per-map work runs once per entry of :attr:`classes`.
    """

    def __init__(self, pattern: GatePattern, stack: np.ndarray):
        stack.flags.writeable = False
        self.stack = stack
        self._labels = [g.labels for g in pattern.groups]
        self._positions = [{label: i for i, label in enumerate(g.labels)} for g in pattern.groups]

    def __len__(self) -> int:
        return self.stack.shape[0]

    def __iter__(self):
        return product(*self._labels)

    def __getitem__(self, key: OutcomeKey) -> np.ndarray:
        if not isinstance(key, tuple) or len(key) != len(self._positions):
            raise KeyError(key)
        index = 0
        for label, positions in zip(key, self._positions):
            try:
                index = index * len(positions) + positions[label]
            except (KeyError, TypeError):
                raise KeyError(key) from None
        return self.stack[index]

    @cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The bitwise-distinct maps: the first outcome carrying each, in
        first-occurrence order, and each outcome's class (its position in
        that array). Maps are keyed by their bytes, so they share a class
        only if their bytes are equal: -0.0 and +0.0, or entries one ulp
        apart, stay apart. Sorted first owners are in first-occurrence
        order."""
        firsts: dict[bytes, int] = {}
        owners = np.fromiter(
            map(firsts.setdefault, map(np.ndarray.tobytes, self.stack), count()),
            dtype=np.intp, count=len(self),
        )
        reps, classes = np.unique(owners, return_inverse=True)
        return reps, classes


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
        maps = OutcomeMaps(pattern, _stacked_maps(pattern))
        pattern._memo["outcome_maps"] = maps
    return maps


def _blocks(count: int):
    """Consecutive outcome slices of at most ``_BLOCK`` outcomes."""
    for lo in range(0, count, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, count))


def _correction_matrices(
    table: CorrectionTable, keys: list[OutcomeKey], num_wires: int
) -> tuple[np.ndarray, np.ndarray]:
    """The matrix of each distinct op ``table`` assigns to ``keys``, built
    once, and each key's row in that stack (-1 where the table has none).
    A table whose keys are ``keys`` in order, as every derived table's are,
    is read without hashing a key. Ops are told apart by identity before
    they are hashed, so a table that reuses op objects, as every derived
    table does, hashes each one once."""
    entries = table.entries
    ops = list(entries.values()) if list(entries) == keys else list(map(entries.get, keys))
    ids = np.fromiter(map(id, ops), dtype=np.uintp, count=len(ops))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rows: dict[CorrectionOp, int] = {}
    # Distinct objects in first-occurrence order, then equal ops share a row.
    order = np.argsort(first)
    row_of = np.empty(len(first), dtype=np.intp)
    row_of[order] = [
        -1 if ops[i] is None else rows.setdefault(ops[i], len(rows)) for i in first[order].tolist()
    ]
    index = row_of[inverse]
    dim = 1 << num_wires
    mats = np.empty((len(rows), dim, dim), dtype=complex)
    for op, row in rows.items():
        mats[row] = op.matrix(num_wires)
    return mats, index


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
    branches = outcome_maps(pattern).stack @ input_state.amps
    keys = pattern.outcome_keys
    num_out = len(pattern.output_wires)
    if pattern.corrections is not None:
        mats, op_index = _correction_matrices(pattern.corrections, keys, num_out)
    else:
        mats, op_index = np.empty((0, 1 << num_out, 1 << num_out)), np.full(len(keys), -1)
    records = []
    for block in _blocks(len(keys)):
        amps = branches[block]
        probs = np.real(np.sum(amps.conj() * amps, axis=1))
        live = probs > ZERO_PROB
        pre = np.zeros_like(amps)
        pre[live] = amps[live] / np.sqrt(probs[live])[:, None]
        corrected = np.zeros_like(amps)
        fixed = live & (op_index[block] >= 0)
        corrected[fixed] = (mats[op_index[block][fixed]] @ pre[fixed][:, :, None])[:, :, 0]
        for i, key in enumerate(keys[block]):
            if not live[i]:
                records.append(OutcomeRecord(key, float(probs[i]), None, None))
                continue
            records.append(
                OutcomeRecord(
                    key,
                    float(probs[i]),
                    sv.StateVector(num_out, pre[i]),
                    sv.StateVector(num_out, corrected[i]) if fixed[i] else None,
                )
            )
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


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = FIDELITY_TOL) -> bool:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < ZERO_PROB or nb < ZERO_PROB:
        return na < ZERO_PROB and nb < ZERO_PROB
    return bool(abs(np.vdot(a, b)) >= (1.0 - tol) * na * nb)


def _canonical_tails() -> list[tuple[str, ...]]:
    """Single-wire factor chains of length <= 3, deduplicated up to phase.

    Enumeration order (length, then alphabet position) makes the first
    representative of each operator class the canonical, shortest name.
    sz precedes sx so the canonical name of the z-then-x class is sz.sx,
    the way recovery products are conventionally written.
    """
    alphabet = ("I", "Up", "sz", "sx")
    kept: list[tuple[tuple[str, ...], np.ndarray]] = []
    for length in (1, 2, 3):
        for combo in product(alphabet, repeat=length):
            mat = _matrix_of_tail(combo)
            if any(_equal_up_to_phase(mat, m) for _, m in kept):
                continue
            kept.append((combo, mat))
    return [combo for combo, _ in kept]


def _signatures(mats: np.ndarray) -> np.ndarray:
    """Per matrix in a (k, d, d) stack: each column's largest-magnitude row,
    then that entry's phase relative to column 0's in eighth turns. For a
    phased permutation this pins the matrix up to global phase."""
    rows = np.abs(mats).argmax(axis=1)
    lead = np.take_along_axis(mats, rows[:, None, :], axis=1)[:, 0, :]
    turns = np.rint(np.angle(lead / lead[:, :1]) / (np.pi / 4)).astype(np.intp) % 8
    return np.concatenate([rows, turns], axis=1)


@dataclass(frozen=True)
class CorrectionDictionary:
    """Deterministically ordered candidate corrections for derivation."""

    num_wires: int
    vocabulary: str
    ops: tuple[CorrectionOp, ...]
    matrices: np.ndarray  # stacked (len(ops), d, d)

    @cached_property
    def index(self) -> dict[bytes, int]:
        """Signature -> position of the first op carrying it. Every op is a
        phased permutation, so ops sharing a signature are equal up to phase
        and the first is the one a scan in dictionary order would pick."""
        index: dict[bytes, int] = {}
        for k, sig in enumerate(_signatures(self.matrices)):
            index.setdefault(sig.tobytes(), k)
        return index


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
    """Entangling correction prefixes for the ``full`` vocabulary.

    Two wires: the optional controlled-Z. Three wires: the closures of the
    byproduct conjugations through the doubly-controlled-X and the
    controlled-swap (mutually commuting generator sets, so plain subset
    products), deduplicated up to phase.
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
    kept: list[tuple[Factor, ...]] = []
    kept_mats: list[np.ndarray] = []
    for factors in sorted(candidates, key=lambda f: (len(f), str(f))):
        mat = CorrectionOp(factors).matrix(3)
        if any(_equal_up_to_phase(mat, m) for m in kept_mats):
            continue
        kept.append(factors)
        kept_mats.append(mat)
    return kept


@lru_cache(maxsize=8)
def correction_dictionary(num_wires: int, vocabulary: str = "pauli_phase") -> CorrectionDictionary:
    """Candidates: per-wire chains from {I, sx, sz, Up}; the ``full``
    vocabulary additionally composes entangling factors on output-wire
    pairs (byproducts on the control/target channels of non-Clifford
    targets propagate into exactly such controlled-Z/controlled-X
    recoveries)."""
    if vocabulary not in VOCABULARIES:
        raise PatternFormatError(f"unknown correction vocabulary {vocabulary!r}")
    tails = _canonical_tails()
    prefixes = _entangler_prefixes(num_wires) if vocabulary == "full" else [()]
    ops: list[CorrectionOp] = []
    for wire_tails in product(tails, repeat=num_wires):
        local = CorrectionOp.from_wire_products(wire_tails)
        for prefix in prefixes:
            ops.append(CorrectionOp(prefix + local.factors))
    # Local parts are krons of per-wire tail matrices (wire 0 most
    # significant), in the product order above; each op is its entangler
    # prefix times its local part. All entries are 0, +-1 or +-i, so these
    # products equal CorrectionOp.matrix exactly.
    tail_mats = np.stack([_matrix_of_tail(tail) for tail in tails])
    local_mats = np.ones((1, 1, 1), dtype=complex)
    for _ in range(num_wires):
        size = 2 * local_mats.shape[1]
        local_mats = np.einsum("lab,tcd->ltacbd", local_mats, tail_mats).reshape(-1, size, size)
    prefix_mats = np.stack([CorrectionOp(prefix).matrix(num_wires) for prefix in prefixes])
    dim = 1 << num_wires
    matrices = (prefix_mats[None] @ local_mats[:, None]).reshape(-1, dim, dim)
    order = sorted(range(len(ops)), key=lambda i: (ops[i].weight, ops[i].render(num_wires)))
    return CorrectionDictionary(
        num_wires, vocabulary, tuple(ops[i] for i in order), matrices[order]
    )


def derive_corrections(
    pattern: GatePattern,
    dictionary: CorrectionDictionary | None = None,
) -> CorrectionTable:
    """The correction repairing each outcome, found from its map alone.

    An outcome whose map M is zero is unreachable and gets the identity.
    Otherwise M must be proportional to a unitary, and the needed recovery
    is T·M†/s with T the target and s the scale of M†M. It is named by the
    first dictionary element equal to it up to phase, found through the
    dictionary's signature index; with the ``full`` vocabulary, a recovery
    outside the enumerated candidates but inside the vocabulary-generated
    group (a signed permutation with quarter-turn phases) is factored
    exactly by :func:`decompose_monomial`. Each bitwise-distinct map is
    resolved once and its result goes to every outcome carrying it. Raises
    :class:`DerivationError` listing the outcomes no correction repairs.
    """
    table, failures = derive_corrections_with_failures(pattern, dictionary)
    if failures:
        raise DerivationError(failures)
    return table


def derive_corrections_with_failures(
    pattern: GatePattern,
    dictionary: CorrectionDictionary | None = None,
) -> tuple[CorrectionTable, list[tuple[OutcomeKey, str]]]:
    """Like :func:`derive_corrections`, but returns unrepairable outcomes
    (with the reason read off their map) instead of raising; such outcomes
    are filled with the identity."""
    if dictionary is None:
        dictionary = correction_dictionary(pattern.num_outputs, pattern.vocabulary)
    if dictionary.num_wires != pattern.num_outputs:
        raise sv.UsageError("dictionary wire count does not match pattern outputs")

    maps = outcome_maps(pattern)
    keys = pattern.outcome_keys
    reps, classes = maps.classes
    factored: dict[bytes, tuple[CorrectionOp, np.ndarray]] = {}
    outside = f"needed recovery lies outside the {dictionary.vocabulary} vocabulary"
    identity = CorrectionOp.identity()
    class_ops = np.full(len(reps), identity, dtype=object)
    reasons: dict[int, str] = {}
    # Classes are in first-occurrence order, so decompose_monomial meets the
    # same first recovery per signature as a walk over every outcome would.
    for block in _blocks(len(reps)):
        stack = maps.stack[reps[block]]
        nonzero = np.linalg.norm(stack, axis=(1, 2)) >= ZERO_PROB
        unitary, needed = _needed_corrections(stack, pattern.target)
        unitary &= nonzero
        named = _name_recoveries(needed[unitary], dictionary, factored)
        unnamed = np.zeros(len(stack), dtype=bool)
        unnamed[unitary] = [op is None for op in named]
        ops = class_ops[block]
        ops[unitary] = named
        ops[unnamed] = identity
        lossy = nonzero & ~unitary
        ranks = iter(np.linalg.matrix_rank(stack[lossy], tol=RANK_TOL).tolist())
        for i in np.flatnonzero(unnamed | lossy).tolist():
            reasons[block.start + i] = (
                outside
                if unnamed[i]
                else f"rank {next(ranks)}/{stack.shape[2]}, not proportional to a unitary"
            )
    entries = dict(zip(keys, class_ops[classes].tolist()))
    failing = np.zeros(len(reps), dtype=bool)
    failing[list(reasons)] = True
    hits = np.flatnonzero(failing[classes])
    failures = [(keys[i], reasons[c]) for i, c in zip(hits.tolist(), classes[hits].tolist())]
    return CorrectionTable(entries), failures


def _needed_corrections(maps: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which maps in a (k, d, d) stack are proportional to a unitary, and for
    every map target @ m^{-1} rescaled to a unitary (meaningful only there)."""
    dim = maps.shape[1]
    adjoint = maps.conj().transpose(0, 2, 1)
    gram = adjoint @ maps
    scale = np.real(np.trace(gram, axis1=1, axis2=2)) / dim
    spread = np.linalg.norm(gram - scale[:, None, None] * np.eye(dim), axis=(1, 2))
    unitary = (scale >= ZERO_PROB) & (spread <= 1e-9 * np.maximum(scale, 1.0))
    safe = np.where(unitary, scale, 1.0)
    return unitary, target @ adjoint / safe[:, None, None]


def _matches(candidates: np.ndarray, needed: np.ndarray) -> np.ndarray:
    """Whether each candidate equals its needed recovery up to phase."""
    dim = needed.shape[-1]
    overlaps = np.abs(np.sum(candidates.conj() * needed, axis=(-2, -1)))
    bound = (1.0 - FIDELITY_TOL) * np.sqrt(dim) * np.linalg.norm(needed, axis=(-2, -1))
    return overlaps >= bound


def _name_recoveries(
    needed: np.ndarray,
    dictionary: CorrectionDictionary,
    factored: dict[bytes, tuple[CorrectionOp, np.ndarray]],
) -> list[CorrectionOp | None]:
    """Name each needed recovery in a (k, d, d) stack: the dictionary op with
    its signature, confirmed equal up to phase; else, for the ``full``
    vocabulary, its exact factorization by :func:`decompose_monomial`
    (memoised in ``factored`` by signature, each reuse confirmed the same
    way); None when neither exists."""
    sigs = _signatures(needed)
    hits = np.array([dictionary.index.get(sig.tobytes(), -1) for sig in sigs], dtype=np.intp)
    confirmed = np.zeros(len(sigs), dtype=bool)
    found = hits >= 0
    confirmed[found] = _matches(dictionary.matrices[hits[found]], needed[found])
    named: list[CorrectionOp | None] = [
        dictionary.ops[hit] if ok else None for hit, ok in zip(hits.tolist(), confirmed.tolist())
    ]
    if dictionary.vocabulary != "full":
        return named
    for i in np.flatnonzero(~confirmed).tolist():
        sig = sigs[i].tobytes()
        if sig in factored and _matches(factored[sig][1], needed[i]):
            named[i] = factored[sig][0]
        else:
            named[i] = decompose_monomial(needed[i], dictionary.num_wires)
            if named[i] is not None:
                factored[sig] = (named[i], named[i].matrix(dictionary.num_wires))
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


def decompose_monomial(r: np.ndarray, num_wires: int) -> CorrectionOp | None:
    """Factor a phased permutation unitary into named correction ops.

    Succeeds exactly when r is, up to global phase, a permutation realizing
    an invertible affine map over F2^num_wires together with quarter-turn
    phases of degree at most two in the bits: linear phase parts become
    Up/sz factors, quadratic parts become Ucz factors, the affine part
    becomes sx flips plus a controlled-X word. That is precisely the group
    the correction vocabulary generates, so anything else returns None.
    """
    dim = 1 << num_wires
    scale = np.linalg.norm(r) / np.sqrt(dim)
    if scale < ZERO_PROB:
        return None
    u = r / scale
    perm = np.full(dim, -1, dtype=int)
    phases = np.zeros(dim, dtype=complex)
    for col in range(dim):
        rows = np.flatnonzero(np.abs(u[:, col]) > 1e-8)
        if rows.size != 1 or abs(abs(u[rows[0], col]) - 1.0) > 1e-8:
            return None
        perm[col] = int(rows[0])
        phases[col] = u[rows[0], col]
    if len(set(perm.tolist())) != dim:
        return None

    def bits(x: int) -> list[int]:
        return [(x >> (num_wires - 1 - i)) & 1 for i in range(num_wires)]

    t = int(perm[0])
    basis_cols = [bits(int(perm[1 << (num_wires - 1 - i)]) ^ t) for i in range(num_wires)]
    lin = tuple(
        tuple(basis_cols[j][i] for j in range(num_wires)) for i in range(num_wires)
    )
    for x in range(dim):
        xb = bits(x)
        yb = [sum(lin[i][j] * xb[j] for j in range(num_wires)) & 1 for i in range(num_wires)]
        y = 0
        for i, b in enumerate(yb):
            y = (y << 1) | b
        if (y ^ t) != perm[x]:
            return None
    word = _linear_words(num_wires).get(lin)
    if word is None:
        return None

    rel = phases / phases[0]
    q = np.zeros(dim, dtype=int)
    for x in range(dim):
        q[x] = int(round(np.angle(rel[x]) / (np.pi / 2))) % 4
        if abs(1j ** q[x] - rel[x]) > 1e-8:
            return None
    e = [1 << (num_wires - 1 - i) for i in range(num_wires)]
    c = [int(q[e[i]]) for i in range(num_wires)]
    cz_pairs = []
    for i in range(num_wires):
        for j in range(i + 1, num_wires):
            d = (int(q[e[i] | e[j]]) - c[i] - c[j]) % 4
            if d == 2:
                cz_pairs.append((i, j))
            elif d != 0:
                return None
    for x in range(dim):
        xb = bits(x)
        qx = sum(c[i] * xb[i] for i in range(num_wires))
        qx += sum(2 * xb[i] * xb[j] for i, j in cz_pairs)
        if qx % 4 != q[x]:
            return None

    factors: list[tuple[str, tuple[int, ...]]] = []
    factors += [("sx", (i,)) for i in range(num_wires) if (t >> (num_wires - 1 - i)) & 1]
    factors += list(word)
    factors += [("Ucz", pair) for pair in cz_pairs]
    for i in range(num_wires):
        if c[i] == 1:
            factors.append(("Up", (i,)))
        elif c[i] == 2:
            factors.append(("sz", (i,)))
        elif c[i] == 3:
            factors += [("Up", (i,)), ("sz", (i,))]
    op = CorrectionOp(tuple(factors))
    if not _equal_up_to_phase(op.matrix(num_wires), u):
        return None
    return op


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
    """Per-cell operator equivalence up to global phase."""
    if set(derived.keys()) != set(printed.keys()):
        raise sv.UsageError("correction tables address different outcome sets")
    mismatches = []
    for key in sorted(derived.keys()):
        d_op, p_op = derived[key], printed[key]
        if not _equal_up_to_phase(d_op.matrix(num_wires), p_op.matrix(num_wires)):
            mismatches.append((key, d_op.render(num_wires), p_op.render(num_wires)))
    return TableDiff(total=len(derived), mismatches=tuple(mismatches))


@dataclass
class VerificationReport:
    """Per-outcome, per-input corrected-output fidelities for one pattern.

    Outcomes with the same (map, correction) pair have equal rows, so the
    grid is kept once per pair: outcome i's row is row ``pair_of[i]`` of
    ``pair_fidelities`` and ``pair_probabilities``. :attr:`fidelities` and
    :attr:`probabilities` gather the full (outcomes, inputs) grids on first
    access.
    """

    pattern: str
    variant: str
    seed: int
    outcome_keys: list[OutcomeKey]
    input_labels: list[str]
    pair_fidelities: np.ndarray     # (pairs, inputs); NaN where the branch has zero probability
    pair_probabilities: np.ndarray  # same shape
    pair_of: np.ndarray             # (outcomes,) each outcome's pair row
    min_fidelity: float
    worst_outcome: OutcomeKey | None
    worst_input: str | None
    zero_probability_outcomes: list[OutcomeKey]
    suspicious_outcomes: list[OutcomeKey]
    probability_sums: np.ndarray  # per input; 1 within 1e-9 by completeness
    outcome_probability_range: tuple[float, float]
    passed: bool
    loss_demo: bool = False
    table_diff: TableDiff | None = None
    notes: list[str] = field(default_factory=list)

    @cached_property
    def fidelities(self) -> np.ndarray:
        """(outcomes, inputs) fidelities, NaN where the branch has zero probability."""
        return self.pair_fidelities[self.pair_of]

    @cached_property
    def probabilities(self) -> np.ndarray:
        """(outcomes, inputs) branch probabilities."""
        return self.pair_probabilities[self.pair_of]


def default_inputs(dim: int, seed: int, num_random: int = 20) -> tuple[np.ndarray, list[str]]:
    rng = np.random.default_rng(seed)
    num_qubits = dim.bit_length() - 1
    labels = [f"|{i:0{num_qubits}b}>" for i in range(dim)]
    cols = [np.eye(dim, dtype=complex)]
    rand = np.column_stack(
        [random_state(num_qubits, rng, MIN_GENERIC_AMP) for _ in range(num_random)]
    )
    cols.append(rand)
    labels += [f"rand{r:02d}" for r in range(num_random)]
    return np.hstack(cols), labels


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

    Inputs default to all computational basis states plus 20 seeded random
    states. The first random state doubles as the generic probe for the
    zero-probability outcome list.
    """
    table = corrections if corrections is not None else pattern.corrections
    if table is None:
        raise MissingCorrectionError(
            f"pattern {pattern.name!r} has no correction table; derive one first"
        )
    dim = 1 << pattern.num_outputs
    if inputs is None:
        inputs, input_labels = default_inputs(dim, seed)
    elif input_labels is None:
        input_labels = [f"input{i:02d}" for i in range(inputs.shape[1])]
    generic_col = dim if inputs.shape[1] > dim else inputs.shape[1] - 1

    maps = outcome_maps(pattern)
    keys = pattern.outcome_keys
    mats, op_index = _correction_matrices(table, keys, pattern.num_outputs)
    if (op_index < 0).any():
        missing = keys[int(np.argmax(op_index < 0))]
        raise MissingCorrectionError(f"no correction entry for outcome {format_key(missing)}")
    target_out = pattern.target @ inputs
    # Outcomes with a bitwise-equal map and the same correction have equal
    # rows; each distinct (map, correction) pair is computed at its first
    # outcome, and the report keeps one row per pair.
    _, classes = maps.classes
    _, first, pair_of = np.unique(
        classes * len(mats) + op_index, return_index=True, return_inverse=True
    )
    pair_fids = np.full((len(first), inputs.shape[1]), np.nan)
    pair_probs = np.zeros_like(pair_fids)
    for block in _blocks(len(first)):
        outcomes = first[block]
        out = mats[op_index[outcomes]] @ (maps.stack[outcomes] @ inputs)
        norms = np.linalg.norm(out, axis=1)
        pair_probs[block] = norms**2
        overlaps = np.abs(np.sum(target_out.conj() * out, axis=1))
        np.divide(overlaps, norms, out=pair_fids[block], where=norms > np.sqrt(ZERO_PROB))
    generic = pair_probs[pair_of, generic_col]
    zero_prob = [keys[i] for i in np.flatnonzero(generic < ZERO_PROB)]
    suspicious = [
        keys[i] for i in np.flatnonzero((generic >= ZERO_PROB) & (generic < SUSPICIOUS_PROB))
    ]

    finite = np.isfinite(pair_fids)
    if finite.any():
        masked = np.where(finite, pair_fids, np.inf)
        min_fidelity = float(masked.min())
        # The worst cell is the first minimum in (outcome, input) order. Each
        # pair first occurs at its representative outcome, so that cell lies
        # in the holding pair with the earliest representative.
        holders = np.flatnonzero((masked == min_fidelity).any(axis=1))
        worst = holders[np.argmin(first[holders])]
        worst_outcome = keys[first[worst]]
        worst_input = input_labels[int(np.argmax(masked[worst] == min_fidelity))]
    else:
        min_fidelity = 0.0
        worst_outcome = worst_input = None
    live_gen = generic[generic >= ZERO_PROB]
    prange = (
        (float(live_gen.min()), float(live_gen.max())) if live_gen.size else (0.0, 0.0)
    )
    sums = _column_sums(pair_probs, pair_of)
    conserved = bool(np.max(np.abs(sums - 1.0)) <= 1e-9)
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
        outcome_keys=keys,
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

    Runs the enumeration on a seeded generic input (all amplitudes bounded
    away from zero), lists outcomes of vanishing probability, and for the
    surviving outcomes reports the rank of the input->output map and which
    basis inputs it annihilates. A pattern is lossy when a basis-input
    column vanishes on an outcome of nonzero probability.
    """
    dim = 1 << len(pattern.input_wires)
    rng = np.random.default_rng(seed)
    generic = random_state(dim.bit_length() - 1, rng, MIN_GENERIC_AMP)
    maps = outcome_maps(pattern)
    keys = pattern.outcome_keys
    reps, classes = maps.classes
    probs: list[float] = []
    dead = np.empty((len(reps), dim), dtype=bool)
    ranks = np.empty(len(reps), dtype=np.intp)
    for block in _blocks(len(reps)):
        stack = maps.stack[reps[block]]
        # Probabilities formed as np.linalg.norm(m @ generic) ** 2 forms them
        # for one map (dot products of the real and imaginary parts, then
        # the root squared), so the printed values do not depend on batching.
        out = (stack @ generic)[:, None, :]
        sq = out.real @ out.real.transpose(0, 2, 1) + out.imag @ out.imag.transpose(0, 2, 1)
        probs += [x**2 for x in np.sqrt(sq[:, 0, 0]).tolist()]
        dead[block] = np.linalg.norm(stack, axis=1) < RANK_TOL
        ranks[block] = np.linalg.matrix_rank(stack, tol=RANK_TOL)
    live = np.array(probs) >= ZERO_PROB
    dead &= live[:, None]
    flagged = live & (dead.any(axis=1) | (ranks < dim))
    lost = {c: tuple(np.flatnonzero(dead[c]).tolist()) for c in np.flatnonzero(flagged).tolist()}
    hits = np.flatnonzero(flagged[classes])
    outcomes = [
        LossOutcome(keys[i], probs[c], int(ranks[c]), lost[c])
        for i, c in zip(hits.tolist(), classes[hits].tolist())
    ]
    annihilated = np.flatnonzero(dead.any(axis=0)).tolist()
    return LossReport(
        pattern=pattern.name,
        seed=seed,
        lossy=bool(annihilated),
        zero_probability_outcomes=[keys[i] for i in np.flatnonzero(~live[classes]).tolist()],
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
        note = f"min fidelity {report.min_fidelity:.12f}"
        results.append(ParityResult(n, report.passed, note))
    return results


def select_toffoli_variant(seed: int = DEFAULT_SEED) -> tuple[GatePattern, CorrectionTable, dict[str, str]]:
    """Try both transcriptions of the first three-control group basis.

    Returns the verifying pattern, its derived corrections, and a record of
    what happened to each variant. The literal transcription cannot form a
    complete orthonormal basis and is rejected before simulation.
    """
    from .catalog import toffoli_pattern
    from .patterns import validate_pattern

    record: dict[str, str] = {}
    selected: tuple[GatePattern, CorrectionTable] | None = None
    for variant in ("literal", "corrected"):
        pattern = toffoli_pattern(variant, validate=False)
        try:
            validate_pattern(pattern)
        except PatternFormatError as exc:
            record[variant] = f"rejected: {exc}"
            continue
        try:
            table = derive_corrections(pattern)
        except DerivationError as exc:
            record[variant] = f"rejected: {exc}"
            continue
        report = verify_pattern(pattern, corrections=table, seed=seed)
        if report.passed and selected is None:
            record[variant] = f"verified (min fidelity {report.min_fidelity:.12f})"
            selected = (pattern, table)
        else:
            record[variant] = f"built but failed verification ({report.min_fidelity:.6f})"
    if selected is None:  # pragma: no cover
        raise RuntimeError(f"no variant verified: {record}")
    return selected[0], selected[1], record


def effective_outcome_operator(pattern: GatePattern, key: OutcomeKey) -> np.ndarray:
    """The outcome's input->output map rescaled to unit leading norm."""
    maps = outcome_maps(pattern)
    if key not in maps:
        raise sv.UsageError(f"unknown outcome {format_key(key)}")
    m = maps[key]
    scale = np.linalg.norm(m) / np.sqrt(m.shape[0])
    if scale < ZERO_PROB:
        return np.zeros_like(m)
    return m / scale


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
        if operator_distance(simulated, form) > 1e-9:  # pragma: no cover
            raise RuntimeError(f"closed form disagrees with simulation at {signs}")

    phases = np.exp(2j * np.pi * np.arange(points_per_axis) / points_per_axis)
    best = (np.inf, ())
    for params in product(phases, repeat=5):
        dist = operator_distance(_parameterized_phase_form(*params), CPHASE)
        if dist < best[0]:
            best = (dist, params)
    return best
