"""Catalog of measurement-based gate constructions.

Every builder returns a :class:`~telegate.patterns.GatePattern` over a fresh
register laid out inputs-first, then ancilla resources in declared order.
Joint-measurement bases follow one recipe: two orthogonal product-state
branches combined with a relative sign, fanned out to a complete basis by
bit-indexed sx/sz factors on chosen slots. Outcome labels are the index
bits plus the branch sign.

Corrections: the single-qubit, phase and pi8 patterns ship their reference
recovery columns (they match the derived tables exactly); everything else
ships without corrections and relies on oracle derivation. The cnot and
swap reference grids live in :mod:`telegate.tables` for comparison only,
since they fail verification on half their cells. Patterns whose
corrections need entangling factors flag the ``full`` vocabulary.
"""
from __future__ import annotations

import numpy as np

from . import statevec as sv
from .gates import (
    CNOT,
    CPHASE,
    CZ,
    EIGHTH_TURN,
    HADAMARD,
    PHASE,
    PAULIS,
    SWAP,
    SX,
    SZ,
    double_cz,
    fredkin,
    toffoli,
)
from .patterns import (
    GatePattern,
    MeasurementGroup,
    PatternFormatError,
    validate_pattern,
)
from .tables import (
    bit_sign_labels,
    cnot_table,
    cphase_table_as_captioned,
    cphase_table_transposed,
    phase_table,
    pi8_table,
    single_qubit_table,
    swap_table,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
# (|0> - i|1>)/sqrt(2): the branch factor that injects the quarter-turn phase.
QPHASE = np.array([1, -1j], dtype=complex) / np.sqrt(2)

PAIR_KINDS = {
    "h": [(1, "00"), (1, "01"), (1, "10"), (-1, "11")],
    "phi+": [(1, "00"), (1, "11")],
    "phi-": [(1, "00"), (-1, "11")],
    "psi+": [(1, "01"), (1, "10")],
    "psi-": [(1, "01"), (-1, "10")],
    "product": [(1, "00")],
}


def pair_state(kind: str) -> sv.StateVector:
    try:
        terms = PAIR_KINDS[kind]
    except KeyError:
        raise PatternFormatError(
            f"unknown pair kind {kind!r}; choose from {sorted(PAIR_KINDS)}"
        ) from None
    return sv.from_ket_expression(2, terms)


def ghz_state(num_qubits: int) -> sv.StateVector:
    return sv.from_ket_expression(
        num_qubits, [(1, "0" * num_qubits), (1, "1" * num_qubits)]
    )


def _product_state(parts: list[np.ndarray]) -> np.ndarray:
    out = np.array([1], dtype=complex)
    for part in parts:
        out = np.kron(out, part)
    return out


def two_branch_group(
    qubits: tuple[int, ...],
    parts0: list[np.ndarray],
    parts1: list[np.ndarray],
    index_slots: list[tuple[np.ndarray, int]],
) -> MeasurementGroup:
    """Group measured in {(prod_k op_k^{b_k}) (B0 +- B1)/sqrt(2)}.

    ``index_slots`` lists (operator, slot) pairs, one per label bit; the
    remaining slot carries no index operator. Index operators are one-qubit
    phased permutations such as sx and sz. Labels are
    :func:`~telegate.tables.bit_sign_labels`.
    """
    k = len(qubits)
    if len(parts0) != k or len(parts1) != k:
        raise PatternFormatError("branch factors must cover every measured qubit")
    b0, b1 = _product_state(parts0), _product_state(parts1)
    if abs(np.vdot(b0, b1)) > sv.ATOL_AMP:
        raise PatternFormatError("branch products must be orthogonal")
    # The vectors of every (bits, sign) label at once, as (bit words, signs,
    # 2^k) in label order. Index action j, in slot order, fills the vectors
    # whose bit j is the last one set from those with bit j clear, written
    # in place with the amplitude axis split at the action's slot.
    vectors = np.empty((1 << len(index_slots), 2, 1 << k), dtype=complex)
    vectors[0] = np.stack([b0 + b1, b0 - b1]) / np.sqrt(2)
    for j, (op, slot) in enumerate(index_slots):
        flip, factor = _index_action(op, slot, k)
        done = vectors.reshape(1 << j, 2, -1, 2, 1 << slot, 2, 1 << (k - 1 - slot))
        source = done[:, 0, 0, :, :, ::-1] if flip else done[:, 0, 0]
        np.multiply(factor, source, out=done[:, 1, 0])
    labels = bit_sign_labels(len(index_slots))
    return MeasurementGroup(qubits, sv.MeasurementBasis(k, vectors.reshape(len(labels), -1)), labels)


def _index_action(op: np.ndarray, slot: int, k: int) -> tuple[bool, np.ndarray]:
    """``op`` on ``slot`` of a k-qubit amplitude vector as ``factor *
    amps[source]``: for a one-qubit op with one nonzero entry per row, an
    index flip (sx) or a sign (sz) in place of a matrix product. Returns
    whether the source flips the slot's bit, and the factor per value of
    that bit as a (2, 1) column."""
    op = np.asarray(op, dtype=complex)
    cols = np.abs(op).argmax(axis=1)
    if op.shape != (2, 2) or np.count_nonzero(op) != 2 or cols[0] == cols[1]:
        raise PatternFormatError("index operators must be one-qubit phased permutations")
    sv.check_subset((slot,), k)
    return bool(cols[0]), op[[0, 1], cols][:, None]


# The two group recipes. A joint measurement keeps every input component
# only when its branches match the pair state on its link leg: GHZ branches
# go with an H-type link, the +-linked branches with a Bell link.

def ghz_group(qubits: tuple[int, ...], flip_slots: list[int]) -> MeasurementGroup:
    """All-zeros/all-ones branches with sx index factors on ``flip_slots``."""
    k = len(qubits)
    return two_branch_group(
        qubits, [KET0] * k, [KET1] * k, [(SX, s) for s in flip_slots]
    )


def linked_group(
    qubits: tuple[int, ...], flip_slots: tuple[int, ...] = (), second_link: np.ndarray = MINUS
) -> MeasurementGroup:
    """Branches |0,+,0,...> +- |1,l,1,...> with l = ``second_link`` on the
    link leg (slot 1): sx on slot 0, sz on slot 1 and sx on each of
    ``flip_slots`` index the basis."""
    rest = len(qubits) - 2
    return two_branch_group(
        qubits,
        [KET0, PLUS] + [KET0] * rest,
        [KET1, second_link] + [KET1] * rest,
        [(SX, 0), (SZ, 1)] + [(SX, s) for s in flip_slots],
    )


def _finished(pattern: GatePattern) -> GatePattern:
    validate_pattern(pattern)
    return pattern


# ---------------------------------------------------------------------------
# Single-qubit constructions
# ---------------------------------------------------------------------------

def single_qubit_pattern(u: np.ndarray) -> GatePattern:
    """Teleport one qubit through an H-type pair while applying ``u``.

    The joint basis on (input, pair leg) is the H-type pair rotated by
    u-dagger times each Pauli; outcome alpha leaves the output carrying
    sigma_alpha u |psi>, fixed by the matching Pauli recovery.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not sv.is_unitary(u):
        raise PatternFormatError("single-qubit pattern needs a 2x2 unitary")
    h_amps = pair_state("h").amps
    vectors = [np.kron(u.conj().T @ PAULIS[alpha], np.eye(2)) @ h_amps for alpha in "1234"]
    return _one_qubit_teleport("single-qubit", vectors, single_qubit_table(), u, "h")


def _one_qubit_teleport(name, vectors, corrections, target, pair="phi+") -> GatePattern:
    states = [sv.StateVector(2, np.asarray(v, dtype=complex)) for v in vectors]
    labels = tuple((k + 1,) for k in range(4))
    group = MeasurementGroup((0, 1), sv.basis_from_states(states), labels)
    return _finished(
        GatePattern(
            name=name,
            num_qubits=3,
            input_wires=(0,),
            resources=(((1, 2), pair_state(pair)),),
            groups=(group,),
            output_wires=(2,),
            target=target,
            corrections=corrections,
        )
    )


def phase_gate_pattern() -> GatePattern:
    """Quarter-turn phase gate teleported through a phi+ pair."""
    s = 1 / np.sqrt(2)
    vectors = [
        [s, 0, 0, 1j * s],
        [s, 0, 0, -1j * s],
        [0, s, 1j * s, 0],
        [0, s, -1j * s, 0],
    ]
    return _one_qubit_teleport("phase", vectors, phase_table(), PHASE)


def pi8_gate_pattern() -> GatePattern:
    """Eighth-turn phase gate teleported through a phi+ pair."""
    s = 1 / np.sqrt(2)
    e1, e2 = np.exp(-1j * np.pi / 4), np.exp(3j * np.pi / 4)
    vectors = [
        [s, 0, 0, e1 * s],
        [s, 0, 0, e2 * s],
        [0, s, e1 * s, 0],
        [0, s, e2 * s, 0],
    ]
    return _one_qubit_teleport("pi8", vectors, pi8_table(), EIGHTH_TURN)


# ---------------------------------------------------------------------------
# Controlled-Z family: inputs a b | linking pairs e e' | output pairs c c', d d'
# ---------------------------------------------------------------------------

# The controlled-Z linking pairs by name, and the pair state each names.
CZ_RESOURCES = {"h": "h", "bell": "phi+", "product": "product"}

# The n-link wiring spans 2n + 6 qubits: two inputs, n linking pairs and two
# output pairs.
MAX_CHAIN_LENGTH = (sv.MAX_REGISTER_QUBITS - 6) // 2


def _cz_ghz_group(qubits: tuple[int, ...]) -> MeasurementGroup:
    """GHZ branches with sx on every slot but the output pair's leg."""
    return ghz_group(qubits, list(range(len(qubits) - 1)))


# The first group's recipe on the controlled-Z wiring, by basis kind.
_CZ_ALPHA_RECIPES = {"ghz": _cz_ghz_group, "pm": linked_group}
BASIS_KINDS = tuple(_CZ_ALPHA_RECIPES)


def _cz_wiring(name, links, outputs, alpha, beta, target, **fields) -> GatePattern:
    """The controlled-Z wiring over the linking pair states ``links``.

    Register: a=0, b=1, link k on (e_k, e'_k) = (2+2k, 3+2k), then the
    output pairs (c, c') and (d, d') in the states ``outputs``. The group
    recipe ``alpha`` measures (a, every e_k, c') and ``beta`` measures
    (b, every e'_k, d'); outputs are (c, d). With one link that is a=0,
    b=1, e=2, e'=3, c=4, c'=5, d=6, d'=7.
    """
    c = 2 + 2 * len(links)
    resources = [((2 + 2 * k, 3 + 2 * k), link) for k, link in enumerate(links)]
    resources += [((c, c + 1), outputs[0]), ((c + 2, c + 3), outputs[1])]
    pattern = GatePattern(
        name=name,
        num_qubits=c + 4,
        input_wires=(0, 1),
        resources=tuple(resources),
        groups=(alpha((0, *range(2, c, 2), c + 1)), beta((1, *range(3, c, 2), c + 3))),
        output_wires=(c, c + 2),
        target=target,
        **fields,
    )
    return _finished(pattern)


def cz_layout_pattern(
    ee: str, cc: str, dd: str, alpha_basis: str, name: str = "cz"
) -> GatePattern:
    """Controlled-Z wiring with configurable pair states and first basis.

    Groups measure (a, e, c') and (b, e', d'); outputs are (c, d). The
    linking pair ee' must match the first basis (H-type pair with the GHZ
    basis, Bell pair with the plus/minus-linked basis) or input components
    are lost; the output pairs cc'/dd' only shape the byproduct, and Bell
    pairs keep it inside the Pauli recovery vocabulary (an H-type output
    pair leaves a Hadamard byproduct instead).
    """
    if alpha_basis not in _CZ_ALPHA_RECIPES:
        raise PatternFormatError(f"unknown basis kind {alpha_basis!r}; choose from {BASIS_KINDS}")
    return _cz_wiring(
        name,
        [pair_state(ee)],
        (pair_state(cc), pair_state(dd)),
        _CZ_ALPHA_RECIPES[alpha_basis],
        _cz_ghz_group,
        CZ,
    )


def controlled_z_pattern(
    resource: str = "h", basis: str | None = None, name: str | None = None
) -> GatePattern:
    """Controlled-Z through linking pair ``resource`` (h, bell or product)
    and first-group ``basis`` (ghz or pm), named ``cz[resource,basis]``
    unless ``name`` is given. The basis defaults to the one that matches
    the pair, pm for bell and ghz otherwise: only those rows keep every
    input component (a product pair matches neither)."""
    if resource not in CZ_RESOURCES:
        raise PatternFormatError(f"unknown linking pair {resource!r}; choose from {tuple(CZ_RESOURCES)}")
    basis = basis or ("pm" if resource == "bell" else "ghz")
    return cz_layout_pattern(
        CZ_RESOURCES[resource], "phi+", "phi+", basis, name or f"cz[{resource},{basis}]"
    )


def chain_cz_pattern(n: int) -> GatePattern:
    """Controlled-Z wiring generalized to ``n`` linking pairs.

    Each linking pair contributes one leg to each measurement group, so
    both joint measurements act on n+2 qubits, and each H-type linking pair
    contributes one (-1)^{xy} phase: the |11> component of the output picks
    up (-1)^n, so the target is controlled-Z for odd n and the identity for
    even n.
    """
    if n < 1:
        raise PatternFormatError("chain length must be at least 1")
    if n > MAX_CHAIN_LENGTH:
        raise PatternFormatError(
            f"chain length {n} needs {2 * n + 6} qubits, over the "
            f"{sv.MAX_REGISTER_QUBITS}-qubit register limit"
        )
    return _cz_wiring(
        f"chain-cz-{n}",
        [pair_state("h") for _ in range(n)],
        (pair_state("phi+"), pair_state("phi+")),
        _cz_ghz_group,
        _cz_ghz_group,
        CZ if n % 2 else np.eye(4, dtype=complex),
    )


def triple_cz_pattern() -> GatePattern:
    """Pairwise-adjacent controlled-Z on three wires from one GHZ triple.

    Register: a b c | d e f (GHZ) | g m | h n | i p. Groups measure
    (a,d,g), (b,e,h), (c,f,i); outputs are (m,n,p). The target is the
    diagonal gate with -1 exactly at |011> and |110> (+1 at |111>), i.e.
    controlled-Z on the first two wires times controlled-Z on the last two
    -- not a three-way controlled phase.
    """
    pattern = GatePattern(
        name="triple-cz",
        num_qubits=12,
        input_wires=(0, 1, 2),
        resources=(
            ((3, 4, 5), ghz_state(3)),
            ((6, 7), pair_state("phi+")),
            ((8, 9), pair_state("phi+")),
            ((10, 11), pair_state("phi+")),
        ),
        groups=(
            linked_group((0, 3, 6)),
            ghz_group((1, 4, 8), [0, 1]),
            linked_group((2, 5, 10)),
        ),
        output_wires=(7, 9, 11),
        target=double_cz(),
    )
    return _finished(pattern)


def parameterized_cz_pattern(
    k: complex, kt: complex, p: complex, m: complex, n: complex
) -> GatePattern:
    """Controlled-Z wiring with unit-modulus phases on pairs and branches.

    The pair states carry phases p (linking pair), m, n (output pairs); the
    measurement branches carry k (first group) and kt (second group). The
    nominal target stays controlled-Z. ``oracle.phase_family_obstruction``
    reads off the map of a fixed outcome, which shows that no assignment
    of these five phases realizes the controlled quarter-turn.
    """
    for label, value in (("k", k), ("kt", kt), ("p", p), ("m", m), ("n", n)):
        if abs(abs(value) - 1.0) > sv.ATOL_ORTHO:
            raise sv.UsageError(f"parameter {label} must have unit modulus")
    link, cc, dd = (sv.from_ket_expression(2, [(1, "00"), (x, "11")]) for x in (p, m, n))
    return _cz_wiring(
        "cz-parameterized",
        [link],
        (cc, dd),
        lambda q: two_branch_group(q, [KET0, PLUS, KET0], [k * KET1, MINUS, KET1], [(SX, 0), (SZ, 1)]),
        lambda q: two_branch_group(q, [KET0] * 3, [kt * KET1, KET1, KET1], [(SX, 0), (SX, 1)]),
        CZ,
    )


def controlled_phase_pattern() -> GatePattern:
    """Controlled quarter-turn phase gate on the controlled-Z wiring.

    All pairs are phi+; the first group's branches carry |+> against
    (|0>-i|1>)/sqrt(2), which is where the quarter-turn phase enters. The
    recovery vocabulary needs Ucz composites, so the pattern requests the
    full vocabulary.
    """
    return _cz_wiring(
        "controlled-phase",
        [pair_state("phi+")],
        (pair_state("phi+"), pair_state("phi+")),
        lambda q: linked_group(q, second_link=QPHASE),
        _cz_ghz_group,
        CPHASE,
        vocabulary="full",
    )


# ---------------------------------------------------------------------------
# Two-qubit gates with three-qubit ancilla resources
# ---------------------------------------------------------------------------

def cnot_pattern() -> GatePattern:
    """Controlled-NOT: control on the first output wire.

    Register: a b | e e' | c c' | d d' d''. The target-side resource is the
    four-term entangled triple whose d'' leg joins the first measurement
    group; its |1,d''> branch swaps d against d', which is what flips the
    target wire.
    """
    ddd = sv.from_ket_expression(
        3, [(1, "000"), (1, "110"), (1, "101"), (-1, "011")]
    )
    pattern = GatePattern(
        name="cnot",
        num_qubits=9,
        input_wires=(0, 1),
        resources=(
            ((2, 3), pair_state("phi+")),
            ((4, 5), pair_state("phi+")),
            ((6, 7, 8), ddd),
        ),
        groups=(linked_group((0, 2, 5, 8), (2,)), ghz_group((1, 3, 7), [0, 1])),
        output_wires=(4, 6),
        target=CNOT,
    )
    return _finished(pattern)


def swap_pattern() -> GatePattern:
    """Swap gate: each output wire carries the other input.

    Register: a b | e e' | c c' c'' | d d'. The c-side resource is the GHZ
    triple with a Hadamard folded onto its middle leg, i.e.
    (|000> + |101> + |010> - |111>)/2 over (c, c', c''): the c' leg is a
    Bell-sign flag, not a value copy, which is what lets the second input
    flow through c'' to c. d itself is measured in the first group, which
    routes the first input to d'.
    """
    ccc = sv.from_ket_expression(
        3, [(1, "000"), (1, "101"), (1, "010"), (-1, "111")]
    )
    pattern = GatePattern(
        name="swap",
        num_qubits=9,
        input_wires=(0, 1),
        resources=(
            ((2, 3), pair_state("phi+")),
            ((4, 5, 6), ccc),
            ((7, 8), pair_state("phi+")),
        ),
        groups=(linked_group((0, 2, 5, 7), (3,)), ghz_group((1, 3, 6), [0, 1])),
        output_wires=(4, 8),
        target=SWAP,
    )
    return _finished(pattern)


# ---------------------------------------------------------------------------
# Three-qubit gates
# ---------------------------------------------------------------------------

TOFFOLI_VARIANTS = ("literal", "corrected")


def _toffoli_four_leg_resource() -> sv.StateVector:
    # Legs ordered (i, p, i', i''); the (i', i'') legs select which pair
    # state couples i to p.
    return sv.from_ket_expression(
        4,
        [
            (1, "0000"),
            (1, "1100"),
            (1, "0010"),
            (-1, "1110"),
            (1, "0001"),
            (1, "1101"),
            (-1, "0111"),
            (1, "1011"),
        ],
    )


def _toffoli_first_group(variant: str) -> MeasurementGroup:
    """Toffoli's first group on (a, d, i'', g) in one of the two readings of
    the source construction: ``literal`` keeps the i'' leg at |0> in both
    branches, ``corrected`` flips it in the second."""
    if variant not in TOFFOLI_VARIANTS:
        raise PatternFormatError(
            f"unknown variant {variant!r}; choose from {TOFFOLI_VARIANTS}"
        )
    second_idd = KET1 if variant == "corrected" else KET0
    return two_branch_group(
        (0, 3, 12, 6),
        [KET0, PLUS, KET0, KET0],
        [KET1, MINUS, second_idd, KET1],
        [(SX, 0), (SZ, 1), (SX, 3)],
    )


def toffoli_pattern(variant: str = "corrected") -> GatePattern:
    """Doubly-controlled NOT; controls on the first two output wires.

    Register: a b c | d e f (GHZ) | g m | h n | i i' i'' p. The first
    group's transcription is ambiguous in the source construction: the
    ``literal`` variant keeps the i'' leg at |0> in both branches (its 16
    label combinations collapse to 8 distinct vectors, so it fails basis
    validation and this raises); the ``corrected`` variant flips i'' in
    the second branch, matching the structure of every other group.
    """
    pattern = GatePattern(
        name="toffoli",
        num_qubits=14,
        input_wires=(0, 1, 2),
        resources=(
            ((3, 4, 5), ghz_state(3)),
            ((6, 7), pair_state("phi+")),
            ((8, 9), pair_state("phi+")),
            ((10, 13, 11, 12), _toffoli_four_leg_resource()),
        ),
        groups=(_toffoli_first_group(variant), ghz_group((1, 4, 11, 8), [0, 1, 3]), linked_group((2, 5, 10))),
        output_wires=(7, 9, 13),
        target=toffoli(),
        vocabulary="full",
        variant=variant,
    )
    return _finished(pattern)


def fredkin_pattern() -> GatePattern:
    """Controlled swap; control on the first output wire.

    Register: a b c | d e f (GHZ) | g m | i i' i'' p | h h' h'' n. Two
    four-leg resources route the swap: the i-resource feeds p, the
    h-resource feeds n; their double-primed legs select each resource's
    swap regime and are measured in the first group.

    Known defect, surfaced by the oracle: the first group measures both
    regime selectors (h'' and i'') plus a, d, g, so it needs four index
    bits, but only three flip assignments (a, d, g) keep the two selectors
    riding the branches together. This completion of the basis contains
    regime-disagreement outcomes (no proof covers every completion); those
    carry probability exactly 1/2 on every input and their input->output
    maps have rank 4 of 8, so no correction exists and exhaustive
    verification fails on exactly the h''-flip half of the first group's
    outcomes.
    """
    ires = sv.from_ket_expression(
        4,
        [
            (1, "0000"),
            (1, "1100"),
            (1, "0010"),
            (-1, "1110"),
            (1, "0001"),
            (-1, "1001"),
            (-1, "0111"),
            (1, "1111"),
        ],
    )
    hres = sv.from_ket_expression(
        4,
        [
            (1, "0000"),
            (1, "0100"),
            (1, "0001"),
            (-1, "1101"),
            (1, "1010"),
            (1, "1110"),
            (1, "0011"),
            (1, "1111"),
        ],
    )
    pattern = GatePattern(
        name="fredkin",
        num_qubits=16,
        input_wires=(0, 1, 2),
        resources=(
            ((3, 4, 5), ghz_state(3)),
            ((6, 7), pair_state("phi+")),
            ((8, 11, 9, 10), ires),
            ((15, 13, 12, 14), hres),
        ),
        groups=(
            linked_group((0, 3, 14, 10, 6), (2, 4)),
            ghz_group((1, 4, 9, 12), [0, 1, 3]),
            linked_group((2, 5, 13, 8), (2,)),
        ),
        output_wires=(7, 15, 11),
        target=fredkin(),
        vocabulary="full",
    )
    return _finished(pattern)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def catalog_entries() -> dict[str, dict]:
    """Name -> metadata for every shipped pattern.

    Each record holds ``factory``, ``params`` (the free arguments, for
    ``list``), ``target`` (the label ``list`` prints) and optionally
    ``defaults`` (the build arguments when the caller gives none) and
    ``flags`` (the CLI flags that set the factory's keyword arguments of the
    same names; each flag belongs to one entry). Patterns
    with a printed recovery table add ``reference`` (its maker) and
    ``table`` (its number); ``captioned`` makes the same grid read as its
    caption says, where that reading differs.
    """
    return {
        "single-qubit": {
            "factory": single_qubit_pattern,
            "params": "u: 2x2 unitary (defaults to Hadamard at the CLI)",
            "target": "given 2x2 unitary",
            "defaults": {"u": HADAMARD},
            "flags": ("u",),
        },
        "phase": {
            "factory": phase_gate_pattern,
            "params": "",
            "target": "diag(1, i)",
            "reference": phase_table,
            "table": "2",
        },
        "pi8": {
            "factory": pi8_gate_pattern,
            "params": "",
            "target": "diag(1, e^{i pi/4})",
            "reference": pi8_table,
            "table": "3",
        },
        "cz": {
            "factory": controlled_z_pattern,
            "params": "resource row: h | bell (plus loss-check combinations)",
            "target": "controlled-Z",
            "flags": ("resource", "basis"),
        },
        "cz-mismatched": {
            "factory": controlled_z_pattern,
            "params": "",
            "target": "controlled-Z (incompatible configuration)",
            "defaults": {"resource": "bell", "basis": "ghz", "name": "cz-mismatched"},
        },
        "cz-no-ee": {
            "factory": controlled_z_pattern,
            "params": "",
            "target": "controlled-Z (unentangled linking pair)",
            "defaults": {"resource": "product", "name": "cz-no-ee"},
        },
        "chain-cz": {
            "factory": chain_cz_pattern,
            "params": "n: number of linking pairs",
            "target": "controlled-Z for odd n, identity for even n",
            "defaults": {"n": 1},
            "flags": ("n",),
        },
        "triple-cz": {
            "factory": triple_cz_pattern,
            "params": "",
            "target": "pairwise controlled-Z on wires (0,1) and (1,2)",
        },
        "controlled-phase": {
            "factory": controlled_phase_pattern,
            "params": "",
            "target": "diag(1, 1, 1, i)",
            "reference": cphase_table_transposed,
            "table": "4",
            "captioned": cphase_table_as_captioned,
        },
        "cnot": {
            "factory": cnot_pattern,
            "params": "",
            "target": "controlled-NOT (control on first output)",
            "reference": cnot_table,
            "table": "5",
        },
        "swap": {
            "factory": swap_pattern,
            "params": "",
            "target": "swap",
            "reference": swap_table,
            "table": "6",
        },
        "toffoli": {
            "factory": toffoli_pattern,
            "params": "variant: corrected | literal",
            "target": "doubly-controlled-NOT",
        },
        "fredkin": {
            "factory": fredkin_pattern,
            "params": "",
            "target": "controlled-swap (control on first output)",
        },
    }


def build_pattern(name: str, **kwargs) -> GatePattern:
    """Build a catalog pattern; ``kwargs`` override the entry's defaults."""
    entries = catalog_entries()
    if name not in entries:
        raise PatternFormatError(
            f"unknown pattern {name!r}; available: {', '.join(sorted(entries))}"
        )
    entry = entries[name]
    return entry["factory"](**{**entry.get("defaults", {}), **kwargs})
