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

from itertools import product

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
    CorrectionOp,
    CorrectionTable,
    GatePattern,
    MeasurementGroup,
    PatternFormatError,
    validate_pattern,
)
from .tables import (
    cnot_table,
    cphase_table_as_captioned,
    cphase_table_transposed,
    phase_table,
    pi8_table,
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
    phased permutations such as sx and sz. Labels are (*bits, sign) with
    "+" ordered before "-".
    """
    k = len(qubits)
    if len(parts0) != k or len(parts1) != k:
        raise PatternFormatError("branch factors must cover every measured qubit")
    b0, b1 = _product_state(parts0), _product_state(parts1)
    if abs(np.vdot(b0, b1)) > 1e-12:
        raise PatternFormatError("branch products must be orthogonal")
    actions = [_index_action(op, slot, k) for op, slot in index_slots]
    states: list[sv.StateVector] = []
    labels: list[tuple] = []
    for bits in product((0, 1), repeat=len(index_slots)):
        for sign, signed in (("+", b0 + b1), ("-", b0 - b1)):
            amps = signed / np.sqrt(2)
            for bit, (source, factor) in zip(bits, actions):
                if bit:
                    amps = factor * amps[source]
            states.append(sv.StateVector(k, amps))
            labels.append((*bits, sign))
    return MeasurementGroup(qubits, sv.basis_from_states(states), tuple(labels))


def _index_action(op: np.ndarray, slot: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``op`` on ``slot`` of a k-qubit amplitude vector as ``factor *
    amps[source]``: for a one-qubit op with one nonzero entry per row, an
    index flip (sx) or a sign (sz) in place of a matrix product."""
    op = np.asarray(op, dtype=complex)
    cols = np.abs(op).argmax(axis=1)
    if op.shape != (2, 2) or np.count_nonzero(op) != 2 or cols[0] == cols[1]:
        raise PatternFormatError("index operators must be one-qubit phased permutations")
    (slot,) = sv.check_subset((slot,), k)
    shift = k - 1 - slot
    index = np.arange(1 << k)
    bit = (index >> shift) & 1
    return index ^ ((bit ^ cols[bit]) << shift), op[bit, cols[bit]]


def ghz_group(qubits: tuple[int, ...], flip_slots: list[int]) -> MeasurementGroup:
    """All-zeros/all-ones branches with sx index factors on ``flip_slots``."""
    k = len(qubits)
    return two_branch_group(
        qubits, [KET0] * k, [KET1] * k, [(SX, s) for s in flip_slots]
    )


def linked_group(qubits: tuple[int, ...]) -> MeasurementGroup:
    """Three-qubit branches |0,+,0> +- |1,-,1> with sx/sz index factors."""
    return two_branch_group(
        qubits, [KET0, PLUS, KET0], [KET1, MINUS, KET1], [(SX, 0), (SZ, 1)]
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
    states = []
    labels = []
    for alpha in ("1", "2", "3", "4"):
        rot = np.kron(u.conj().T @ PAULIS[alpha], np.eye(2))
        states.append(sv.StateVector(2, rot @ h_amps))
        labels.append((int(alpha),))
    group = MeasurementGroup((0, 1), sv.basis_from_states(states), tuple(labels))
    corrections = CorrectionTable(
        {
            ((1,),): CorrectionOp((("sx", (0,)),)),
            ((2,),): CorrectionOp((("sx", (0,)), ("sz", (0,)))),
            ((3,),): CorrectionOp((("sz", (0,)),)),
            ((4,),): CorrectionOp.identity(),
        }
    )
    return _finished(
        GatePattern(
            name="single-qubit",
            num_qubits=3,
            input_wires=(0,),
            resources=(((1, 2), pair_state("h")),),
            groups=(group,),
            output_wires=(2,),
            target=u,
            corrections=corrections,
        )
    )


def _one_qubit_teleport(name, vectors, corrections, target) -> GatePattern:
    states = [sv.StateVector(2, np.asarray(v, dtype=complex)) for v in vectors]
    labels = tuple((k + 1,) for k in range(4))
    group = MeasurementGroup((0, 1), sv.basis_from_states(states), labels)
    return _finished(
        GatePattern(
            name=name,
            num_qubits=3,
            input_wires=(0,),
            resources=(((1, 2), pair_state("phi+")),),
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
# Controlled-Z family (8-qubit wiring: a b | e e' | c c' | d d')
# ---------------------------------------------------------------------------

BASIS_KINDS = ("ghz", "pm")


def _cz_alpha_group(kind: str) -> MeasurementGroup:
    if kind == "ghz":
        return ghz_group((0, 2, 5), [0, 1])
    if kind == "pm":
        return linked_group((0, 2, 5))
    raise PatternFormatError(f"unknown basis kind {kind!r}; choose from {BASIS_KINDS}")


def cz_layout_pattern(
    ee: str, cc: str, dd: str, alpha_basis: str, name: str = "cz"
) -> GatePattern:
    """Controlled-Z wiring with configurable pair states and first basis.

    Register: a=0, b=1, e=2, e'=3, c=4, c'=5, d=6, d'=7. Groups measure
    (a, e, c') and (b, e', d'); outputs are (c, d). The linking pair ee'
    must match the first basis (H-type pair with the GHZ basis, Bell pair
    with the plus/minus-linked basis) or input components are lost; the
    output pairs cc'/dd' only shape the byproduct, and Bell pairs keep it
    inside the Pauli recovery vocabulary (an H-type output pair leaves a
    Hadamard byproduct instead).
    """
    pattern = GatePattern(
        name=name,
        num_qubits=8,
        input_wires=(0, 1),
        resources=(
            ((2, 3), pair_state(ee)),
            ((4, 5), pair_state(cc)),
            ((6, 7), pair_state(dd)),
        ),
        groups=(_cz_alpha_group(alpha_basis), ghz_group((1, 3, 7), [0, 1])),
        output_wires=(4, 6),
        target=CZ,
    )
    return _finished(pattern)


def controlled_z_pattern(resource_row: str = "h") -> GatePattern:
    """The two compatible controlled-Z rows: H-type linking pair with
    all-GHZ bases, or Bell linking pair with the plus/minus-linked first
    basis (Bell output pairs in both rows)."""
    if resource_row == "h":
        return cz_layout_pattern("h", "phi+", "phi+", "ghz", name="cz")
    if resource_row == "bell":
        return cz_layout_pattern("phi+", "phi+", "phi+", "pm", name="cz-bell")
    raise PatternFormatError(
        f"unknown controlled-Z row {resource_row!r}; choose 'h' or 'bell'"
    )


def cz_mismatched_pattern() -> GatePattern:
    """Bell linking pair combined with the GHZ basis: loses components."""
    return cz_layout_pattern("phi+", "phi+", "phi+", "ghz", name="cz-mismatched")


def cz_no_link_pattern(alpha_basis: str = "ghz") -> GatePattern:
    """Controlled-Z wiring with the linking pair left unentangled (|00>).

    Demonstrates that without entanglement between the two measurement
    groups the gate is impossible: every outcome annihilates input
    components.
    """
    return cz_layout_pattern("product", "phi+", "phi+", alpha_basis, name="cz-no-ee")


# The n-pair chain spans 2n + 6 qubits: two inputs, n linking pairs and two
# output pairs.
MAX_CHAIN_LENGTH = (sv.MAX_REGISTER_QUBITS - 6) // 2


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
    c = 2 + 2 * n
    resources = [((2 + 2 * k, 3 + 2 * k), pair_state("h")) for k in range(n)]
    resources += [((c, c + 1), pair_state("phi+")), ((c + 2, c + 3), pair_state("phi+"))]
    alpha_qubits = (0, *(2 + 2 * k for k in range(n)), c + 1)
    beta_qubits = (1, *(3 + 2 * k for k in range(n)), c + 3)
    flips = list(range(n + 1))
    pattern = GatePattern(
        name=f"chain-cz-{n}",
        num_qubits=c + 4,
        input_wires=(0, 1),
        resources=tuple(resources),
        groups=(ghz_group(alpha_qubits, flips), ghz_group(beta_qubits, flips)),
        output_wires=(c, c + 2),
        target=CZ if n % 2 else np.eye(4, dtype=complex),
    )
    return _finished(pattern)


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
    nominal target stays controlled-Z; the point of this layout is reading
    off the effective operator of a fixed outcome, which shows that no
    assignment of these five phases realizes the controlled quarter-turn.
    """
    for label, value in (("k", k), ("kt", kt), ("p", p), ("m", m), ("n", n)):
        if abs(abs(value) - 1.0) > 1e-10:
            raise sv.UsageError(f"parameter {label} must have unit modulus")
    alpha = two_branch_group(
        (0, 2, 5), [KET0, PLUS, KET0], [k * KET1, MINUS, KET1], [(SX, 0), (SZ, 1)]
    )
    beta = two_branch_group(
        (1, 3, 7), [KET0] * 3, [kt * KET1, KET1, KET1], [(SX, 0), (SX, 1)]
    )
    pattern = GatePattern(
        name="cz-parameterized",
        num_qubits=8,
        input_wires=(0, 1),
        resources=(
            ((2, 3), sv.from_ket_expression(2, [(1, "00"), (p, "11")])),
            ((4, 5), sv.from_ket_expression(2, [(1, "00"), (m, "11")])),
            ((6, 7), sv.from_ket_expression(2, [(1, "00"), (n, "11")])),
        ),
        groups=(alpha, beta),
        output_wires=(4, 6),
        target=CZ,
    )
    return _finished(pattern)


def controlled_phase_pattern() -> GatePattern:
    """Controlled quarter-turn phase gate on the controlled-Z wiring.

    All pairs are phi+; the first group's branches carry |+> against
    (|0>-i|1>)/sqrt(2), which is where the quarter-turn phase enters. The
    recovery vocabulary needs Ucz composites, so the pattern requests the
    extended dictionary.
    """
    alpha = two_branch_group(
        (0, 2, 5),
        [KET0, PLUS, KET0],
        [KET1, QPHASE, KET1],
        [(SX, 0), (SZ, 1)],
    )
    pattern = GatePattern(
        name="controlled-phase",
        num_qubits=8,
        input_wires=(0, 1),
        resources=(
            ((2, 3), pair_state("phi+")),
            ((4, 5), pair_state("phi+")),
            ((6, 7), pair_state("phi+")),
        ),
        groups=(alpha, ghz_group((1, 3, 7), [0, 1])),
        output_wires=(4, 6),
        target=CPHASE,
        vocabulary="full",
    )
    return _finished(pattern)


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
    alpha = two_branch_group(
        (0, 2, 5, 8),
        [KET0, PLUS, KET0, KET0],
        [KET1, MINUS, KET1, KET1],
        [(SX, 0), (SZ, 1), (SX, 2)],
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
        groups=(alpha, ghz_group((1, 3, 7), [0, 1])),
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
    alpha = two_branch_group(
        (0, 2, 5, 7),
        [KET0, PLUS, KET0, KET0],
        [KET1, MINUS, KET1, KET1],
        [(SX, 0), (SZ, 1), (SX, 3)],
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
        groups=(alpha, ghz_group((1, 3, 6), [0, 1])),
        output_wires=(4, 8),
        target=SWAP,
    )
    return _finished(pattern)


# ---------------------------------------------------------------------------
# Three-qubit gates
# ---------------------------------------------------------------------------

TOFFOLI_VARIANTS = ("corrected", "literal")


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


def toffoli_pattern(variant: str = "corrected", validate: bool = True) -> GatePattern:
    """Doubly-controlled NOT; controls on the first two output wires.

    Register: a b c | d e f (GHZ) | g m | h n | i i' i'' p. The first
    group's transcription is ambiguous in the source construction: the
    ``literal`` variant keeps the i'' leg at |0> in both branches (its 16
    label combinations collapse to 8 distinct vectors, so it fails basis
    validation); the ``corrected`` variant flips i'' in the second branch,
    matching the structure of every other group. Pass ``validate=False`` to
    build the literal variant for inspection.
    """
    if variant not in TOFFOLI_VARIANTS:
        raise PatternFormatError(
            f"unknown variant {variant!r}; choose from {TOFFOLI_VARIANTS}"
        )
    second_idd = KET1 if variant == "corrected" else KET0
    alpha = two_branch_group(
        (0, 3, 12, 6),
        [KET0, PLUS, KET0, KET0],
        [KET1, MINUS, second_idd, KET1],
        [(SX, 0), (SZ, 1), (SX, 3)],
    )
    beta = two_branch_group(
        (1, 4, 11, 8),
        [KET0] * 4,
        [KET1] * 4,
        [(SX, 0), (SX, 1), (SX, 3)],
    )
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
        groups=(alpha, beta, linked_group((2, 5, 10))),
        output_wires=(7, 9, 13),
        target=toffoli(),
        vocabulary="full",
        variant=variant,
    )
    if validate:
        validate_pattern(pattern)
    return pattern


def fredkin_pattern() -> GatePattern:
    """Controlled swap; control on the first output wire.

    Register: a b c | d e f (GHZ) | g m | i i' i'' p | h h' h'' n. Two
    four-leg resources route the swap: the i-resource feeds p, the
    h-resource feeds n; their double-primed legs select each resource's
    swap regime and are measured in the first group.

    Known defect, surfaced by the oracle: the first group measures both
    regime selectors (h'' and i'') plus a, d, g, so it needs four index
    bits, but only three flip assignments (a, d, g) keep the two selectors
    riding the branches together. Any completion of the basis contains
    regime-disagreement outcomes; those carry probability 1/2 on generic
    inputs and their input->output maps have rank 4 of 8, so no correction
    exists and exhaustive verification fails on exactly the
    h''-flip half of the first group's outcomes.
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
    alpha = two_branch_group(
        (0, 3, 14, 10, 6),
        [KET0, PLUS, KET0, KET0, KET0],
        [KET1, MINUS, KET1, KET1, KET1],
        [(SX, 0), (SZ, 1), (SX, 2), (SX, 4)],
    )
    beta = two_branch_group(
        (1, 4, 9, 12),
        [KET0] * 4,
        [KET1] * 4,
        [(SX, 0), (SX, 1), (SX, 3)],
    )
    gamma = two_branch_group(
        (2, 5, 13, 8),
        [KET0, PLUS, KET0, KET0],
        [KET1, MINUS, KET1, KET1],
        [(SX, 0), (SZ, 1), (SX, 2)],
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
        groups=(alpha, beta, gamma),
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
    ``defaults`` (the build arguments when the caller gives none). Patterns
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
        },
        "cz-mismatched": {
            "factory": cz_mismatched_pattern,
            "params": "",
            "target": "controlled-Z (incompatible configuration)",
        },
        "cz-no-ee": {
            "factory": cz_no_link_pattern,
            "params": "",
            "target": "controlled-Z (unentangled linking pair)",
        },
        "chain-cz": {
            "factory": chain_cz_pattern,
            "params": "n: number of linking pairs",
            "target": "controlled-Z for odd n, identity for even n",
            "defaults": {"n": 1},
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
