"""Reference helpers the tests compare the engine against."""
import io
import json
import random
from collections.abc import Iterable
from functools import lru_cache
from itertools import count, product

import numpy as np
from hypothesis import strategies as st

from telegate import catalog, oracle
from telegate import statevec as sv
from telegate.patterns import (
    ELEMENTARY_OPS,
    CorrectionOp,
    CorrectionTable,
    GatePattern,
    MeasurementGroup,
    format_key,
    pattern_to_document,
    validate_pattern,
)


def patterns_equal(a: GatePattern, b: GatePattern, atol: float = sv.ATOL_AMP) -> bool:
    """Structural equality up to amplitude tolerance (names ignored)."""
    if (
        a.num_qubits != b.num_qubits
        or a.input_wires != b.input_wires
        or a.output_wires != b.output_wires
        or len(a.resources) != len(b.resources)
        or len(a.groups) != len(b.groups)
    ):
        return False
    for (qa, sa), (qb, sb) in zip(a.resources, b.resources):
        if qa != qb or not np.allclose(sa.amps, sb.amps, atol=atol):
            return False
    for ga, gb in zip(a.groups, b.groups):
        if ga.qubits != gb.qubits or ga.labels != gb.labels:
            return False
        if not np.allclose(ga.basis.vectors, gb.basis.vectors, atol=atol):
            return False
    return bool(np.allclose(a.target, b.target, atol=atol))


def project(
    state: sv.StateVector, basis_vector: sv.StateVector, measured: tuple[int, ...]
) -> tuple[float, sv.StateVector | None]:
    """Project the measured qubits onto ``basis_vector``, one state at a time.

    Returns the outcome probability and the renormalized residual state on
    the unmeasured qubits (in ascending original order), or ``None`` when the
    probability falls below the zero threshold (a legal, flagged outcome).
    """
    n = state.num_qubits
    measured = sv.check_subset(measured, n)
    if basis_vector.num_qubits != len(measured):
        raise sv.UsageError(
            f"basis vector on {basis_vector.num_qubits} qubits cannot measure "
            f"{len(measured)} qubits"
        )
    t = state.amps.reshape([2] * n)
    t = np.moveaxis(t, measured, range(len(measured)))
    mat = t.reshape(basis_vector.amps.size, -1)
    residual = basis_vector.amps.conj() @ mat
    prob = float(np.real(np.vdot(residual, residual)))
    if prob <= sv.ZERO_PROB:
        return prob, None
    post = residual / np.sqrt(prob)
    return prob, sv.StateVector(n - len(measured), np.ascontiguousarray(post))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _first_per_phase_class(candidates: list, mats: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """The candidates whose matrix equals no earlier one's up to phase, with
    their matrices stacked."""
    keep: list[int] = []
    for i, mat in enumerate(mats):
        if not any(oracle._equal_up_to_phase(mats[j], mat) for j in keep):
            keep.append(i)
    return [candidates[i] for i in keep], np.array([mats[i] for i in keep])


def _tail_matrix(tail: tuple[str, ...]) -> np.ndarray:
    out = np.eye(2, dtype=complex)
    for name in tail:
        out = out @ ELEMENTARY_OPS[name]
    return out


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


def entangler_prefixes(num_wires: int) -> list[tuple[Factor, ...]]:
    """The entangling prefixes naming once tried first for the ``full``
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


@lru_cache(maxsize=4)
def linear_words_by_rows(num_wires: int) -> dict:
    """Shortest controlled-X factor words for every invertible linear map
    over F2^num_wires (bit i = wire i), keyed by the bit matrix's rows as
    tuples: the breadth-first search ``oracle._linear_words`` runs on
    integer row masks, with the same generators, queue order and words.
    Words are in matrix order."""
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


@lru_cache(maxsize=8)
def _prefix_forms(num_wires: int, vocabulary: str) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The fixed prefixes :func:`two_stage_names` tries, in order: ``()``
    for ``pauli_phase``, :func:`entangler_prefixes` for ``full``. With
    them, each one's inverse in integer form: the prefix sends column
    inverse[y] to row y with i**back[y]."""
    prefixes = tuple(entangler_prefixes(num_wires)) if vocabulary == "full" else ((),)
    rows, q, _ = oracle._monomial_forms(np.array([CorrectionOp(p).matrix(num_wires) for p in prefixes]))
    inverse = np.argsort(rows, axis=1)
    back = np.take_along_axis(q, inverse, axis=1)
    for array in (inverse, back):
        array.flags.writeable = False  # shared by every caller
    return prefixes, inverse, back


def two_stage_names(stack: np.ndarray, num_wires: int, vocabulary: str) -> list[CorrectionOp | None]:
    """The namer derivation once used: each recovery g of a (k, d, d) stack
    as a prefix P times one tail per wire, or None where the vocabulary does
    not generate it. The candidate prefixes are the fixed ones of
    :func:`_prefix_forms`, then, for ``full``, g's own entangler E (the
    controlled-X word of its linear part, read from
    :func:`linear_words_by_rows`, then its controlled-Z pairs); the first P
    whose remainder P⁻¹·g is local names g. At most 4 wires for ``full``."""
    n, dim = num_wires, 1 << num_wires
    rows, q, ok = oracle._monomial_forms(stack)
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
            prefix = linear_words_by_rows(n)[tuple(map(tuple, lin[f].tolist()))]
            prefix += tuple(("Ucz", (i, j)) for i, j, on in pairs if on)
        tails = tuple(oracle._TAILS[a][b] for a, b in zip(flip, turn))
        ops.append(CorrectionOp(prefix + CorrectionOp.from_wire_products(tails).factors))
    for i, f in zip(good.tolist(), which.reshape(-1).tolist()):
        named[i] = ops[f]
    return named


@lru_cache(maxsize=8)
def reference_dictionary(num_wires: int, vocabulary: str) -> tuple[list[CorrectionOp], np.ndarray]:
    """The enumerated correction dictionary derivation once looked recoveries
    up in: every prefix times every choice of one tail per wire, as a list
    of ops and their matrices, in build order and read-only.

    The tails are the single-wire chains over I, Up, sz, sx of length 1 to
    3, the first of each class up to phase in (length, alphabet) order; the
    prefixes are ``()`` for ``pauli_phase`` and the first of each class
    among :func:`entangler_prefixes` for ``full``. Op k is prefix
    ``k % len(prefixes)`` times the tails picked by the digits of
    ``k // len(prefixes)`` in base ``len(tails)`` (wire 0 most
    significant). Its
    matrix is the prefix matrix times the kron of the tail matrices; every
    entry is 0, +-1 or +-i, so it equals ``op.matrix`` exactly, up to the
    signs of zeros."""
    combos = [c for length in (1, 2, 3) for c in product(("I", "Up", "sz", "sx"), repeat=length)]
    tails, tail_mats = _first_per_phase_class(combos, [_tail_matrix(c) for c in combos])
    candidates = entangler_prefixes(num_wires) if vocabulary == "full" else [()]
    prefixes, prefix_mats = _first_per_phase_class(
        candidates, [CorrectionOp(p).matrix(num_wires) for p in candidates]
    )
    size = len(prefixes) * len(tails) ** num_wires
    local, prefix = np.divmod(np.arange(size), len(prefixes))
    picks = np.unravel_index(local, (len(tails),) * num_wires)
    ops = [
        CorrectionOp(prefixes[p] + CorrectionOp.from_wire_products(tuple(tails[t] for t in ts)).factors)
        for p, *ts in zip(prefix.tolist(), *(pick.tolist() for pick in picks))
    ]
    mats = np.ones((size, 1, 1), dtype=complex)
    for pick in picks:
        width = 2 * mats.shape[1]
        mats = np.einsum("lab,lcd->lacbd", mats, tail_mats[pick]).reshape(-1, width, width)
    mats = prefix_mats[prefix] @ mats
    mats.flags.writeable = False
    return ops, mats


def table_to_doc(name: str, cells: list, diff_docs: dict | None = None, footer: str = "") -> dict:
    """A correction table's document, from its (key text, op rendering) cells."""
    doc = {
        "kind": "correction-table",
        "name": name,
        "entries": [{"labels": key, "op": op} for key, op in cells],
    }
    if diff_docs:
        doc["diffs"] = diff_docs
    if footer:
        doc["footer"] = footer
    return doc


def table_json(name: str, table: CorrectionTable, num_wires: int, diff_docs=None, footer="") -> str:
    """A correction table's JSON written as one document, cells in sorted
    key order: the bytes the streamed table writer must reproduce."""
    cells = [(format_key(key), op.render(num_wires)) for key, op in sorted(table.items())]
    return json.dumps(table_to_doc(name, cells, diff_docs, footer), indent=1, sort_keys=True)


def ragged_basis() -> sv.MeasurementBasis:
    """The Haar wavelet basis of 3 qubits, two rows rephased and the rows
    shuffled: its rows hold 2, 8, 4, 2, 8, 2, 4 and 2 nonzeros."""
    haar = np.zeros((8, 8), dtype=complex)
    haar[0] = 1 / np.sqrt(8)
    haar[1] = np.repeat([1, -1], 4) / np.sqrt(8)
    haar[2, :4] = haar[3, 4:] = np.repeat([1, -1], 2) / 2
    for i in range(4):
        haar[4 + i, 2 * i:2 * i + 2] = [1 / np.sqrt(2), -1 / np.sqrt(2)]
    haar[3] *= 1j
    haar[5] *= -1
    return sv.MeasurementBasis(3, haar[[4, 0, 2, 5, 1, 6, 3, 7]])


def dense_maps(pattern: GatePattern) -> np.ndarray:
    """Every outcome's map in outcome order, from the whole register built
    by successive outer products, one axis per qubit in input-then-resource
    order, then one dense matmul per group."""
    dim = 1 << len(pattern.input_wires)
    amps = np.eye(dim, dtype=complex)
    qubits = list(pattern.input_wires)
    for resource_qubits, state in pattern.resources:
        amps = (amps[:, None, :] * state.amps[None, :, None]).reshape(-1, dim)
        qubits.extend(resource_qubits)
    t = amps.reshape([1] + [2] * len(qubits) + [dim])
    for group in pattern.groups:
        axes = [qubits.index(q) + 1 for q in group.qubits]
        k = len(axes)
        flat = np.moveaxis(t, axes, range(1, k + 1)).reshape(t.shape[0], 1 << k, -1)
        qubits = [q for q in qubits if q not in group.qubits]
        t = (group.basis.vectors.conj() @ flat).reshape([-1] + [2] * len(qubits) + [dim])
    perm = [qubits.index(w) + 1 for w in pattern.output_wires]
    return t.transpose([0] + perm + [len(qubits) + 1]).reshape(t.shape[0], -1, dim)


def _block_basis(num_qubits: int, sizes: list[int], rng: np.random.Generator) -> np.ndarray:
    """A basis whose columns, shuffled, fall into blocks of the given sizes,
    each block a Haar-random unitary on its columns, with the rows shuffled:
    one block is a dense unitary, blocks of one a phased permutation, and
    mixed sizes give rows of unequal nonzero counts."""
    dim = 1 << num_qubits
    vectors = np.zeros((dim, dim), dtype=complex)
    lo = 0
    for size in sizes:
        vectors[lo:lo + size, lo:lo + size] = random_unitary(size, rng)
        lo += size
    return vectors[rng.permutation(dim)][:, rng.permutation(dim)]


@st.composite
def small_patterns(draw) -> GatePattern:
    """Small random valid patterns, without corrections: one or two inputs;
    one to four random resource states of one or two qubits, with at least
    as many qubits as inputs; wire numbers shuffled; outputs drawn from the
    resource legs; one or two groups of at most five qubits (at most 32
    basis columns), which measure every input and the other legs, whose
    bases are dense random unitaries, phased permutations or ragged rows;
    at most ten qubits. The amplitudes come from a generator seeded by one
    drawn integer."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_inputs = draw(st.integers(1, 2))
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4).filter(lambda s: sum(s) >= num_inputs))
    num_qubits = num_inputs + sum(sizes)
    wires = [int(q) for q in rng.permutation(num_qubits)]
    inputs, wires = tuple(wires[:num_inputs]), wires[num_inputs:]
    legs = [int(q) for q in rng.permutation(wires)]
    resources = []
    for size in sizes:
        amps = rng.standard_normal(1 << size) + 1j * rng.standard_normal(1 << size)
        resources.append((tuple(wires[:size]), sv.StateVector(size, amps / np.linalg.norm(amps))))
        wires = wires[size:]
    outputs = tuple(legs[:num_inputs])
    measured = [int(q) for q in rng.permutation([*inputs, *legs[num_inputs:]])]
    # The first group's size; the rest, if any, form a second group.
    cut = draw(st.integers(max(1, len(measured) - 5), min(5, len(measured))))
    groups = []
    for qubits in filter(None, (measured[:cut], measured[cut:])):
        k = len(qubits)
        kind = draw(st.sampled_from(["dense", "phased-permutation", "ragged"]))
        if kind == "dense":
            blocks = [1 << k]
        elif kind == "phased-permutation":
            blocks = [1] * (1 << k)
        else:
            cuts = sorted(draw(st.sets(st.integers(1, (1 << k) - 1), max_size=3)))
            blocks = np.diff([0, *cuts, 1 << k]).tolist()
        labels = tuple(tuple((i >> (k - 1 - j)) & 1 for j in range(k)) for i in range(1 << k))
        basis = sv.MeasurementBasis(k, _block_basis(k, blocks, rng))
        groups.append(MeasurementGroup(tuple(qubits), basis, labels))
    pattern = GatePattern(
        name="random",
        num_qubits=num_qubits,
        input_wires=inputs,
        resources=tuple(resources),
        groups=tuple(groups),
        output_wires=outputs,
        target=random_unitary(1 << num_inputs, rng),
    )
    validate_pattern(pattern)
    return pattern


def sampled_verdict(report: oracle.VerificationReport, fidelity_tol: float = sv.FIDELITY_TOL) -> bool:
    """The verdict verification read off its sampled grid before it became
    exact: the minimum fidelity over the default inputs within
    ``fidelity_tol`` of 1, each input's outcome probabilities summing to 1
    within SUM_TOL, and no zero-probability outcome unless the report is a
    loss demonstration."""
    return bool(
        report.min_fidelity >= 1.0 - fidelity_tol
        and (not report.zero_probability_outcomes or report.loss_demo)
        and np.max(np.abs(report.probability_sums - 1.0)) <= sv.SUM_TOL
    )


def argsort_plan(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The contraction's nonzero plan from a stable argsort of each row's
    zero mask: each row's nonzero columns, then its zero columns, in column
    order, cut to the widest row's nonzero count; and the conjugated
    coefficients there."""
    nonzero = vectors != 0
    width = max(1, int(nonzero.sum(axis=1).max()))
    index = np.argsort(~nonzero, axis=1, kind="stable")[:, :width].copy()
    coeffs = np.take_along_axis(vectors, index, axis=1).conj()[:, :, None]
    return index, coeffs


def pattern_file_text(pattern: GatePattern) -> str:
    """A pattern file's text written as one document by ``json.dump``, plus
    a newline: the bytes the streamed pattern writer must reproduce."""
    fh = io.StringIO()
    json.dump(pattern_to_document(pattern), fh, indent=1, sort_keys=True)
    fh.write("\n")
    return fh.getvalue()


def shuffled_document(doc: dict, seed: int) -> dict:
    """A copy of a pattern document with each group's vectors, and its
    correction cells, in an order drawn from ``random.Random(seed)``."""
    doc = json.loads(json.dumps(doc))
    rng = random.Random(seed)
    for group in doc["groups"]:
        rng.shuffle(group["vectors"])
    if "corrections" in doc:
        rng.shuffle(doc["corrections"])
    return doc


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-minimized Frobenius distance between unit-normalized operators."""
    na = a / np.linalg.norm(a)
    nb = b / np.linalg.norm(b)
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(na, nb)))))


def parameterized_phase_form(
    k: complex, kt: complex, p: complex, m: complex, n: complex
) -> np.ndarray:
    """The closed form of the phased controlled-Z wiring's base outcome map,
    up to global phase."""
    return np.diag(
        [1.0, n * p * np.conj(kt), m * np.conj(k), -m * n * p * np.conj(k) * np.conj(kt)]
    ).astype(complex)


def phase_parameter_grid_search(points_per_axis: int = 5) -> tuple[float, tuple]:
    """The minimum phase-insensitive distance from the closed form to
    diag(1, 1, 1, i) over a grid of ``points_per_axis`` unit phases per
    parameter (5 parameters), and the arg-min assignment."""
    from telegate.gates import CPHASE

    phases = np.exp(2j * np.pi * np.arange(points_per_axis) / points_per_axis)
    best = (np.inf, ())
    for params in product(phases, repeat=5):
        dist = operator_distance(parameterized_phase_form(*params), CPHASE)
        if dist < best[0]:
            best = (dist, params)
    return best


def _identity_register_factors(pattern: GatePattern) -> list[np.ndarray]:
    """The factors whose broadcast product is the register of every
    computational-basis input, its qubits in measurement order: each group's
    qubits in group order, group after group, then the output wires in
    output order. The placed input identity comes first and each resource
    follows in resource order. Each factor has one axis per qubit, of size
    2 on its own qubits and 1 elsewhere, then its columns (d_in for the
    identity, 1 for a resource)."""
    dim = 1 << len(pattern.input_wires)
    qubits = [q for group in pattern.groups for q in group.qubits] + list(pattern.output_wires)
    axis = {q: i for i, q in enumerate(qubits)}

    def placed(wires: tuple[int, ...], amps: np.ndarray, columns: int) -> np.ndarray:
        order = sorted(range(len(wires)), key=lambda i: axis[wires[i]])
        t = amps.reshape([2] * len(wires) + [columns]).transpose(order + [len(wires)])
        shape = [1] * len(qubits) + [columns]
        for q in wires:
            shape[axis[q]] = 2
        return t.reshape(shape)

    factors = [placed(pattern.input_wires, np.eye(dim, dtype=complex), dim)]
    factors += [placed(wires, state.amps, 1) for wires, state in pattern.resources]
    return factors


def _identity_register_rows(factors: list[np.ndarray], k: int, rows: np.ndarray) -> np.ndarray:
    """The register's rows at the given indices over its k leading qubits,
    as an array of shape (rows, 2, ..., 2, d_in): the input amplitude times
    each resource amplitude in resource order."""
    bits = (rows[:, None] >> np.arange(k - 1, -1, -1)) & 1
    t = None
    for factor in factors:
        own = [a for a in range(k) if factor.shape[a] == 2]
        at = bits[:, own] @ (1 << np.arange(len(own) - 1, -1, -1))
        part = factor.reshape(-1, *factor.shape[k:])[at]
        t = part if t is None else t * part
    return t


def _identity_contract(index: np.ndarray, coeffs: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The planned rows of a basis against an (outcomes, K, columns)
    register, every slot's product formed as term·coef and folded in plan
    slot order."""
    out = None
    for s in range(index.shape[1]):
        term = np.take(flat, index[:, s], axis=1) * coeffs[:, s]
        out = term if out is None else out + term
    return out


def identity_register_maps(pattern: GatePattern) -> np.ndarray:
    """Every outcome's map in outcome order, contracted the way the engine
    once did: the placed input identity times the resource states is one
    register with a column per basis input, whose first group's basis rows
    stream in fixed chunks of 16 rows (chunking changes no sum), each chunk
    then going through every later group's nonzero plan. Zero terms of the
    identity stay in every sum, so a component can come out as -0.0."""
    factors = _identity_register_factors(pattern)
    dim = factors[0].shape[-1]
    (k, (index, coeffs)), *later = [(len(g.qubits), argsort_plan(g.basis.vectors)) for g in pattern.groups]
    row = dim << (factors[0].ndim - 1 - k)
    chunks = []
    for rows in oracle._blocks(len(index), 16):
        needed, at = np.unique(index[rows], return_inverse=True)
        chunk = _identity_register_rows(factors, k, needed).reshape(1, len(needed), row)
        chunk = _identity_contract(at.reshape(-1, index.shape[1]), coeffs[rows], chunk)
        for width, plan in later:
            chunk = _identity_contract(*plan, chunk.reshape(-1, 1 << width, chunk.shape[2] >> width))
        chunks.append(chunk.reshape(-1, chunk.shape[2] // dim, dim))
    return np.concatenate(chunks)


def classify(chunks: Iterable[np.ndarray], total: int) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct maps among consecutive chunks of ``total`` maps,
    in first-occurrence order, and each outcome's class (its position in
    that order), one bytes lookup per map, as ``oracle._classify`` did
    before it grouped maps by a numeric key. Maps are keyed by their bytes,
    so they share a class only if their bytes are equal: entries one ulp
    apart stay apart, and so would -0.0 and +0.0. Each distinct map is held
    once: its key is dropped as its bytes join the returned stack."""
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
    # Each key leaves as its bytes join the distinct maps, so every distinct
    # map is held once, not once as a key and once more in the stack.
    keys, data = list(firsts), bytearray()
    firsts.clear()
    for i, key in enumerate(keys):
        data += key
        keys[i] = None
    distinct = np.frombuffer(data, dtype=complex).reshape(-1, *shape)
    return distinct, classes


def wide_group_document(k: int) -> dict:
    """A pattern document whose one group measures k qubits in the
    computational basis: input wire 0 and the first k - 1 legs of a k-leg
    GHZ resource over qubits 1..k, whose last leg is the output. Its wiring
    is sound, so only a bound on the group's width can refuse it."""
    half = [2 ** -0.5, 0.0]
    return {
        "name": f"wide-group-{k}",
        "num_qubits": k + 1,
        "inputs": [0],
        "resources": [
            {"qubits": list(range(1, k + 1)), "terms": [
                {"coeff": half, "bits": "0" * k}, {"coeff": half, "bits": "1" * k},
            ]},
        ],
        "groups": [
            {"qubits": list(range(k)), "vectors": [
                {"label": [i], "terms": [{"coeff": [1.0, 0.0], "bits": format(i, f"0{k}b")}]}
                for i in range(1 << k)
            ]},
        ],
        "outputs": [k],
        "target": {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    }


def reused_resource_document(count: int, width: int) -> dict:
    """The phase document on width + 1 qubits with ``count`` resources that
    all prepare qubits 1..width, each from one term of coefficient 2: only
    the claim of its qubits can refuse the second before its state is
    built."""
    doc = pattern_to_document(catalog.phase_gate_pattern())
    doc["num_qubits"] = width + 1
    resource = {"qubits": list(range(1, width + 1)), "terms": [{"coeff": [2.0, 0.0], "bits": "0" * width}]}
    doc["resources"] = [resource] * count
    return doc


def reused_group_document(count: int, width: int) -> dict:
    """:func:`wide_group_document` with its group listed ``count`` times,
    each measuring qubits 0..width-1."""
    doc = wide_group_document(width)
    doc["groups"] *= count
    return doc


def teleports_document(num_wires: int, target: np.ndarray) -> dict:
    """``num_wires`` single-qubit teleports side by side as one uncorrected
    document aimed at ``target`` with the full vocabulary: wire i's input
    is qubit 3i and its pair sits on 3i + 1 and 3i + 2, the output. Every
    outcome map is a Pauli string, so each needed recovery is the target
    times a Pauli string."""
    one = catalog.single_qubit_pattern(np.eye(2))

    def moved(qubits, wire):
        return tuple(q + 3 * wire for q in qubits)

    wires = range(num_wires)
    pattern = GatePattern(
        name=f"teleports-{num_wires}",
        num_qubits=3 * num_wires,
        input_wires=tuple(3 * i for i in wires),
        resources=tuple((moved(q, i), state) for i in wires for q, state in one.resources),
        groups=tuple(
            MeasurementGroup(moved(g.qubits, i), g.basis, g.labels) for i in wires for g in one.groups
        ),
        output_wires=tuple(3 * i + 2 for i in wires),
        target=np.asarray(target, dtype=complex),
        vocabulary="full",
    )
    validate_pattern(pattern)
    return pattern_to_document(pattern)
