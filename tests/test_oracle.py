"""Oracle behaviour: enumeration, derivation, verification, loss, parity."""
import dataclasses
import functools
import hashlib
import os
import subprocess
import sys
from itertools import combinations, product, zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telegate import catalog, oracle, reports, tables
from telegate import statevec as sv
from telegate.gates import CPHASE, CZ, HADAMARD, random_state
from telegate.patterns import (
    CorrectionOp,
    CorrectionTable,
    GatePattern,
    MeasurementGroup,
    PatternFormatError,
    pattern_from_document,
    pattern_to_document,
    validate_pattern,
)

from reference import (
    argsort_plan,
    classify as reference_classify,
    dense_maps,
    identity_register_maps,
    operator_distance,
    parameterized_phase_form,
    phase_parameter_grid_search,
    project,
    ragged_basis,
    random_unitary,
    linear_words_by_rows,
    reference_dictionary,
    sampled_verdict,
    small_patterns,
    two_stage_names,
)


def plus_state():
    return sv.from_ket_expression(1, [(1, "0"), (1, "1")])


class TestEnumeration:
    def test_phase_gate_on_plus_gives_uniform_quarters(self):
        records = oracle.enumerate_outcomes(catalog.phase_gate_pattern(), plus_state())
        assert len(records) == 4
        for record in records:
            assert record.probability == pytest.approx(0.25, abs=1e-12)
            assert record.corrected_state is not None

    def test_records_in_label_order(self):
        records = oracle.enumerate_outcomes(catalog.phase_gate_pattern(), plus_state())
        assert [r.labels for r in records] == sorted(r.labels for r in records)

    def test_pre_correction_states_match_reference_columns(self):
        # The branch outputs written over input amplitudes (a, b) must match
        # the shipped reference states for the phase and pi8 constructions.
        rng = np.random.default_rng(3)
        amps = random_state(1, rng, 0.1)
        state = sv.StateVector(1, amps)
        for pattern, maps in (
            (catalog.phase_gate_pattern(), tables.PHASE_TABLE_STATES),
            (catalog.pi8_gate_pattern(), tables.PI8_TABLE_STATES),
        ):
            records = oracle.enumerate_outcomes(pattern, state)
            for record, m in zip(records, maps):
                expected = m @ amps
                expected = expected / np.linalg.norm(expected)
                fid = abs(np.vdot(expected, record.pre_correction_state.amps))
                assert fid == pytest.approx(1.0, abs=1e-12)

    def test_cz_enumeration_all_nonzero(self):
        pattern = catalog.controlled_z_pattern("h")
        state = sv.from_ket_expression(2, [(1, "00"), (1, "11")])
        records = oracle.enumerate_outcomes(pattern, state)
        assert len(records) == 64
        assert all(r.probability > 1e-12 for r in records)

    def test_input_size_mismatch_rejected(self):
        with pytest.raises(sv.UsageError):
            oracle.enumerate_outcomes(
                catalog.phase_gate_pattern(), sv.from_ket_expression(2, [(1, "00")])
            )

    def test_no_table_gives_no_corrected_state(self):
        # A pattern may ship no table: its outcomes are enumerated uncorrected.
        pattern = catalog.phase_gate_pattern()
        records = oracle.enumerate_outcomes(pattern.with_corrections(None), plus_state())
        assert all(r.corrected_state is None and r.pre_correction_state for r in records)

    def test_annihilated_branches_flagged_as_zero_probability(self):
        # The mismatched controlled-Z configuration kills the inner input
        # components, so a pure |01> input never reaches aligned outcomes.
        pattern = catalog.build_pattern("cz-mismatched")
        records = oracle.enumerate_outcomes(pattern, sv.from_ket_expression(2, [(1, "01")]))
        aligned = [r for r in records if r.labels == ((0, 0, "+"), (0, 0, "+"))]
        assert aligned[0].probability <= 1e-12
        assert aligned[0].pre_correction_state is None


class TestEnumerationAgainstNaivePath:
    """The batched executor checked against an independent slow path:
    register assembly by explicit index arithmetic and one-vector-at-a-time
    sequential projections."""

    @staticmethod
    def _naive_register(pattern, input_state):
        n = pattern.num_qubits
        pieces = [(pattern.input_wires, input_state.amps)]
        pieces += [(qubits, state.amps) for qubits, state in pattern.resources]
        amps = np.ones(1 << n, dtype=complex)
        for idx in range(1 << n):
            bits = format(idx, f"0{n}b")
            val = 1.0 + 0j
            for qubits, piece in pieces:
                sub = int("".join(bits[q] for q in qubits), 2)
                val *= piece[sub]
            amps[idx] = val
        return sv.StateVector(n, amps)

    @classmethod
    def _naive_records(cls, pattern, input_state):
        from itertools import product as iproduct

        start = cls._naive_register(pattern, input_state)
        results = {}
        for combo in iproduct(*(range(g.size) for g in pattern.groups)):
            state = start
            positions = list(range(pattern.num_qubits))
            prob = 1.0
            alive = True
            for gi, idx in enumerate(combo):
                group = pattern.groups[gi]
                local = tuple(positions.index(q) for q in group.qubits)
                vector = sv.StateVector(group.basis.num_qubits, group.basis.vectors[idx])
                p, post = project(state, vector, local)
                prob *= p
                if post is None:
                    alive = False
                    break
                positions = [
                    q for j, q in enumerate(positions) if j not in set(local)
                ]
                state = post
            key = tuple(pattern.groups[gi].labels[idx] for gi, idx in enumerate(combo))
            if not alive:
                results[key] = (prob, None)
                continue
            perm = [positions.index(w) for w in pattern.output_wires]
            amps = state.amps.reshape([2] * len(positions)).transpose(perm).reshape(-1)
            results[key] = (prob, amps)
        return results

    @pytest.mark.parametrize("name", ["phase", "cz", "chain-cz-2", "triple-cz"])
    def test_matches_batched_executor(self, name):
        # chain-cz n=2 and triple-cz contract two and three groups of
        # four and three qubits.
        pattern = (
            catalog.chain_cz_pattern(2) if name == "chain-cz-2" else catalog.build_pattern(name)
        )
        rng = np.random.default_rng(21)
        state = sv.StateVector(
            len(pattern.input_wires), random_state(len(pattern.input_wires), rng)
        )
        fast = oracle.enumerate_outcomes(pattern, state)
        slow = self._naive_records(pattern, state)
        assert len(fast) == len(slow)
        for record in fast:
            prob, amps = slow[record.labels]
            assert record.probability == pytest.approx(prob, abs=1e-12)
            if record.pre_correction_state is None:
                assert amps is None or prob <= 1e-12
            else:
                fid = abs(np.vdot(amps, record.pre_correction_state.amps))
                assert fid == pytest.approx(1.0, abs=1e-10)


def _stack(maps):
    """Every outcome's map, in outcome-key order, as one array."""
    return maps.distinct[maps.classes]


def _reps(classes):
    """The first outcome of each class, in class order: classes are numbered
    in first-occurrence order."""
    return np.unique(classes, return_index=True)[1]


class TestOutcomeMaps:
    @pytest.mark.parametrize("name", ["phase", "cnot", "triple-cz"])
    def test_mapping_follows_outcome_keys_and_stack(self, name):
        pattern = catalog.build_pattern(name)
        maps = oracle.outcome_maps(pattern)
        keys = list(pattern.layout)
        assert list(maps) == keys
        assert len(maps) == len(keys) == len(maps.classes)
        dim_in = 1 << len(pattern.input_wires)
        assert maps.distinct.shape == (maps.classes.max() + 1, 1 << pattern.num_outputs, dim_in)
        stack = _stack(maps)
        for i, key in enumerate(keys):
            assert np.array_equal(maps[key], stack[i])
        assert [k for k, _ in maps.items()] == keys
        assert all(np.array_equal(m, stack[i]) for i, m in enumerate(maps.values()))

    def test_unknown_keys_are_absent_and_maps_read_only(self):
        pattern = catalog.phase_gate_pattern()
        maps = oracle.outcome_maps(pattern)
        for key in (((9,),), ((1,), (1,)), (1,), "1", ([1],)):
            assert key not in maps
        with pytest.raises(KeyError):
            maps[((9,),)]
        with pytest.raises(ValueError):
            maps[((1,),)][0, 0] = 0

    def test_contracted_once_per_pattern_object(self, monkeypatch):
        calls = []
        contract = oracle._map_chunks
        monkeypatch.setattr(oracle, "_map_chunks", lambda *a: calls.append(1) or contract(*a))
        pattern = catalog.cnot_pattern()
        maps = oracle.outcome_maps(pattern)
        assert oracle.outcome_maps(pattern) is maps
        assert len(calls) == 1
        retargeted = pattern.with_target(pattern.target)
        assert oracle.outcome_maps(retargeted) is not maps
        assert np.array_equal(_stack(oracle.outcome_maps(retargeted)), _stack(maps))
        assert len(calls) == 2
        assert oracle.outcome_maps(pattern.with_corrections(None)) is maps
        assert len(calls) == 2

    def test_enumeration_reads_the_memoised_maps(self, monkeypatch):
        pattern = catalog.cnot_pattern()
        maps = oracle.outcome_maps(pattern)
        calls = []
        contract = oracle._map_chunks
        monkeypatch.setattr(oracle, "_map_chunks", lambda *a: calls.append(1) or contract(*a))
        state = sv.from_ket_expression(2, [(1, "01"), (1j, "10")])
        records = oracle.enumerate_outcomes(pattern, state)
        assert calls == []
        for record, m in zip(records, maps.values()):
            branch = m @ state.amps
            assert record.probability == pytest.approx(np.vdot(branch, branch).real, abs=1e-15)

    @staticmethod
    def _crafted(*rows, cut=2):
        # The phase pattern has four outcomes of 2x2 maps, classed here in
        # two chunks the way the contraction streams them.
        rows = np.array(rows, dtype=complex)
        chunks = [rows[:cut], rows[cut:]]
        return oracle.OutcomeMaps(catalog.phase_gate_pattern(), *oracle._classify(chunks, len(rows)))

    def test_bitwise_equal_maps_share_a_class_in_first_occurrence_order(self):
        a, b = np.eye(2), np.array([[0, 1], [1, 0]])
        for cut in (1, 2, 3):
            maps = self._crafted(b, a, b, a, cut=cut)
            assert _reps(maps.classes).tolist() == [0, 1]
            assert maps.classes.tolist() == [0, 1, 0, 1]
            assert np.array_equal(maps.distinct, [b, a])

    @pytest.mark.parametrize("make", [
        lambda: catalog.chain_cz_pattern(3), lambda: catalog.build_pattern("triple-cz"),
    ], ids=["chain-cz-3", "triple-cz"])
    def test_classes_are_exactly_the_distinct_maps(self, make):
        maps = oracle.outcome_maps(make())
        classes = maps.classes
        reps = _reps(classes)
        words = _stack(maps).reshape(len(maps), -1).view(np.uint64)
        _, first, inverse = np.unique(words, axis=0, return_index=True, return_inverse=True)
        assert len(reps) == len(first) < len(maps)
        assert reps.tolist() == sorted(first.tolist())
        # Same partition as the exact row comparison, and each class's
        # first outcome is its representative.
        assert np.array_equal(inverse.reshape(-1)[reps][classes], inverse.reshape(-1))
        assert [int(np.argmax(classes == c)) for c in range(len(reps))] == reps.tolist()

    def test_signed_zeros_and_one_ulp_stay_apart(self):
        a = np.array([[1.0, 0.0], [0.0, 0.5]])
        negzero = a * np.array([[1, -1], [1, 1]])
        ulp = a.copy()
        ulp[1, 1] = np.nextafter(0.5, 1.0)
        assert np.array_equal(negzero, a)
        classes = self._crafted(a, negzero, ulp, a).classes
        assert _reps(classes).tolist() == [0, 1, 2]
        assert classes.tolist() == [0, 1, 2, 0]

    def test_per_map_arithmetic_runs_once_per_distinct_map(self, monkeypatch):
        # One facts pass (one Gram matrix per distinct map) serves
        # derivation, verification and the loss check of a pattern object.
        passes = []
        facts = oracle.MapFacts
        monkeypatch.setattr(
            oracle, "MapFacts", lambda distinct: passes.append(len(distinct)) or facts(distinct)
        )
        pattern = catalog.chain_cz_pattern(3)
        table = oracle.derive_corrections(pattern)
        assert passes == [32]
        oracle.verify_pattern(pattern, corrections=table)
        oracle.detect_information_loss(pattern)
        assert len(pattern.layout) == 1024
        assert passes == [32]

    @pytest.mark.parametrize("fmt,shown", [("text", 4), ("json", 8)])
    def test_verify_ranks_only_the_classes_it_prints(
        self, monkeypatch, fredkin_partial, fmt, shown
    ):
        # The failed derivation names the first four outcomes (JSON lists
        # the first eight); only their classes' ranks are computed.
        from telegate.cli import main

        pattern, _, failures = fredkin_partial
        printed = np.unique(oracle.outcome_maps(pattern).classes[failures.positions[:shown]])
        ranked = []
        svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda m, compute_uv: ranked.append(m.copy()) or svd(m, compute_uv=compute_uv)
        )
        assert main(["verify", "--pattern", "fredkin", "--format", fmt]) == 1
        assert 0 < len(printed) < len(oracle.outcome_maps(pattern).distinct)
        # Each printed class is ranked once, and no other map is.
        expected = oracle.outcome_maps(pattern).distinct[printed]
        assert sorted(m.tobytes() for m in np.concatenate(ranked)) == sorted(
            m.tobytes() for m in expected
        )


# Every catalog pattern with its default arguments.
CATALOG_NAMES = [name for name in catalog.catalog_entries() if name != "chain-cz"]


def _catalog_pattern(name):
    if name.startswith("chain-cz-"):
        return catalog.chain_cz_pattern(int(name.rsplit("-", 1)[1]))
    return catalog.build_pattern(name)


def _dense_basis_pattern(name, seed):
    """The named pattern's document with group 0's basis replaced by the
    rows of a random unitary, so every row has 2^k nonzero amplitudes."""
    doc = pattern_to_document(catalog.build_pattern(name))
    group = doc["groups"][0]
    k = len(group["qubits"])
    unitary = random_unitary(1 << k, np.random.default_rng(seed))
    for vector, row in zip(group["vectors"], unitary):
        vector["terms"] = [
            {"coeff": [z.real, z.imag], "bits": format(i, f"0{k}b")} for i, z in enumerate(row)
        ]
    pattern = pattern_from_document(doc)
    assert (pattern.groups[0].basis.vectors != 0).all()
    return pattern


CONTRACTED = {
    **{
        name: lambda name=name: _catalog_pattern(name)
        for name in CATALOG_NAMES + [f"chain-cz-{n}" for n in range(1, 6)]
    },
    "phase-dense-basis": lambda: _dense_basis_pattern("phase", 3),
    "cz-dense-basis": lambda: _dense_basis_pattern("cz", 4),
}


class TestSparseContraction:
    """The streamed contraction over basis nonzeros against a dense matmul
    of every group's basis on the whole register (``reference.dense_maps``)."""

    # A K-term sum of products of entries bounded by 1 in magnitude; groups
    # here have K <= 32 columns, each term rounding by about one ulp.
    TOL = 64 * np.finfo(float).eps

    @pytest.mark.parametrize("name", sorted(CONTRACTED))
    def test_matches_dense_reference(self, name):
        pattern = CONTRACTED[name]()
        maps = _stack(oracle.outcome_maps(pattern))
        dense = dense_maps(pattern)
        assert maps.shape == dense.shape
        np.testing.assert_allclose(maps, dense, rtol=0, atol=self.TOL)

    @pytest.mark.parametrize("budget", [1, 5, 37])
    @pytest.mark.parametrize("name", ["chain-cz-3", "triple-cz", "cz-dense-basis"])
    def test_gather_budget_does_not_change_results(self, monkeypatch, name, budget):
        # Budgets narrower than one register row stream the first group one
        # basis row at a time, and each step gathers and writes its chunk's
        # whole output at once. Every entry is still the same sum over the
        # same plan slots in the same order, so the bits do not move.
        exact = oracle.outcome_maps(CONTRACTED[name]())
        monkeypatch.setattr(oracle, "_GATHER", budget)
        sizes = []
        stream = oracle._map_chunks
        monkeypatch.setattr(
            oracle, "_map_chunks", lambda p: (sizes.append(len(c)) or c for c in stream(p))
        )
        pattern = CONTRACTED[name]()
        chunked = oracle.outcome_maps(pattern)
        assert len(sizes) == pattern.groups[0].size
        assert chunked.distinct.tobytes() == exact.distinct.tobytes()
        assert np.array_equal(chunked.classes, exact.classes)

    @settings(max_examples=80, deadline=None)
    @given(small_patterns())
    def test_random_patterns_match_dense_reference(self, pattern):
        np.testing.assert_allclose(
            _stack(oracle.outcome_maps(pattern)), dense_maps(pattern), rtol=0, atol=self.TOL
        )

    @settings(max_examples=50, deadline=None)
    @given(small_patterns())
    def test_gather_budget_does_not_change_random_patterns(self, pattern):
        # Budgets this small make most register rows wider than the budget,
        # where each step gathers and writes a whole one-row chunk at once.
        exact = oracle.outcome_maps(pattern)
        for budget in (1, 5, 37):
            with mock.patch.object(oracle, "_GATHER", budget):
                narrow = oracle.outcome_maps(pattern.with_target(pattern.target))
            assert narrow.distinct.tobytes() == exact.distinct.tobytes()
            assert narrow.classes.tobytes() == exact.classes.tobytes()

    def test_rows_of_unequal_width(self):
        # Rows padded with zero coefficients up to the widest row's count.
        rng = np.random.default_rng(5)
        vectors = random_unitary(4, rng)
        vectors[0] = [1, 0, 0, 0]
        vectors[2, 1:3] = 0
        flat = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
        [(index, coeffs)] = oracle._pinned_plans(sv.MeasurementBasis(2, vectors), (0, 1), {})
        assert index.shape == (4, 4)
        np.testing.assert_allclose(
            oracle._contract(index, coeffs, flat, {}, 2), vectors.conj() @ flat,
            rtol=0, atol=self.TOL,
        )
        # A chunk of the plan's rows contracts those rows alone, bit for bit,
        # and each direct call writes into a workspace of its own.
        whole = oracle._contract(index, coeffs, flat, {}, 2)
        part = oracle._contract(index[1:3], coeffs[1:3], flat, {}, 2)
        assert not np.shares_memory(part, whole)
        assert np.array_equal(part, whole[:, 1:3])


def _plan_cases():
    """(basis, qubits, wire) for every catalog group and every chain-cz
    group, each with its pattern's input-wire map, and for the ragged basis
    with zero input wires, in name order, then with one and with two."""
    cases = {}

    def add(name, pattern):
        inputs = pattern.input_wires
        wire = {w: len(inputs) - 1 - i for i, w in enumerate(inputs)}
        for gi, group in enumerate(pattern.groups):
            cases[f"{name}-{gi}"] = group.basis, group.qubits, wire

    for name in catalog.catalog_entries():
        add(name, catalog.build_pattern(name))
    for n in range(1, 9):
        add(f"chain-cz-{n}", catalog.chain_cz_pattern(n))
    cases["ragged"] = ragged_basis(), (0, 1, 2), {}
    cases = dict(sorted(cases.items()))
    for wire in ({1: 0}, {2: 1, 0: 0}):
        cases[f"ragged-{len(wire)}"] = ragged_basis(), (0, 1, 2), wire
    return cases


_PLAN_CASES = _plan_cases()


@pytest.mark.parametrize("name, basis", [(name, case[0]) for name, case in _PLAN_CASES.items()])
def test_plan_equals_the_argsort_plan(name, basis):
    # Each pin's plan leads with the argsort plan's nonzero slots whose
    # columns hold the pin, in slot order, each column read on the other
    # qubits and each coefficient the same to the bit; every spare slot
    # has coefficient +0.0.
    _, qubits, wire = _PLAN_CASES[name]
    expected_index, expected_coeffs = argsort_plan(basis.vectors)
    expected_coeffs = expected_coeffs[:, :, 0]
    bits = (expected_index[..., None] >> np.arange(len(qubits) - 1, -1, -1)) & 1
    held = np.array([q in wire for q in qubits], dtype=bool)
    others = [1 << i for i in range(np.count_nonzero(~held) - 1, -1, -1)]
    plans = oracle._pinned_plans(basis, qubits, wire)
    assert len(plans) == 1 << len(wire)
    shared = {}
    for c, (index, coeffs) in enumerate(plans):
        pin = tuple((c >> wire[q]) & 1 for q in qubits if q in wire)
        assert shared.setdefault(pin, index) is index
        keep = (expected_coeffs != 0) & (bits[..., held] == pin).all(axis=2)
        counts = keep.sum(axis=1)
        assert index.shape == coeffs.shape == (basis.size, max(1, counts.max()))
        for r, n in enumerate(counts):
            columns = [sum(int(b) * w for b, w in zip(col, others)) for col in bits[r][keep[r]][:, ~held]]
            assert index[r, :n].tolist() == columns
            assert coeffs[r, :n].tobytes() == expected_coeffs[r][keep[r]].tobytes()
            assert coeffs[r, n:].tobytes() == bytes(16 * (index.shape[1] - n))


def test_pinned_plans_read_only_entries_and_size():
    # A stand-in without ``vectors`` plans as the basis itself does.
    basis = ragged_basis()
    stand_in = type("Entries", (), {"entries": basis.entries, "size": basis.size})()
    for wire in ({}, {1: 0}, {2: 1, 0: 0}):
        planned = oracle._pinned_plans(basis, (0, 1, 2), wire)
        for got, want in zip_longest(oracle._pinned_plans(stand_in, (0, 1, 2), wire), planned):
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


# sha256 of each pattern's maps in outcome order, of its class
# representatives and of its classes (the bytes of the int64 arrays),
# recorded when every outcome's map was contracted into one stacked array.
MAP_DIGESTS = {
    "single-qubit": (
        "57a169d41347794da2a7e222a87eeed8425ae06d23c1c40fb36ef79d6e33b800",
        "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
        "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
    ),
    "phase": (
        "fe5b1e84969c1438dc34f929cf32c0cb1e791c6985092071638b6fc15eedfd0a",
        "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
        "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
    ),
    "pi8": (
        "15eb0f8241e1b1290fcc5ec33dacb3ea8b2e90a2bdc56c403a509c8b4256f7e8",
        "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
        "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
    ),
    "cz": (
        "95a73da22fa223e928e13e9514bb21d0f5417b2624e9fe9a51330a3d43ce76a7",
        "9a995c63b4327e47b336fc66e1df3a747d8181652c2e5152ca3220890e27f9ae",
        "1f230be5e62135e22db211ddf5b6835bcaa11e6d85a8d21d498be78685739035",
    ),
    "cz-mismatched": (
        "1332cff463e51d4c9e6f1f2d166b3d16d0bf28401a7b8333460839394295d3ff",
        "de768b908410f083c01b52a93694ce5842aa690f4bc71eeea36b85826a82d9c3",
        "b23d6998f4f0e651b0e6142178eace8c8ecd4981a10dd81f0486fb5e960897a7",
    ),
    "cz-no-ee": (
        "0905f3f7483c7217da4da28b49bba0b0a81f71cce5fe445808abb4f625292e6c",
        "3f17c53ef4fe64027625fe376a8dd1fe3d2e50b1037946e6fc3b738198159d54",
        "cff03bccd8cc4653bf25d1c9a42f2da7d3c76882929e500ea989575ad07d87f2",
    ),
    "triple-cz": (
        "660e6b96249f283837c2ca6600584c796d660b634f04520f1c1989b9dd76fb5b",
        "ebaf00a42c79edcc2c97dee0bab916194216dca8fbc062fd2bd385fb5c4c5240",
        "97c04aa81c764bfc9fba8422cec8e3794dc43f28a7e37e3b55c0fdc6df7eca73",
    ),
    "controlled-phase": (
        "dcc301ba65edb74916eb9f0cb6cad2948c4858fb9f2c090a932f310386e4795b",
        "8c92c6c1b73ac7d8b2cff6b5446f50e6a4125605c6143ee7519f72ff3396ea94",
        "bd95475873be7ea2d542f90aa653f6df20e0dd17a9d23789abd558dda0d69090",
    ),
    "cnot": (
        "8ba99f49a8a4be33511f79d357b4a0c85c988c107baf2328d5719e2fe72f16e6",
        "76138228b45193e72cd990aa010fb8e05ed13e1ed7f5cefc241cfa1d815f2499",
        "bf780d4aae61c8a933a498487270887f4ab1e417d3cd9934b7b7f2b551c48482",
    ),
    "swap": (
        "90d8cedcfb86fd73c8cd143cf1a44e7d34fc205e7d15ac63e2eec3bfaf29793e",
        "76138228b45193e72cd990aa010fb8e05ed13e1ed7f5cefc241cfa1d815f2499",
        "7f4ff24b96317754290ef7619ce8d7ce719430563eed9418958142d7119d0cd5",
    ),
    "toffoli": (
        "9fb6df5a44cbbd5814e4913ca5d44454db4655ea9823b720630dd4ff3d8e3eba",
        "6e8d0812de7f28591fa1393fea274ea7cbe268cf96a5fa317cc4e9b65e597aaf",
        "4c1c74fcbb6aaf5eb1800e3f88c8bb35792a13bd1a4366e45c2d07099f9680ac",
    ),
    "fredkin": (
        "ffc5ac5bebfc87e019a6b0bb72c49391f6b10616096c2581c365301dc0f386dd",
        "b170170b0613ff85939053fedbb2fc5592e1e1e0006e1e25d7da88cb7c8a6984",
        "b47a023f4b4a6263952d746fda84c9ae56f9ed980d5121aa27077d253c7cf13f",
    ),
    "chain-cz-1": (
        "95a73da22fa223e928e13e9514bb21d0f5417b2624e9fe9a51330a3d43ce76a7",
        "9a995c63b4327e47b336fc66e1df3a747d8181652c2e5152ca3220890e27f9ae",
        "1f230be5e62135e22db211ddf5b6835bcaa11e6d85a8d21d498be78685739035",
    ),
    "chain-cz-2": (
        "16ccec71d37fed1995ba38df9ecf351410a252494e4011693cada479f36da453",
        "23c9c67d8107f78f2dd79643e31fa203f02e91c8d132a0e66e31138e98d43ef7",
        "521ef4d38586ec704561f4e069278b5d6e09a5023ccf8d3f83c1432772ade136",
    ),
    "chain-cz-3": (
        "99caf8ba76be4b4790e32beda670942763d39d14c96d1f67354e03558216c8bf",
        "19dddf0963701de35d246ccc96c7f8623e610c506dd848662a5637a7f5df0c35",
        "7489e3a4b7b41270383a13106a21542f06e827f8ed3f091adbab0f61ddc5b8ca",
    ),
    "chain-cz-4": (
        "6d4293406efe8e9356fb32efd7c0a865244f99765f2c9491a038e30a5731e8d0",
        "7ec0a4cd91afce08503eb5145fe217d160bbc61bf3c2d0ba48a23cedad964d2c",
        "d49f5822affb74a71b2d0d7139e74e77f7eb6d1303f26404846ff0d190d98454",
    ),
    "chain-cz-5": (
        "0934b1c17017539602f6f7e5b1b3f67520b127590cf44a5881b8286d04e8f939",
        "f237e672b62d87dd2039f11347f8a7f423337bb9da993f14873bec9ad3c381a4",
        "911a9067fe6725e47f314aaf84cbb86d21bb7c0cfabdca4dabb9692ac2eef8c0",
    ),
    "chain-cz-6": (
        "ca8d18de4afbfadd8d71608683a1e8bbdb97704a01f109c1c13e599ae07d338c",
        "ae90c8e6364cca10fce0e1fbce31e55f7aacfb5f5dfe8403f97cb4ecf9dde2c6",
        "4325406dfdc4d6e1ec570a8a079accc500d55d0706a60261b9dd6c003e1f07c9",
    ),
    # Recorded from the stream that contracted the input identity's register
    # (reference.identity_register_maps), before each basis input was
    # contracted on its own.
    "chain-cz-7": (
        "fb0496d9610b810beff1b5d801bfb621f6361d4752a99c3dedd531d33adade32",
        "0e0e6e0659580c6731f7a1854d68e823956517babc8c6172b96349bb47af2067",
        "ce5aad35bcfdcaffd04436eae300c8b93d84bf4eb73623bf52490120d1a1f746",
    ),
}


class TestBitExactMaps:
    @pytest.mark.parametrize("name", sorted(MAP_DIGESTS))
    def test_maps_and_classes_match_the_stacked_contraction(self, name):
        maps = oracle.outcome_maps(_catalog_pattern(name))
        got = tuple(
            hashlib.sha256(array.tobytes()).hexdigest()
            for array in (_stack(maps), _reps(maps.classes), maps.classes)
        )
        assert got == MAP_DIGESTS[name]

    def test_peak_memory_stays_near_the_register(self):
        # chain-cz n=7's input identity times its resources would be a
        # 20-qubit register over 4 basis inputs: 64 MiB. Each basis input is
        # contracted on its own against the resource register over the 18
        # other qubits, 4 MiB, built once per stream, and the chunks go
        # through a workspace of a few gather blocks, so the whole
        # contraction peaks well below that identity register.
        import tracemalloc

        pattern = catalog.chain_cz_pattern(7)
        register = (1 << pattern.num_qubits) * 4 * 16
        tracemalloc.start()
        try:
            oracle.outcome_maps(pattern)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= register / 3

    @pytest.mark.parametrize("make", [
        catalog.fredkin_pattern, catalog.toffoli_pattern, CONTRACTED["cz-dense-basis"],
    ], ids=["fredkin", "toffoli", "cz-dense-basis"])
    def test_working_set_stays_a_few_gather_blocks(self, make):
        # Each chunk of the first group's basis rows produces at most
        # _GATHER amplitudes, the register these patterns build once is
        # smaller than that (128 KiB for fredkin), and each step's input
        # goes once the next step has it, so the contraction holds a few
        # such blocks besides the distinct maps it keeps (2 MiB for fredkin).
        import tracemalloc

        pattern = make()
        tracemalloc.start()
        try:
            oracle.outcome_maps(pattern)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * oracle._GATHER * 16

    def test_distinct_maps_are_held_once(self):
        # fredkin keeps 2048 distinct 8x8 maps, 2 MiB. Holding each one both
        # as a key of the class table and in the stack joined from those
        # keys took the contraction's peak to 4.9 MiB.
        import tracemalloc

        pattern = catalog.fredkin_pattern()
        tracemalloc.start()
        try:
            maps = oracle.outcome_maps(pattern)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert maps.distinct.nbytes == 2 << 20
        assert peak < 4 << 20


class TestPinnedContraction:
    """Each basis input contracted on its own, its input wires pinned,
    against the stream that contracted the input identity's register
    (``reference.identity_register_maps``): every nonzero component is the
    same sum less its zero terms, so the bytes are equal once 0.0 is added
    to the reference, which turns its -0.0 components into +0.0."""

    @staticmethod
    def _streamed(pattern):
        return np.concatenate([chunk.copy() for chunk in oracle._map_chunks(pattern)])

    @staticmethod
    def _has_negative_zero(maps):
        parts = maps.view(float)
        return bool(np.signbit(parts[parts == 0]).any())

    @pytest.mark.parametrize("name", sorted(CONTRACTED))
    def test_catalog_equals_the_identity_register(self, name):
        pattern = CONTRACTED[name]()
        expected = identity_register_maps(pattern) + 0.0
        assert self._streamed(pattern).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(small_patterns())
    def test_random_patterns_equal_the_identity_register(self, pattern):
        # small_patterns has outputs on input wires, single groups and dense
        # bases; one-row chunks of a one-amplitude register make products
        # of one entry, which numpy rounds in a loop of its own.
        expected = (identity_register_maps(pattern) + 0.0).tobytes()
        for budget in (oracle._GATHER, 1):
            with mock.patch.object(oracle, "_GATHER", budget):
                assert self._streamed(pattern).tobytes() == expected

    def test_group_less_pattern_passes_its_inputs_through(self):
        # No resources and no groups: each output wire is an input wire, so
        # the one map is the wire permutation.
        pattern = dataclasses.replace(
            catalog.phase_gate_pattern(), num_qubits=2, input_wires=(0, 1), resources=(),
            groups=(), output_wires=(1, 0), target=np.eye(4), corrections=None,
        )
        streamed = self._streamed(pattern).tobytes()
        assert streamed == np.eye(4, dtype=complex)[None, [0, 2, 1, 3]].tobytes()
        assert streamed == (identity_register_maps(pattern) + 0.0).tobytes()

    @pytest.mark.parametrize("name", sorted(CONTRACTED))
    def test_no_catalog_map_holds_negative_zero(self, name):
        assert not self._has_negative_zero(oracle.outcome_maps(CONTRACTED[name]()).distinct)

    @settings(max_examples=100, deadline=None)
    @given(small_patterns())
    def test_no_random_map_holds_negative_zero(self, pattern):
        assert not self._has_negative_zero(oracle.outcome_maps(pattern).distinct)


class TestWorkspace:
    def test_contraction_faults_in_no_fresh_block_per_chunk(self):
        # chain-cz n=7 builds its 4 MiB resource register once and streams
        # its maps in 64 chunks, each written into the stream's one
        # workspace of a few MiB, so the contraction takes a few thousand
        # minor page faults. Fresh arrays per chunk took over 30000 here,
        # the kernel zeroing each block again.
        child = (
            "import resource, telegate\n"
            "from telegate import catalog, oracle\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "oracle.outcome_maps(catalog.chain_cz_pattern(7))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert int(out.stdout) < 15000

    def test_interleaved_streams_keep_their_own_workspace(self, monkeypatch):
        # A yielded chunk is a view into its stream's workspace. Streams
        # advanced in turn, each chunk copied only after the other stream
        # has made its next one, give the bytes of one stream after the other.
        monkeypatch.setattr(oracle, "_GATHER", 1 << 8)
        patterns = [catalog.chain_cz_pattern(3), catalog.build_pattern("triple-cz")]
        copies = ([], [])
        for pair in zip_longest(*map(oracle._map_chunks, patterns)):
            for kept, chunk in zip(copies, pair):
                if chunk is not None:
                    kept.append(chunk.copy())
        assert min(map(len, copies)) > 1
        for pattern, chunks in zip(patterns, copies):
            got = oracle._classify(chunks, len(pattern.layout))
            alone = oracle._classify(oracle._map_chunks(pattern), len(pattern.layout))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in alone]


def _twins():
    """A 2x2 map and maps that differ from it only in one entry's bits: -0.0
    for +0.0, one ulp, and a NaN of either of two payloads."""
    base = np.array([[0.5 + 0.25j, 0.0], [0.0, -0.5j]])
    parts = np.repeat(base[None], 5, axis=0).view(float).reshape(5, -1)
    parts[1, 2] = -0.0
    parts[2, 0] = np.nextafter(0.5, 1.0)
    parts.view(np.uint64)[3:, 1] = [0x7FF8000000000001, 0x7FF8000000000002]
    return parts.view(complex).reshape(5, 2, 2)


class TestKeyedClassify:
    """``oracle._classify`` groups each chunk's maps by a numeric key and
    looks up by bytes only each group's first map and the maps that fail
    the bitwise confirmation. Its classes and distinct maps must be the
    bytes of one lookup per map (``reference.classify``), whatever the keys:
    with the weights set to zero every finite map's key collides, and only
    the confirmation keeps maps apart."""

    WEIGHTS = {"own": oracle._key_weights, "zero": lambda width: np.zeros(width)}

    @staticmethod
    def _assert_classes_equal_the_reference(chunks, total):
        got = oracle._classify(iter(chunks), total)
        expected = reference_classify(iter(chunks), total)
        assert got[0].shape == expected[0].shape
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("name", sorted(CONTRACTED))
    def test_catalog_classes_equal_the_reference(self, monkeypatch, name, weights):
        monkeypatch.setattr(oracle, "_key_weights", self.WEIGHTS[weights])
        pattern = CONTRACTED[name]()
        chunks = [chunk.copy() for chunk in oracle._map_chunks(pattern)]
        self._assert_classes_equal_the_reference(chunks, len(pattern.layout))

    @settings(max_examples=100, deadline=None)
    @given(small_patterns(), st.sampled_from(sorted(WEIGHTS)))
    def test_random_classes_equal_the_reference(self, pattern, weights):
        chunks = [chunk.copy() for chunk in oracle._map_chunks(pattern)]
        with mock.patch.object(oracle, "_key_weights", self.WEIGHTS[weights]):
            self._assert_classes_equal_the_reference(chunks, len(pattern.layout))

    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_bitwise_twins_stay_apart(self, monkeypatch, weights, cut):
        # Twins first met inside a chunk, across chunks, and after a map
        # that fails confirmation, so new classes open in position order.
        monkeypatch.setattr(oracle, "_key_weights", self.WEIGHTS[weights])
        a, negzero, ulp, nan1, nan2 = _twins()
        rows = np.array([a, negzero, ulp, a, nan1, nan2, negzero, nan1, ulp, a, nan2, a])
        chunks = [rows[lo:lo + cut] for lo in range(0, len(rows), cut)]
        self._assert_classes_equal_the_reference(chunks, len(rows))
        distinct, classes = oracle._classify(iter(chunks), len(rows))
        assert classes.tolist() == [0, 1, 2, 0, 3, 4, 1, 3, 2, 0, 4, 0]
        assert distinct.tobytes() == np.array([a, negzero, ulp, nan1, nan2]).tobytes()


class TestChunks:
    """The contraction builds the resource register once per stream and cuts
    the first group's basis rows into consecutive chunks whose maps hold at
    most ``_GATHER`` amplitudes, or one row's maps where those are wider."""

    @staticmethod
    def _assert_chunks_cover_the_rows(pattern):
        maps = _stack(oracle.outcome_maps(pattern))
        per_row = len(pattern.layout) // pattern.groups[0].size  # outcomes per basis row
        cap = max(oracle._GATHER, per_row * maps[0].size)
        start = 0
        for chunk in oracle._map_chunks(pattern):
            assert chunk.size <= cap
            assert len(chunk) and len(chunk) % per_row == 0
            # Rows start..end in order: the maps the whole stream gives there.
            assert chunk.tobytes() == maps[start:start + len(chunk)].tobytes()
            start += len(chunk)
        assert start == len(pattern.layout)

    @pytest.mark.parametrize("name", sorted(CONTRACTED))
    def test_catalog_chunks_stay_within_the_budget(self, name):
        self._assert_chunks_cover_the_rows(CONTRACTED[name]())

    @settings(max_examples=50, deadline=None)
    @given(small_patterns())
    def test_random_chunks_stay_within_the_budget(self, pattern):
        self._assert_chunks_cover_the_rows(pattern)

    @pytest.mark.parametrize("make, chunks, rows", [
        (catalog.fredkin_pattern, 8, 4),
        (lambda: catalog.chain_cz_pattern(7), 64, 8),
    ], ids=["fredkin", "chain-cz-7"])
    def test_chunk_counts(self, make, chunks, rows):
        # fredkin's 32 basis rows each hold 256 outcomes of 8x8 maps, 16384
        # amplitudes, so 4 rows fill the budget. Chunks that also counted
        # the register rows their plan read, input-wire bits included, held
        # 2 rows. chain-cz n=7's 512 rows each hold 8192 amplitudes.
        pattern = make()
        per_row = len(pattern.layout) // pattern.groups[0].size
        sizes = [len(chunk) for chunk in oracle._map_chunks(pattern)]
        assert sizes == [rows * per_row] * chunks

    def test_register_is_built_once_per_stream(self, monkeypatch):
        calls = []
        register = oracle._register
        monkeypatch.setattr(oracle, "_register", lambda p: calls.append(1) or register(p))
        chunks = sum(1 for _ in oracle._map_chunks(catalog.fredkin_pattern()))
        assert chunks > 1 and len(calls) == 1


def _four_group_pattern():
    """Three inputs read by groups 0, 1 and 2 of four, the last group
    reading resources alone, with dense, ragged and phased-permutation
    bases."""
    rng = np.random.default_rng(11)
    resources = []
    for wires in ((3, 4), (5, 6), (7, 8), (9, 10), (11, 12)):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        resources.append((wires, sv.StateVector(2, amps / np.linalg.norm(amps))))
    bases = [
        random_unitary(4, rng),
        ragged_basis().vectors,
        random_unitary(8, rng),
        np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))[rng.permutation(4)],
    ]
    groups = []
    for qubits, vectors in zip(((0, 3), (1, 4, 5), (2, 6, 7), (8, 9)), bases):
        k = len(qubits)
        labels = tuple(tuple((i >> (k - 1 - j)) & 1 for j in range(k)) for i in range(1 << k))
        groups.append(MeasurementGroup(qubits, sv.MeasurementBasis(k, vectors), labels))
    pattern = GatePattern(
        name="four-groups", num_qubits=13, input_wires=(0, 1, 2), resources=tuple(resources),
        groups=tuple(groups), output_wires=(10, 11, 12), target=random_unitary(8, rng),
    )
    validate_pattern(pattern)
    return pattern


class TestSharedSteps:
    """Basis inputs that share the plans of groups 0..g share those groups'
    steps, so each group's step runs once per distinct prefix of plans."""

    @pytest.mark.parametrize("make, steps", [
        (lambda: catalog.chain_cz_pattern(3), 6),
        (catalog.fredkin_pattern, 14),
        (catalog.toffoli_pattern, 14),
        (_four_group_pattern, 22),
    ], ids=["chain-cz-3", "fredkin", "toffoli", "four-groups"])
    def test_contract_calls_per_chunk(self, monkeypatch, make, steps):
        # chain-cz: 2 group-0 plans and 4 inputs, not 2 x 4 steps; fredkin
        # and toffoli: 2 + 4 + 8, not 3 x 8; four groups: 2 + 4 + 8 + 8.
        calls = []
        contract = oracle._contract
        monkeypatch.setattr(oracle, "_contract", lambda *a: calls.append(1) or contract(*a))
        chunks = sum(1 for _ in oracle._map_chunks(make()))
        assert len(calls) == steps * chunks

    @pytest.mark.parametrize("budget", [oracle._GATHER, 37, 1])
    def test_four_groups_equal_the_identity_register(self, budget):
        # Groups 0, 1 and 2 each keep their output while later groups run
        # for other inputs, so each needs a buffer of its own.
        pattern = _four_group_pattern()
        expected = (identity_register_maps(pattern) + 0.0).tobytes()
        with mock.patch.object(oracle, "_GATHER", budget):
            streamed = np.concatenate([chunk.copy() for chunk in oracle._map_chunks(pattern)])
        assert streamed.tobytes() == expected


def _full_grid_summaries(report):
    """The report's summaries recomputed from the full (outcomes, inputs)
    grids, the way they were computed before the grids were kept per pair."""
    fids, probs = report.fidelities, report.pair_probabilities[report.pair_of]
    keys = list(report.layout)
    finite = np.isfinite(fids)
    if finite.any():
        wo, wi = np.unravel_index(np.where(finite, fids, np.inf).argmin(), fids.shape)
        worst = (float(fids[finite].min()), keys[wo], report.input_labels[wi])
    else:
        worst = (0.0, None, None)
    # The generic probe is the default inputs' first random state, their
    # rand00 column.
    generic = probs[:, report.input_labels.index("rand00")]
    live = generic[generic >= oracle.ZERO_PROB]
    return {
        "worst": worst,
        "zero": [keys[i] for i in np.flatnonzero(generic < oracle.ZERO_PROB)],
        "suspicious": [
            keys[i]
            for i in np.flatnonzero(
                (generic >= oracle.ZERO_PROB) & (generic < oracle.SUSPICIOUS_PROB)
            )
        ],
        "range": (float(live.min()), float(live.max())) if live.size else (0.0, 0.0),
        "sums": probs.sum(axis=0),
    }


def _verified(name):
    pattern = _catalog_pattern(name)
    table = pattern.corrections or oracle.derive_corrections_with_failures(pattern)[0]
    return oracle.verify_pattern(pattern, corrections=table)


def _all_identity_loss_demo():
    pattern = catalog.build_pattern("cz-mismatched")
    table = CorrectionTable.from_entries({key: CorrectionOp.identity() for key in pattern.layout})
    return oracle.verify_pattern(pattern, corrections=table, loss_demo=True)


def _minimum_in_two_pairs():
    # Outcomes 1 (class 1) and 6 (a later outcome of class 0) get a wrong
    # flip that zeroes some fidelities. Pairs are numbered by (class, op),
    # so the pair of outcome 6 comes before that of outcome 1, although
    # outcome 1 holds the first minimum.
    pattern = catalog.chain_cz_pattern(3)
    keys = list(pattern.layout)
    entries = dict(oracle.derive_corrections(pattern))
    for i in (1, 6):
        entries[keys[i]] = CorrectionOp(entries[keys[i]].factors + (("sx", (0,)),))
    return oracle.verify_pattern(pattern, corrections=CorrectionTable.from_entries(entries))


SUMMARIZED = {
    **{name: lambda name=name: _verified(name) for name in CATALOG_NAMES + ["chain-cz-3"]},
    "cz-mismatched-identity": _all_identity_loss_demo,
    "minimum-in-two-pairs": _minimum_in_two_pairs,
}


class TestPairSummaries:
    """Summaries read off the per-pair rows equal the full-grid rule."""

    @pytest.mark.parametrize("name", sorted(SUMMARIZED))
    def test_summaries_equal_the_full_grid_rule(self, name):
        report = SUMMARIZED[name]()
        full = _full_grid_summaries(report)
        assert (report.min_fidelity, report.worst_outcome, report.worst_input) == full["worst"]
        assert report.zero_probability_outcomes == full["zero"]
        assert report.suspicious_outcomes == full["suspicious"]
        assert report.outcome_probability_range == full["range"]
        assert np.array_equal(report.probability_sums.view(np.int64), full["sums"].view(np.int64))

    def test_special_reports_exercise_their_case(self):
        demo = _all_identity_loss_demo()
        assert np.isnan(demo.pair_fidelities).any()
        report = _minimum_in_two_pairs()
        masked = np.where(np.isfinite(report.pair_fidelities), report.pair_fidelities, np.inf)
        holders = np.flatnonzero((masked == report.min_fidelity).any(axis=1))
        firsts = [int(np.argmax(report.pair_of == p)) for p in holders]
        assert len(holders) == 2 and firsts[0] > firsts[1]
        assert report.worst_outcome == report.layout.key(firsts[1])

    def test_grids_are_gathered_from_the_pair_rows(self):
        report = _verified("chain-cz-3")
        assert len(report.pair_fidelities) == 32 < len(report.layout) == 1024
        assert np.array_equal(report.fidelities, report.pair_fidelities[report.pair_of])
        assert report.fidelities is report.fidelities

    @pytest.mark.parametrize("columns", [2, 30])
    def test_column_sums_match_numpy_bit_for_bit(self, monkeypatch, columns):
        # numpy sums several columns row by row.
        rng = np.random.default_rng(columns)
        rows = rng.random((40, columns)) * 10.0 ** rng.integers(-20, 3, (40, columns))
        pair_of = rng.integers(0, 40, 5000)
        monkeypatch.setattr(oracle, "_BLOCK", 7)
        sums = oracle._column_sums(rows, pair_of)
        assert np.array_equal(sums.view(np.int64), rows[pair_of].sum(axis=0).view(np.int64))

    def test_table_key_order_does_not_change_the_report(self):
        # A derived table read in key order, and the same entries inserted
        # in reverse; the default layout sorts each group's labels, so the
        # reversed insertion lands on the pattern's own layout.
        pattern = catalog.chain_cz_pattern(3)
        table = oracle.derive_corrections(pattern)
        reordered = CorrectionTable.from_entries(reversed(list(table.items())))
        assert reordered.layout == pattern.layout
        a = oracle.verify_pattern(pattern, corrections=table)
        b = oracle.verify_pattern(pattern, corrections=reordered)
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y, equal_nan=True), f.name
            else:
                assert x == y, f.name


class TestProbabilityConservation:
    @pytest.mark.parametrize(
        "name", ["phase", "cz", "triple-cz", "controlled-phase", "cnot", "swap"]
    )
    def test_probabilities_sum_to_one(self, name):
        pattern = catalog.build_pattern(name)
        rng = np.random.default_rng(11)
        state = sv.StateVector(
            len(pattern.input_wires), random_state(len(pattern.input_wires), rng)
        )
        records = oracle.enumerate_outcomes(pattern, state)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-9)


class TestDictionary:
    """The enumerated dictionary derivation once looked recoveries up in,
    kept as ``reference.reference_dictionary``, and the namer against it."""

    def test_contains_identity_first(self):
        ops, _ = reference_dictionary(2, "pauli_phase")
        assert ops[0].render(2) == "I x I"

    def test_contains_all_two_wire_pauli_strings(self):
        _, mats = reference_dictionary(2, "pauli_phase")
        paulis = {
            "I": np.eye(2),
            "X": np.array([[0, 1], [1, 0]]),
            "Y": np.array([[0, -1j], [1j, 0]]),
            "Z": np.diag([1, -1]),
        }
        for a in paulis.values():
            for b in paulis.values():
                want = np.kron(a, b).astype(complex)
                assert oracle._equal_up_to_phase(mats, want).any()

    def test_candidates_pairwise_inequivalent(self):
        ops, mats = reference_dictionary(1, "pauli_phase")
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                assert not oracle._equal_up_to_phase(mats[i], mats[j])

    @pytest.mark.parametrize("num_wires,vocabulary", [(1, "pauli_phase"), (2, "full"), (3, "full")])
    def test_matrices_equal_op_matrices_exactly(self, num_wires, vocabulary):
        ops, mats = reference_dictionary(num_wires, vocabulary)
        assert np.array_equal(mats, np.stack([op.matrix(num_wires) for op in ops]))
        assert set(np.unique(mats).tolist()) <= {0, 1, -1, 1j, -1j}

    def test_signature_index_names_the_first_equivalent_op(self):
        # A reference op times a phase is named as that op, the first (and
        # only) reference op equal to it up to phase.
        ops, mats = reference_dictionary(3, "full")
        positions = [0, 1, 100, 2000, len(ops) - 1]
        named = oracle._name_recoveries(mats[positions] * 1j, 3, "full")
        for k, op in zip(positions, named):
            assert op == ops[k]
            assert not oracle._equal_up_to_phase(mats[:k], mats[k]).any()

    @pytest.mark.parametrize("num_wires", [1, 2, 3, 4])
    @pytest.mark.parametrize("vocabulary", ["pauli_phase", "full"])
    def test_every_signature_names_one_op(self, num_wires, vocabulary):
        # Naming rests on this: no two reference ops share an integer form
        # (rows and quarter turns), so each is one prefix times one choice
        # of tails, and the order prefixes are tried in cannot change a
        # name the reference has.
        ops, mats = reference_dictionary(num_wires, vocabulary)
        rows, q, ok = oracle._monomial_forms(mats)
        assert ok.all()
        assert len(np.unique(np.hstack([rows, q]), axis=0)) == len(ops)

    def test_unknown_signature_finds_nothing(self):
        cz = CorrectionOp((("Ucz", (0, 1)),)).matrix(2)[None]
        assert oracle._name_recoveries(cz, 2, "pauli_phase") == [None]
        assert [op.render(2) for op in oracle._name_recoveries(cz, 2, "full")] == ["Ucz(I x I)"]

    @pytest.mark.parametrize("num_wires,vocabulary", [(1, "pauli_phase"), (2, "full"), (3, "full")])
    def test_rows_and_ops_built_on_demand_match_the_whole_dictionary(self, num_wires, vocabulary):
        # Each distinct form is named on its own, so a name does not depend
        # on what else the stack holds.
        ops, mats = reference_dictionary(num_wires, vocabulary)
        assert oracle._name_recoveries(mats, num_wires, vocabulary) == ops
        assert oracle._name_recoveries(mats[::-7], num_wires, vocabulary) == ops[::-7]
        assert oracle._name_recoveries(np.concatenate([mats[:2], mats[:2]]), num_wires, vocabulary) == ops[:2] * 2

    @pytest.mark.parametrize("vocabulary", ["pauli_phase", "full"])
    def test_shared_signature_still_confirms_each_recovery(self, vocabulary):
        ops, mats = reference_dictionary(2, vocabulary)
        k = 5
        perturbed = mats[k].copy()
        perturbed[np.abs(perturbed) == 0] += 0.1  # same integer form, not a match
        stack = np.stack([mats[k], perturbed])
        rows, q, ok = oracle._monomial_forms(stack)
        assert np.array_equal(rows[0], rows[1]) and np.array_equal(q[0], q[1])
        assert ok.tolist() == [True, False]
        assert oracle._name_recoveries(stack, 2, vocabulary) == [ops[k], None]

    def test_full_three_wire_includes_entanglers(self):
        ops, _ = reference_dictionary(3, "full")
        names = {f for op in ops for f, _ in op.factors}
        assert "Ucx" in names and "Ucz" in names

    # sha256 of the ops' renderings, sorted and joined by newlines, and of
    # their matrices stacked in that order, for each (num_wires, vocabulary)
    # dictionary: the candidate set in rendering order, whatever order the
    # dictionary builds it in.
    PINNED = {
        (1, "pauli_phase"): (
            "cec255a8d37b80bf398555b8ff30b2b1a26f121ebd99cfd33ca1728457b36123",
            "f282c4ba5f3da3fef2651285f0271f69c2b535b199012d8012d7fafb276a6dfb",
        ),
        (1, "full"): (
            "cec255a8d37b80bf398555b8ff30b2b1a26f121ebd99cfd33ca1728457b36123",
            "f282c4ba5f3da3fef2651285f0271f69c2b535b199012d8012d7fafb276a6dfb",
        ),
        (2, "pauli_phase"): (
            "7d9b6a5b359d00b6338651269744ea7b21552cd87f27a41f85e473389c4910a8",
            "938f0cbf46c0ba26485a2d43dcd51ca65232a25828c86629658e9d308aad3e87",
        ),
        (2, "full"): (
            "dab4375e107ffb60cb032b9a7a60d47426bdd82650441c0079b6f6bfdff2952e",
            "f6719e5bbbec4e7e1139a9461314d069294a053086163002ee8a6732bcd438a4",
        ),
        (3, "pauli_phase"): (
            "652fb92ea5897091af8e3f39290244db8f927ea8f108e91cff3e7175da024e96",
            "5c3f6b92e5b4603958410213f9bcde44eec80ca4736d1906da0e737db19d7777",
        ),
        (3, "full"): (
            "e79bac46cadc2c6d92dda61a2c72f3826207e9ac38c096126336329a21d94c51",
            "6044bca050b4bc6cfa07ac5122dd429650f225d3e684803a082d017c054760dc",
        ),
    }

    @pytest.mark.parametrize("num_wires,vocabulary", sorted(PINNED))
    def test_order_and_matrices_are_pinned(self, num_wires, vocabulary):
        ops, mats = reference_dictionary(num_wires, vocabulary)
        renders = [op.render(num_wires) for op in ops]
        order = sorted(range(len(ops)), key=renders.__getitem__)
        texts, digest = self.PINNED[(num_wires, vocabulary)]
        assert hashlib.sha256("\n".join(renders[k] for k in order).encode()).hexdigest() == texts
        assert hashlib.sha256(mats[order].tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("num_wires,vocabulary", sorted(PINNED) + [(4, "pauli_phase")])
    def test_names_every_reference_op_exactly(self, num_wires, vocabulary):
        # Every reference op, times a random phase, is named as exactly that
        # op: where the reference has an element, its prefix and tails are
        # the only ones that fit.
        ops, mats = reference_dictionary(num_wires, vocabulary)
        phases = np.exp(2j * np.pi * np.random.default_rng(num_wires).uniform(size=len(ops)))
        assert oracle._name_recoveries(mats * phases[:, None, None], num_wires, vocabulary) == ops


def _reference_decompose(r: np.ndarray, num_wires: int) -> CorrectionOp | None:
    """The factorization that once named every recovery outside the
    dictionary, as a loop over columns and basis states: sx flips, a
    controlled-X word, controlled-Z pairs, then phases. None when the
    vocabulary does not generate r."""
    dim = 1 << num_wires
    scale = np.linalg.norm(r) / np.sqrt(dim)
    if scale < oracle.ZERO_PROB:
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
    lin = tuple(tuple(basis_cols[j][i] for j in range(num_wires)) for i in range(num_wires))
    for x in range(dim):
        yb = [sum(lin[i][j] * bits(x)[j] for j in range(num_wires)) & 1 for i in range(num_wires)]
        y = 0
        for b in yb:
            y = (y << 1) | b
        if (y ^ t) != perm[x]:
            return None
    key = sum(bit << (i * num_wires + j) for i, row in enumerate(lin) for j, bit in enumerate(row))
    word = oracle._linear_words(num_wires).get(key)
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
    factors = [("sx", (i,)) for i in range(num_wires) if (t >> (num_wires - 1 - i)) & 1]
    factors += list(word)
    factors += [("Ucz", pair) for pair in cz_pairs]
    for i in range(num_wires):
        factors += {0: [], 1: [("Up", (i,))], 2: [("sz", (i,))], 3: [("Up", (i,)), ("sz", (i,))]}[c[i]]
    op = CorrectionOp(tuple(factors))
    if not oracle._equal_up_to_phase(op.matrix(num_wires), u):
        return None
    return op


def _draw_word(data, num_wires: int) -> tuple:
    """A random product of vocabulary factors in any order on any wires."""
    factors = []
    for _ in range(data.draw(st.integers(0, 6))):
        name = data.draw(
            st.sampled_from(["sx", "sz", "Up", "Ucz", "Ucx"])
            if num_wires >= 2
            else st.sampled_from(["sx", "sz", "Up"])
        )
        if name in ("Ucz", "Ucx"):
            pair = data.draw(st.permutations(range(num_wires)).map(lambda p: tuple(p[:2])))
            factors.append((name, pair))
        else:
            factors.append((name, (data.draw(st.integers(0, num_wires - 1)),)))
    return tuple(factors)


class TestDecomposeMonomial:
    """The namer against ``_reference_decompose``, the loop form of the
    factorization that once named every recovery outside the dictionary."""

    def test_matches_the_loop_reference_on_derivation_recoveries(self, monkeypatch):
        fed = []
        name = oracle._name_recoveries

        def spy(stack, n, vocabulary):
            results = name(stack, n, vocabulary)
            fed.extend((r.copy(), n, result) for r, result in zip(stack, results))
            return results

        monkeypatch.setattr(oracle, "_name_recoveries", spy)
        for pattern in (catalog.fredkin_pattern(), catalog.toffoli_pattern()):
            oracle.derive_corrections_with_failures(pattern)
        assert len(fed) == 1024 + 512  # every unitary-proportional map of each
        for r, n, op in fed:
            want = _reference_decompose(r, n)
            assert (op is None) == (want is None)
            assert op is None or oracle._equal_up_to_phase(op.matrix(n), want.matrix(n))

    def test_matches_the_loop_reference_on_rejections(self):
        t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
        ccx = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]
        cases = [
            np.kron(HADAMARD, np.eye(4)),
            np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex),
            np.kron(t_gate, np.eye(4)),
            ccx,
            np.eye(8, dtype=complex)[[0, 0, 2, 3, 4, 5, 6, 7]],
            np.zeros((8, 8), dtype=complex),
            # A permutation whose unit-vector images are dependent (1 ^ 2 = 3),
            # so it has no linear part.
            np.eye(8, dtype=complex)[:, [0, 3, 2, 4, 1, 5, 6, 7]],
        ]
        for r in cases:
            assert _reference_decompose(r, 3) is None
        # One success among the rejections: each matrix of a stack is judged
        # on its own. The zero matrix and the non-permutation are refused
        # without a warning (the suite turns warnings into errors).
        word = CorrectionOp((("Ucx", (2, 0)), ("Up", (1,))))
        results = oracle._name_recoveries(np.array(cases + [word.matrix(3)]), 3, "full")
        assert results == [None] * len(cases) + [word]

    def test_round_trips_vocabulary_products(self):
        rng = np.random.default_rng(5)
        ops, mats = reference_dictionary(3, "full")
        picks = rng.choice(len(ops), size=25, replace=False)
        mats = mats[picks] * np.exp(1j * rng.uniform(0, 2 * np.pi, size=25))[:, None, None]
        for mat, op in zip(mats, oracle._name_recoveries(mats, 3, "full")):
            assert oracle._equal_up_to_phase(op.matrix(3), mat)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_round_trips_arbitrary_factor_words(self, data):
        # Any product of vocabulary factors in any order on any wires must
        # be named as an equivalent operator.
        num_wires = data.draw(st.integers(1, 3))
        phase = np.exp(1j * data.draw(st.floats(0, 2 * np.pi)))
        mat = CorrectionOp(_draw_word(data, num_wires)).matrix(num_wires) * phase
        [op] = oracle._name_recoveries(mat[None], num_wires, "full")
        assert oracle._equal_up_to_phase(op.matrix(num_wires), mat)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_naming_gives_the_first_equivalent_op_or_the_reference_factorization(self, data):
        # Words repeat with other phases in one stack, so one name covers
        # several recoveries, and a second call names them the same. A word
        # the reference dictionary lacks is named up to phase as the loop
        # reference factors it, with its entanglers leading.
        ops, mats = reference_dictionary(3, "full")
        words = [_draw_word(data, 3) for _ in range(data.draw(st.integers(1, 3)))]
        picks = data.draw(st.lists(st.integers(0, len(words) - 1), min_size=1, max_size=6))
        phases = np.exp(1j * np.array([data.draw(st.floats(0, 2 * np.pi)) for _ in picks]))
        stack = np.array([CorrectionOp(words[i]).matrix(3) for i in picks]) * phases[:, None, None]
        named = oracle._name_recoveries(stack, 3, "full")
        for r, op in zip(stack, named):
            same = np.flatnonzero(oracle._equal_up_to_phase(mats, r))
            if same.size:
                assert op == ops[same[0]]
            else:
                assert oracle._equal_up_to_phase(op.matrix(3), _reference_decompose(r, 3).matrix(3))
            assert "@" not in op.render(3)
        assert oracle._name_recoveries(stack, 3, "full") == named

    def test_both_paths_confirm_to_one_standard(self):
        # The same 1e-7 noise on a word the reference dictionary lacks and
        # on one of its ops: both are one phased-permutation test away from
        # a name.
        ops, mats = reference_dictionary(3, "full")
        word = CorrectionOp((("Ucx", (2, 0)), ("Up", (1,))))
        assert word.render(3) == "Ucx[2,0](I x Up x I)"
        assert not oracle._equal_up_to_phase(mats, word.matrix(3)).any()
        rng = np.random.default_rng(29)
        noise = 1e-7 * (rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8)))
        stack = np.stack([word.matrix(3), mats[1234]]) * np.exp(0.4j) + noise
        assert oracle._name_recoveries(stack, 3, "full") == [word, ops[1234]]

    def test_bare_controlled_x_between_first_wires(self):
        mat = CorrectionOp((("Ucx", (0, 1)),)).matrix(3)
        [op] = oracle._name_recoveries(mat[None], 3, "full")
        assert op.render(3) == "Ucx[0,1](I x I x I)"

    def test_hadamard_is_out_of_vocabulary(self):
        assert oracle._name_recoveries(np.kron(HADAMARD, np.eye(4))[None], 3, "full") == [None]

    @pytest.mark.parametrize("num_wires", [1, 3])
    def test_empty_stack_gives_no_results(self, num_wires):
        dim = 1 << num_wires
        assert oracle._name_recoveries(np.zeros((0, dim, dim), dtype=complex), num_wires, "full") == []

    def test_cubic_phase_is_out_of_vocabulary(self):
        ccz = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
        assert oracle._name_recoveries(ccz[None], 3, "full") == [None]

    def test_fredkin_derivation_builds_each_correction_matrix_once(self, monkeypatch):
        # Every step of naming, each recovery's own entangler included, is
        # integer arithmetic on the forms, so a cold derivation's 512 names
        # build no correction matrix.
        calls = []
        matrix = CorrectionOp.matrix
        monkeypatch.setattr(CorrectionOp, "matrix", lambda op, n: calls.append(1) or matrix(op, n))
        oracle._linear_words.cache_clear()
        pattern = catalog.fredkin_pattern()
        oracle.outcome_maps(pattern)
        oracle.derive_corrections_with_failures(pattern)
        assert len(calls) == 0


def _class_recoveries(classes, num_wires: int, rng: np.random.Generator) -> np.ndarray:
    """One recovery per (controlled-X word, controlled-Z pairs) class: the
    class's entangler times a random one-wire word on every wire, at a
    random global phase."""
    mats = []
    for word, pairs in classes:
        tails = tuple(
            (str(name), (wire,))
            for wire in range(num_wires)
            for name in rng.choice(["sx", "sz", "Up"], size=rng.integers(0, 4))
        )
        op = CorrectionOp(word + tuple(("Ucz", p) for p in pairs) + tails)
        mats.append(op.matrix(num_wires) * np.exp(2j * np.pi * rng.uniform()))
    return np.array(mats)


class TestOneEntanglerPerForm:
    """The namer against ``reference.two_stage_names``, the namer that once
    tried fixed entangling prefixes before each recovery's own entangler."""

    @pytest.mark.parametrize("num_wires", [2, 3, 4])
    def test_linear_words_match_the_tuple_search(self, num_wires):
        # Same generators, queue order and words, so the same table in the
        # same order, keyed by bit masks instead of tuple rows.
        def key(rows):
            return sum(bit << (i * num_wires + j) for i, row in enumerate(rows) for j, bit in enumerate(row))

        want = [(key(rows), word) for rows, word in linear_words_by_rows(num_wires).items()]
        assert list(oracle._linear_words(num_wires).items()) == want

    @pytest.mark.parametrize("num_wires", [2, 3])
    def test_every_class_is_named_as_the_two_stage_namer_named_it(self, num_wires):
        pairs = list(combinations(range(num_wires), 2))
        classes = [
            (word, tuple(p for p, on in zip(pairs, bits) if on))
            for word in linear_words_by_rows(num_wires).values()
            for bits in product((0, 1), repeat=len(pairs))
        ]
        assert len(classes) == {2: 12, 3: 1344}[num_wires]
        stack = _class_recoveries(classes, num_wires, np.random.default_rng(num_wires))
        for vocabulary in ("pauli_phase", "full"):
            named = oracle._name_recoveries(stack, num_wires, vocabulary)
            want = two_stage_names(stack, num_wires, vocabulary)
            assert [k for k, (a, b) in enumerate(zip(named, want)) if a != b] == []
        assert None not in named

    def test_sampled_four_wire_recoveries_are_named_as_the_two_stage_namer_named_them(self):
        rng = np.random.default_rng(4)
        words = list(linear_words_by_rows(4).values())
        pairs = list(combinations(range(4), 2))
        classes = [
            (words[rng.integers(len(words))], tuple(p for p in pairs if rng.integers(2)))
            for _ in range(5000)
        ]
        stack = _class_recoveries(classes, 4, rng)
        for vocabulary in ("pauli_phase", "full"):
            named = oracle._name_recoveries(stack, 4, vocabulary)
            want = two_stage_names(stack, 4, vocabulary)
            assert [k for k, (a, b) in enumerate(zip(named, want)) if a != b] == []
        assert None not in named


class TestSingleQubit:
    def test_identity_outcome_four_is_exact_identity_channel(self):
        pattern = catalog.single_qubit_pattern(np.eye(2))
        rng = np.random.default_rng(oracle.DEFAULT_SEED)
        for _ in range(100):
            state = sv.StateVector(1, random_state(1, rng))
            records = oracle.enumerate_outcomes(pattern, state)
            last = records[-1]
            assert last.labels == ((4,),)
            assert abs(np.vdot(last.corrected_state.amps, state.amps)) > 1 - 1e-12

    def test_random_unitaries_verify(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            pattern = catalog.single_qubit_pattern(random_unitary(2, rng))
            report = oracle.verify_pattern(pattern)
            assert report.passed


class TestControlledZ:
    def test_both_rows_verify(self):
        for row in ("h", "bell"):
            pattern = catalog.controlled_z_pattern(row)
            table = oracle.derive_corrections(pattern)
            report = oracle.verify_pattern(pattern, corrections=table)
            assert report.passed
            assert report.min_fidelity >= 1 - 1e-9

    def test_mismatched_row_filters_components(self):
        # The incompatible Bell-pair + GHZ-basis configuration keeps only
        # the outer input components on the aligned outcome.
        pattern = catalog.build_pattern("cz-mismatched")
        maps = oracle.outcome_maps(pattern)
        m = maps[((0, 0, "+"), (0, 0, "+"))]
        rng = np.random.default_rng(1)
        c = random_state(2, rng, 1e-3)
        out = m @ c
        expected = np.array([c[0], 0, 0, c[3]])
        expected /= np.linalg.norm(expected)
        fid = abs(np.vdot(expected, out / np.linalg.norm(out)))
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_mismatched_row_is_lossy_naming_inner_components(self):
        report = oracle.detect_information_loss(catalog.build_pattern("cz-mismatched"))
        assert report.lossy
        aligned = [o for o in report.outcomes if o.key == ((0, 0, "+"), (0, 0, "+"))]
        assert aligned and aligned[0].annihilated == (1, 2)
        assert aligned[0].rank == 2

    def test_compatible_rows_not_lossy(self):
        for row in ("h", "bell"):
            report = oracle.detect_information_loss(catalog.controlled_z_pattern(row))
            assert not report.lossy
            assert not report.outcomes

    def test_unlinked_pattern_lossy_for_both_basis_rows(self):
        for basis in ("ghz", "pm"):
            report = oracle.detect_information_loss(catalog.controlled_z_pattern("product", basis))
            assert report.lossy

    @pytest.mark.parametrize("cc,dd", [("psi+", "phi-"), ("phi+", "psi-")])
    def test_any_bell_output_pairs_still_verify(self, cc, dd):
        # The output pairs only shape the byproduct; every Bell choice
        # stays inside the Pauli recovery vocabulary.
        pattern = catalog.cz_layout_pattern("h", cc, dd, "ghz", name="cz-var")
        table = oracle.derive_corrections(pattern)
        assert oracle.verify_pattern(pattern, corrections=table).passed

    def test_h_type_output_pair_leaves_uncorrectable_byproduct(self):
        # An H-type pair on an output leg leaves a Hadamard byproduct,
        # which no vocabulary correction expresses.
        pattern = catalog.cz_layout_pattern("h", "h", "phi+", "ghz", name="cz-var")
        with pytest.raises(oracle.DerivationError):
            oracle.derive_corrections(pattern)


def _assert_loss_flags_by_rank_alone(pattern):
    """Every live class with a column below RANK_TOL is rank-deficient, so
    the loss check's outcomes are the live rank-deficient ones."""
    maps = oracle.outcome_maps(pattern)
    live, dim = ~maps.facts.zero, maps.distinct.shape[2]
    ranks = maps.facts.ranks(np.arange(len(maps.distinct)))
    dead = (np.linalg.norm(maps.distinct, axis=1) < sv.RANK_TOL) & live[:, None]
    assert (ranks[dead.any(axis=1)] < dim).all()
    flagged = live & (ranks < dim)
    expected = pattern.layout.keys_at(np.flatnonzero(flagged[maps.classes]))
    assert [o.key for o in oracle.detect_information_loss(pattern).outcomes] == expected


class TestLossRule:
    """A column of norm below RANK_TOL bounds the smallest singular value
    by that norm, so the rank test alone flags an annihilated input."""

    ROWS = {
        f"cz[{r},{b}]": (lambda r=r, b=b: catalog.controlled_z_pattern(r, b))
        for r in catalog.CZ_RESOURCES for b in catalog.BASIS_KINDS
    }

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["chain-cz-2", "chain-cz-3", *ROWS])
    def test_catalog(self, name):
        pattern = self.ROWS[name]() if name in self.ROWS else _catalog_pattern(name)
        _assert_loss_flags_by_rank_alone(pattern)

    @settings(max_examples=40, deadline=None)
    @given(small_patterns())
    def test_random_patterns(self, pattern):
        _assert_loss_flags_by_rank_alone(pattern)


class TestParityLaw:
    def test_chain_parity(self):
        results = oracle.parity_experiment(4)
        assert [(r.n, r.passed) for r in results] == [
            (1, True), (2, False), (3, True), (4, False),
        ]

    def test_even_chain_passes_against_identity_target(self):
        pattern = catalog.chain_cz_pattern(2)
        table = oracle.derive_corrections(pattern)
        report = oracle.verify_pattern(pattern, corrections=table)
        assert report.passed


def _phased_cz_base_map(k, kt, p, m, n):
    pattern = catalog.parameterized_cz_pattern(k, kt, p, m, n)
    return oracle.outcome_maps(pattern)[((0, 0, "+"), (0, 0, "+"))]


class TestParameterizedPhase:
    EXACT_MINIMUM = 0.3901806440322565  # 2 sin(pi/16)

    def test_all_ones_gives_controlled_z(self):
        op = _phased_cz_base_map(1, 1, 1, 1, 1)
        assert operator_distance(op, CZ) < 1e-9

    def test_quarter_turn_on_k(self):
        op = _phased_cz_base_map(1j, 1, 1, 1, 1)
        expected = np.diag([1, 1, -1j, 1j]).astype(complex)
        assert operator_distance(op, expected) < 1e-9

    def test_simulation_matches_closed_form_on_proving_grid(self):
        # The experiment checks the proving grid {+1,-1}^5, where every phase
        # is its own conjugate; complex phases double-check the conjugations.
        k, kt, p, m, n = 1j, -1j, -1, 1j, 1
        op = _phased_cz_base_map(k, kt, p, m, n)
        assert operator_distance(op, parameterized_phase_form(k, kt, p, m, n)) < 1e-9

    def test_obstruction_values_are_exact(self):
        invariant, dist = oracle.phase_family_obstruction()
        assert abs(invariant + 1) <= sv.ATOL_AMP
        assert abs(dist - self.EXACT_MINIMUM) <= 1e-15
        assert dist > 0.1

    def test_grid_search_minimum_is_large(self):
        # The reference scan keeps its values at 3 and 5 points per axis;
        # both overstate the exact minimum.
        for points, expected in ((3, 0.6471948469478181), (5, 0.5024340231108816)):
            dist, argmin = phase_parameter_grid_search(points)
            assert dist == expected
            assert len(argmin) == 5
            assert dist >= self.EXACT_MINIMUM > 0.1

    def test_fine_scan_of_the_free_phases_reaches_the_minimum(self):
        # The closed form is diag(1, x, y, -x y) with x = n p conj(kt) and
        # y = m conj(k); its overlap with diag(1, 1, 1, i) over 1001 x 1001
        # unit phases, each form and the gate unit-normalized (norm 2 each).
        x = np.exp(2j * np.pi * np.arange(1001) / 1001)[:, None]
        y = x.T
        overlap = np.abs(1 + x.conj() + y.conj() + 1j * (-x * y).conj()) / 4
        dist = np.sqrt(2 - 2 * overlap.max())
        assert self.EXACT_MINIMUM <= dist <= self.EXACT_MINIMUM + 1e-6

    def test_closest_form_is_still_far_from_controlled_phase(self):
        # Forcing the (1,1) and (2,2) entries to match leaves the (3,3)
        # entry at -1 instead of i.
        op = parameterized_phase_form(1, 1, 1, 1, 1)
        assert operator_distance(op, CPHASE) > 0.1

    def test_self_check_catches_a_wrong_closed_form(self, monkeypatch):
        # A wiring with m and n exchanged has the closed form
        # diag(1, m p conj(kt), n conj(k), ...), not the documented one.
        build = catalog.parameterized_cz_pattern
        monkeypatch.setattr(
            catalog, "parameterized_cz_pattern", lambda k, kt, p, m, n: build(k, kt, p, n, m)
        )
        with pytest.raises(RuntimeError, match="closed form disagrees with simulation"):
            oracle.phase_family_obstruction()


@pytest.fixture(scope="module")
def triple_cz_verified():
    pattern = catalog.triple_cz_pattern()
    table = oracle.derive_corrections(pattern)
    return pattern.with_corrections(table)


class TestTripleCz:
    @pytest.fixture()
    def verified(self, triple_cz_verified):
        return triple_cz_verified

    def test_verifies(self, verified):
        report = oracle.verify_pattern(verified)
        assert report.passed

    def test_sign_structure_on_superpositions(self, verified):
        # |000>+|011> picks up a relative minus; |000>+|111> does not.
        for bits, sign in (("011", -1), ("110", -1), ("111", 1), ("101", 1)):
            state = sv.from_ket_expression(3, [(1, "000"), (1, bits)])
            expected = sv.from_ket_expression(3, [(1, "000"), (sign, bits)])
            records = oracle.enumerate_outcomes(verified, state)
            fid = min(
                abs(np.vdot(r.corrected_state.amps, expected.amps))
                for r in records
                if r.corrected_state is not None
            )
            assert fid >= 1 - 1e-9


class TestControlledPhase:
    def test_verifies_with_derived(self, cphase_derived):
        pattern, table = cphase_derived
        report = oracle.verify_pattern(pattern, corrections=table)
        assert report.passed

    def test_worked_cell(self, cphase_derived):
        _, table = cphase_derived
        worked = table[((0, 0, "+"), (0, 1, "+"))]
        expected = tables.parse_correction("Ucz(sz.Up x I)")
        assert oracle._equal_up_to_phase(worked.matrix(2), expected.matrix(2))

    def test_first_cell_is_identity(self, cphase_derived):
        _, table = cphase_derived
        assert oracle._equal_up_to_phase(
            table[((0, 0, "+"), (0, 0, "+"))].matrix(2), np.eye(4)
        )

    def test_one_one_input_gains_quarter_phase(self, cphase_derived):
        pattern, table = cphase_derived
        state = sv.from_ket_expression(2, [(1, "00"), (1, "11")])
        expected = sv.from_ket_expression(2, [(1, "00"), (1j, "11")])
        records = oracle.enumerate_outcomes(pattern.with_corrections(table), state)
        for record in records:
            assert abs(np.vdot(record.corrected_state.amps, expected.amps)) >= 1 - 1e-9


class TestCnotSwap:
    def test_cnot_verifies(self, cnot_derived):
        pattern, table = cnot_derived
        report = oracle.verify_pattern(pattern, corrections=table)
        assert report.passed

    def test_cnot_truth_table(self, cnot_derived):
        pattern, table = cnot_derived
        with_t = pattern.with_corrections(table)
        for bits, expect in (("10", "11"), ("11", "10"), ("01", "01"), ("00", "00")):
            records = oracle.enumerate_outcomes(with_t, sv.from_ket_expression(2, [(1, bits)]))
            assert len(records) == 128
            fid = min(
                abs(np.vdot(r.corrected_state.amps, sv.from_ket_expression(2, [(1, expect)]).amps))
                for r in records
            )
            assert fid >= 1 - 1e-9

    def test_cnot_pinned_cells(self, cnot_derived):
        _, table = cnot_derived
        assert table[((0, 0, 0, "+"), (0, 0, "+"))].render(2) == "I x I"
        pinned = table[((1, 0, 0, "+"), (1, 0, "+"))]
        expected = tables.parse_correction("sx x I")
        assert oracle._equal_up_to_phase(pinned.matrix(2), expected.matrix(2))

    def test_swap_verifies(self, swap_derived):
        pattern, table = swap_derived
        report = oracle.verify_pattern(pattern, corrections=table)
        assert report.passed

    def test_swap_truth_table(self, swap_derived):
        pattern, table = swap_derived
        with_t = pattern.with_corrections(table)
        for bits, expect in (("01", "10"), ("10", "01"), ("11", "11")):
            records = oracle.enumerate_outcomes(with_t, sv.from_ket_expression(2, [(1, bits)]))
            fid = min(
                abs(np.vdot(r.corrected_state.amps, sv.from_ket_expression(2, [(1, expect)]).amps))
                for r in records
            )
            assert fid >= 1 - 1e-9

    def test_swap_pinned_cells(self, swap_derived):
        _, table = swap_derived
        assert table[((0, 0, 0, "+"), (0, 0, "+"))].render(2) == "I x I"
        pinned = table[((1, 1, 1, "-"), (1, 1, "-"))]
        expected = tables.parse_correction("sx x I")
        assert oracle._equal_up_to_phase(pinned.matrix(2), expected.matrix(2))


class TestToffoli:
    def test_literal_variant_rejected_with_reason(self, toffoli_selected):
        _, _, record = toffoli_selected
        assert record["literal"].startswith("rejected")
        assert "orthonormal" in record["literal"]

    def test_literal_builder_raises_the_selections_reason(self, toffoli_selected):
        _, _, record = toffoli_selected
        with pytest.raises(PatternFormatError) as raised:
            catalog.toffoli_pattern("literal")
        assert record["literal"] == f"rejected: {raised.value}"

    def test_corrected_variant_verifies(self, toffoli_selected):
        pattern, table, record = toffoli_selected
        assert pattern.variant == "corrected"
        assert record["corrected"].startswith("verified")
        report = oracle.verify_pattern(pattern, corrections=table)
        assert report.passed

    def test_worked_outcome_correction(self, toffoli_selected):
        _, table, _ = toffoli_selected
        worked = table[((0, 1, 1, "-"), (0, 1, 0, "-"), (1, 1, "-"))]
        assert worked.render(3) == "sx x sz x sx"

    def test_truth_table(self, toffoli_selected):
        pattern, table, _ = toffoli_selected
        with_t = pattern.with_corrections(table)
        for bits, expect in (("110", "111"), ("111", "110"), ("100", "100")):
            records = oracle.enumerate_outcomes(with_t, sv.from_ket_expression(3, [(1, bits)]))
            fid = min(
                abs(np.vdot(r.corrected_state.amps, sv.from_ket_expression(3, [(1, expect)]).amps))
                for r in records
            )
            assert fid >= 1 - 1e-9

    def test_control_flip_outcomes_use_controlled_x_recoveries(self, toffoli_selected):
        _, table, _ = toffoli_selected
        op = table[((1, 0, 0, "+"), (0, 0, 0, "+"), (0, 0, "+"))]
        names = {name for name, _ in op.factors}
        assert "Ucx" in names


class TestFredkin:
    def test_failures_are_exactly_the_regime_flip_half(self, fredkin_partial):
        pattern, _, failures = fredkin_partial
        assert len(failures) == 4096
        assert all(key[0][2] == 1 for key, _ in failures)

    def test_consistent_half_verifies(self, fredkin_partial):
        pattern, table, failures = fredkin_partial
        failed = {key for key, _ in failures}
        maps = oracle.outcome_maps(pattern)
        rng = np.random.default_rng(oracle.DEFAULT_SEED)
        probes = np.column_stack(
            [np.eye(8, dtype=complex)]
            + [random_state(3, rng, 1e-6)[:, None] for _ in range(4)]
        )
        target_out = pattern.target @ probes
        for key, m in maps.items():
            if key in failed:
                continue
            out = table[key].matrix(3) @ (m @ probes)
            norms = np.linalg.norm(out, axis=0)
            fids = np.abs(np.sum(target_out.conj() * out, axis=0)) / norms
            assert fids.min() >= 1 - 1e-9

    def test_defective_outcomes_are_rank_four(self, fredkin_partial):
        pattern, _, failures = fredkin_partial
        maps = oracle.outcome_maps(pattern)
        key = failures[0][0]
        rank = np.linalg.matrix_rank(maps[key], tol=1e-10)
        assert rank == 4

    def test_lossy_mass_is_exactly_one_half(self, fredkin_partial):
        # Summed over outcomes, M†M of the rank-deficient maps is I/2, so those
        # outcomes carry probability 1/2 on every input, not only on a probe.
        pattern, _, _ = fredkin_partial
        maps = oracle.outcome_maps(pattern)
        counts = np.bincount(maps.classes)
        live = np.flatnonzero(~maps.facts.zero)
        lossy = live[maps.facts.ranks(live) < 8]
        assert (len(lossy), counts[lossy].sum()) == (1024, 4096)

        def mass(classes):
            m = maps.distinct[classes]
            return np.einsum("c,cji,cjk->ik", counts[classes], m.conj(), m)

        eigenvalues = np.linalg.eigvalsh(mass(lossy))
        assert abs(eigenvalues[0] - 0.5) <= 1e-12 and abs(eigenvalues[-1] - 0.5) <= 1e-12
        everything = mass(np.arange(len(maps.distinct)))
        assert np.linalg.norm(everything - np.eye(8), 2) <= sv.SUM_TOL

    def test_loss_report_flags_rank_deficiency(self, fredkin_partial):
        pattern, _, _ = fredkin_partial
        report = oracle.detect_information_loss(pattern)
        assert len(report.outcomes) == 4096
        assert all(o.rank == 4 for o in report.outcomes)
        # No outcome annihilates a basis input; the rank alone makes it lossy.
        assert report.annihilated_components == []
        assert all(o.annihilated == () for o in report.outcomes)
        assert report.lossy


def _digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()[:16]


# Derivation pinned per pattern: digest of the rendered table cells, number
# of unrepairable outcomes and digest of their keys. Fredkin reuses the
# session-wide ``fredkin_partial`` derivation.
GOLDEN_PATTERNS = {
    **{
        name: (lambda name=name: catalog.build_pattern(name))
        for name in catalog.catalog_entries()
        if name != "fredkin"
    },
    "chain-cz-2-vs-cz": lambda: catalog.chain_cz_pattern(2).with_target(CZ),
    "chain-cz-4-vs-cz": lambda: catalog.chain_cz_pattern(4).with_target(CZ),
    "cz-h-output": lambda: catalog.cz_layout_pattern("h", "h", "phi+", "ghz", name="cz-var"),
}
NO_FAILURES = (0, "e3b0c44298fc1c14")
DERIVATION_GOLDEN = {
    "single-qubit": ("1bc0bebdd02705d7", *NO_FAILURES),
    "phase": ("34b6e5e19547c0ad", *NO_FAILURES),
    "pi8": ("a7c5521c0007cf60", *NO_FAILURES),
    "cz": ("902417c525e0cf62", *NO_FAILURES),
    "cz-mismatched": ("c0e6fda75659a4ce", 64, "621ea86cb2388650"),
    "cz-no-ee": ("c0e6fda75659a4ce", 64, "621ea86cb2388650"),
    "chain-cz": ("902417c525e0cf62", *NO_FAILURES),
    "triple-cz": ("54ff88b3a95baab6", *NO_FAILURES),
    "controlled-phase": ("caec96bf7718e55a", *NO_FAILURES),
    "cnot": ("d9dc34a4e8bb3c5d", *NO_FAILURES),
    "swap": ("f42ed14ff1f41e70", *NO_FAILURES),
    "toffoli": ("9c343be2ce09bc5d", *NO_FAILURES),
    "fredkin": ("1c8544231f3c7eb2", 4096, "cc6edf87aebc0861"),
    "chain-cz-2-vs-cz": ("3c755dd472f17fab", 256, "5fa59a4659ae280b"),
    "chain-cz-4-vs-cz": ("d42c12b36dc76b07", 4096, "abcec943993494f3"),
    "cz-h-output": ("c0e6fda75659a4ce", 64, "621ea86cb2388650"),
}


class TestDerivationGolden:
    @staticmethod
    def _derive(name, request):
        if name == "fredkin":
            return request.getfixturevalue("fredkin_partial")
        pattern = GOLDEN_PATTERNS[name]()
        return (pattern, *oracle.derive_corrections_with_failures(pattern))

    def test_covers_every_catalog_pattern(self):
        assert set(catalog.catalog_entries()) <= set(DERIVATION_GOLDEN)
        assert set(DERIVATION_GOLDEN) == set(GOLDEN_PATTERNS) | {"fredkin"}

    @pytest.mark.parametrize("name", sorted(DERIVATION_GOLDEN))
    def test_table_and_failure_keys_unchanged(self, name, request):
        cells, num_failures, failure_keys = DERIVATION_GOLDEN[name]
        pattern, table, failures = self._derive(name, request)
        n = pattern.num_outputs
        assert _digest(f"{oracle.format_key(k)}\t{table[k].render(n)}" for k in table.keys()) == cells
        assert len(failures) == num_failures
        assert _digest(oracle.format_key(k) for k, _ in failures) == failure_keys

    @pytest.mark.parametrize("name", sorted(DERIVATION_GOLDEN))
    def test_pair_table_equals_the_sort(self, name, request):
        # verify_pattern's distinct (map, correction) pairs over the cells
        # each golden table holds.
        pattern, table, _ = self._derive(name, request)
        classes = oracle.outcome_maps(pattern).classes
        ops = len(table.matrices(pattern.num_outputs))
        _assert_first_occurrences(classes * ops + table.index, (classes.max() + 1) * ops)

    def test_no_derived_op_renders_as_a_raw_chain(self, request):
        # Every name is entanglers first, then one tail per wire, so none
        # falls back to the raw factor chain (``sx@(2,).Ucx@(0, 2)``).
        for name in sorted(DERIVATION_GOLDEN):
            pattern, table, _ = self._derive(name, request)
            renders = [op.render(pattern.num_outputs) for op in table.ops]
            assert not any("@" in text for text in renders), name

    @pytest.mark.parametrize(
        "name,reason",
        [
            ("fredkin", "rank 4/8, not proportional to a unitary"),
            ("cz-mismatched", "rank 2/4, not proportional to a unitary"),
            ("chain-cz-2-vs-cz", "needed recovery lies outside the pauli_phase vocabulary"),
            ("chain-cz-4-vs-cz", "needed recovery lies outside the pauli_phase vocabulary"),
        ],
    )
    def test_failure_reasons_come_from_the_operator(self, name, reason, request):
        _, _, failures = self._derive(name, request)
        assert failures and {r for _, r in failures} == {reason}

    def test_unknown_vocabulary_is_refused(self):
        pattern = dataclasses.replace(catalog.cnot_pattern(), vocabulary="bogus")
        with pytest.raises(PatternFormatError, match="unknown correction vocabulary 'bogus'"):
            oracle.derive_corrections_with_failures(pattern)

    def test_derivation_error_names_the_reason(self):
        pattern = catalog.chain_cz_pattern(2).with_target(CZ)
        with pytest.raises(oracle.DerivationError, match="outside the pauli_phase vocabulary"):
            oracle.derive_corrections(pattern)


def _assert_first_occurrences(ids, size):
    """The dense first-occurrence table gives what np.unique's sort does."""
    ids = np.asarray(ids, dtype=np.intp)
    first, rank = oracle._first_occurrences(ids, size)
    _, expected_first, expected_rank = np.unique(ids, return_index=True, return_inverse=True)
    assert first.dtype == expected_first.dtype and np.array_equal(first, expected_first)
    assert rank.dtype == expected_rank.dtype and np.array_equal(rank, expected_rank)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(st.integers(0, size - 1), min_size=1, max_size=300))
))
def test_first_occurrence_table_equals_the_sort(drawn):
    size, ids = drawn
    _assert_first_occurrences(ids, size)


class TestVerifyMechanics:
    def test_missing_table_raises(self):
        with pytest.raises(oracle.MissingCorrectionError):
            oracle.verify_pattern(catalog.controlled_z_pattern("h"))

    def test_compare_tables_flags_forced_diff(self):
        pattern = catalog.phase_gate_pattern()
        derived = oracle.derive_corrections(pattern)
        tampered = dict(derived)
        key = ((1,),)
        tampered[key] = CorrectionOp((("sx", (0,)),))
        diff = oracle.compare_tables(CorrectionTable.from_entries(tampered), pattern.corrections, 1)
        assert diff.mismatch_count == 1
        assert diff.mismatches[0][0] == key

    @pytest.mark.parametrize(
        "name,kind",
        [
            (n, k) for n, e in sorted(catalog.catalog_entries().items())
            for k in ("reference", "captioned") if k in e
        ] + [("cnot", "identity")],
    )
    def test_compare_tables_equals_the_cell_by_cell_loop(self, name, kind):
        # The printed tables' op pairs outnumber their outcomes, so they are
        # found by the sort; the all-identity table's by the dense table.
        pattern = catalog.build_pattern(name)
        n, derived = pattern.num_outputs, oracle.derive_corrections(pattern)
        if kind == "identity":
            printed = CorrectionTable.from_entries({key: CorrectionOp.identity() for key in derived})
        else:
            printed = catalog.catalog_entries()[name][kind]()
        expected = [
            (key, derived[key].render(n), printed[key].render(n))
            for key in derived
            if not oracle._equal_up_to_phase(derived[key].matrix(n), printed[key].matrix(n))
        ]
        diff = oracle.compare_tables(derived, printed, n)
        assert (list(diff.mismatches), diff.total) == (expected, len(pattern.layout))

    def test_compare_tables_rejects_key_mismatch(self):
        pattern = catalog.phase_gate_pattern()
        partial = CorrectionTable.from_entries(list(pattern.corrections.items())[:3])
        with pytest.raises(sv.UsageError):
            oracle.compare_tables(partial, pattern.corrections, 1)

    @pytest.mark.parametrize("extra", [True, False], ids=["extra-outcome", "three-outcomes"])
    def test_table_over_other_outcomes_is_refused(self, extra):
        # A table fits a pattern only when it is over the pattern's layout.
        # The phase table plus a cell for an outcome (9) the pattern lacks,
        # or three of its cells over their own labels, are refused alike.
        pattern = catalog.phase_gate_pattern()
        cells = list(pattern.corrections.items())
        cells = cells + [(((9,),), CorrectionOp.identity())] if extra else cells[:3]
        table = CorrectionTable.from_entries(cells)
        other = pattern.with_corrections(table)
        refused = "correction table is not over the pattern's outcomes"
        with pytest.raises(PatternFormatError, match=refused):
            validate_pattern(other)
        with pytest.raises(sv.UsageError, match=refused):
            oracle.verify_pattern(pattern, corrections=table)
        with pytest.raises(sv.UsageError, match=refused):
            oracle.enumerate_outcomes(other, plus_state())
        for pair in ((table, pattern.corrections), (pattern.corrections, table)):
            with pytest.raises(sv.UsageError, match="different outcome sets"):
                oracle.compare_tables(*pair, 1)

    def test_wrong_correction_fails_verification(self):
        pattern = catalog.phase_gate_pattern()
        tampered = dict(pattern.corrections)
        tampered[((2,),)] = CorrectionOp((("sx", (0,)),))
        report = oracle.verify_pattern(pattern, corrections=CorrectionTable.from_entries(tampered))
        assert not report.passed
        assert report.worst_outcome == ((2,),)

    def test_linearity_of_fixed_outcome_branches(self):
        pattern = catalog.controlled_z_pattern("h")
        rng = np.random.default_rng(9)
        x = random_state(2, rng)
        y = random_state(2, rng)
        a, b = 0.6, 0.8j
        nrm = np.linalg.norm(a * x + b * y)
        combo = (a * x + b * y) / nrm
        rx = oracle.enumerate_outcomes(pattern, sv.StateVector(2, x))
        ry = oracle.enumerate_outcomes(pattern, sv.StateVector(2, y))
        rc = oracle.enumerate_outcomes(pattern, sv.StateVector(2, combo))
        for ox, oy, oc in zip(rx, ry, rc):
            raw_x = np.sqrt(ox.probability) * ox.pre_correction_state.amps
            raw_y = np.sqrt(oy.probability) * oy.pre_correction_state.amps
            raw_c = np.sqrt(oc.probability) * oc.pre_correction_state.amps
            assert np.allclose((a * raw_x + b * raw_y) / nrm, raw_c, atol=1e-9)

    def test_reports_are_deterministic(self):
        from telegate import reports

        def run():
            pattern = catalog.controlled_z_pattern("h")
            table = oracle.derive_corrections(pattern)
            report = oracle.verify_pattern(pattern, corrections=table)
            return (
                reports.render_verification(report),
                "".join(reports.verification_json_pieces(report)),
            )

        assert run() == run()

    def test_outcome_probability_range_reported(self):
        pattern = catalog.phase_gate_pattern()
        report = oracle.verify_pattern(pattern)
        low, high = report.outcome_probability_range
        assert low == pytest.approx(0.25, abs=1e-9)
        assert high == pytest.approx(0.25, abs=1e-9)

    def test_broken_probability_conservation_fails_verification(self):
        # A smuggled-in overcomplete basis (an appended duplicate vector)
        # keeps every branch individually repairable but breaks
        # conservation; the pass flag must notice even though no fidelity
        # dips.
        import dataclasses

        pattern = catalog.phase_gate_pattern()
        group = pattern.groups[0]
        vectors = np.vstack([group.basis.vectors, group.basis.vectors[:1]])
        rigged_group = MeasurementGroup(
            group.qubits, sv.MeasurementBasis(2, vectors), group.labels + ((5,),)
        )
        rigged_corrections = CorrectionTable.from_entries(
            {**pattern.corrections, ((5,),): pattern.corrections[((1,),)]}
        )
        rigged = dataclasses.replace(
            pattern, groups=(rigged_group,), corrections=rigged_corrections
        )
        report = oracle.verify_pattern(rigged)
        assert report.min_fidelity >= 1 - 1e-9
        assert not report.passed
        assert any("probability sums" in note for note in report.notes)
        assert report.probability_sums.max() == pytest.approx(1.25, abs=1e-9)
        text = reports.render_verification(report)
        assert "probability sums deviate from 1" in text and text.endswith("verdict: FAIL")


def _flagged_phase(eps: float, entangled: bool):
    """The phase pattern plus qubit 3, measured alone in {|0>, |1>} as a
    second group, which picks the maps scaled by ``eps``. Unentangled,
    qubit 3 holds |0> + eps|1>, so the flag-1 maps are exactly eps times the
    flag-0 ones. Entangled, qubits 1, 2, 3 hold (|000> + |110>)/sqrt(2) +
    eps (cos t|001> + sin t|111>), t = pi/4 + 1e-3: the flag-1 outcomes see
    a partly entangled pair, whose maps have relative spread 2.83e-3."""
    base = catalog.phase_gate_pattern()
    flag = MeasurementGroup((3,), sv.MeasurementBasis(1, np.eye(2, dtype=complex)), ((0,), (1,)))
    if entangled:
        theta = np.pi / 4 + 1e-3
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = amps[0b110] = 1 / np.sqrt(2)
        amps[0b001], amps[0b111] = eps * np.cos(theta), eps * np.sin(theta)
        resources = (((1, 2, 3), sv.StateVector(3, amps / np.linalg.norm(amps))),)
    else:
        amps = np.array([1, eps], dtype=complex)
        resources = base.resources + (((3,), sv.StateVector(1, amps / np.linalg.norm(amps))),)
    return dataclasses.replace(
        base, num_qubits=4, resources=resources, groups=base.groups + (flag,), corrections=None
    )


FLAG_ONE = [((k,), (1,)) for k in (1, 2, 3, 4)]


class TestZeroAndSpreadRules:
    """Derivation reads zero and unitary-proportional maps off one scale,
    the mean branch probability s = ||M||_F^2 / d."""

    @pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-9])
    def test_rare_branch_is_zero_not_lossy(self, eps):
        # The flag-1 maps are exactly eps * U, with s below ZERO_PROB.
        pattern = _flagged_phase(eps, entangled=False)
        table, failures = oracle.derive_corrections_with_failures(pattern)
        assert len(failures) == 0
        report = oracle.verify_pattern(pattern, corrections=table)
        assert report.zero_probability_outcomes == FLAG_ONE
        assert not report.passed
        loss = oracle.detect_information_loss(pattern)
        assert loss.zero_probability_outcomes == FLAG_ONE
        assert not loss.lossy and loss.outcomes == []

    def test_verify_zero_list_does_not_depend_on_the_last_input(self):
        # With the basis inputs alone the last input, |11>, used to serve as
        # the probe, and on it 32 of the 64 outcomes have probability zero;
        # yet every one of the 24 distinct maps is nonzero (s = 1/64), so no
        # outcome is a zero-probability one.
        pattern = catalog.build_pattern("cz-mismatched")
        report = _all_identity_loss_demo()
        last = report.pair_probabilities[report.pair_of, report.input_labels.index("|11>")]
        assert len(last) == 64 and (last < oracle.ZERO_PROB).sum() == 32
        distinct = oracle.outcome_maps(pattern).distinct
        assert len(distinct) == 24
        assert all(np.linalg.norm(m) ** 2 / 4 > 0.0156 for m in distinct)
        assert report.zero_probability_outcomes == []

    @pytest.mark.parametrize(
        "name", CATALOG_NAMES + ["chain-cz-3", "flagged-1e-06", "flagged-1e-09", "entangled-1e-03"]
    )
    def test_one_zero_rule(self, name):
        # Derivation's zero classes, verify's zero list and the loss check's
        # zero list name the outcomes whose map has s = ||M||_F^2 / d below
        # ZERO_PROB, whatever the seed.
        if name.startswith(("flagged", "entangled")):
            kind, eps = name.split("-", 1)
            pattern = _flagged_phase(float(eps), entangled=kind == "entangled")
        else:
            pattern = _catalog_pattern(name)
        maps = oracle.outcome_maps(pattern)
        scale = np.array([np.linalg.norm(m) ** 2 / m.shape[1] for m in maps.distinct])
        expected = pattern.layout.keys_at(np.flatnonzero(scale[maps.classes] < oracle.ZERO_PROB))
        table, failures = oracle.derive_corrections_with_failures(pattern)
        zero = pattern.layout.keys_at(np.flatnonzero(maps.facts.zero[maps.classes]))
        assert zero == expected
        # A zero class is no failure and gets the identity.
        failed = {key for key, _ in failures}
        assert all(key not in failed and table[key] == CorrectionOp.identity() for key in zero)
        for seed in (1, 7, 1337):
            report = oracle.verify_pattern(pattern, corrections=table, seed=seed)
            loss = oracle.detect_information_loss(pattern, seed=seed)
            assert report.zero_probability_outcomes == loss.zero_probability_outcomes == expected
        if name.startswith("flagged"):
            assert expected == FLAG_ONE

    @pytest.mark.parametrize("eps", [0.1, 1e-3, 3e-4])
    def test_partly_entangled_pair_is_not_unitary_at_any_scale(self, eps):
        pattern = _flagged_phase(eps, entangled=True)
        maps = oracle.outcome_maps(pattern)
        flag_one = maps[FLAG_ONE[0]]
        gram = flag_one.conj().T @ flag_one
        scale = np.trace(gram).real / 2
        assert np.linalg.norm(gram - scale * np.eye(2)) / scale == pytest.approx(2.83e-3, rel=1e-3)
        _, failures = oracle.derive_corrections_with_failures(pattern)
        assert [key for key, _ in failures] == FLAG_ONE
        # The map is full rank, so the reason adds its singular-value spread:
        # cos t / sin t = 1/tan(pi/4 + 1e-3), whatever eps scales it by.
        spread = 1 / np.tan(np.pi / 4 + 1e-3)
        assert spread == pytest.approx(0.998, abs=1e-4)
        expected = f"rank 2/2, not proportional to a unitary, singular-value spread min/max {spread:.6g}"
        assert {reason for _, reason in failures} == {expected}


# The catalog patterns whose derivation succeeds.
VERDICT_NAMES = [
    name for name in CATALOG_NAMES if name not in ("cz-mismatched", "cz-no-ee", "fredkin")
] + ["chain-cz-3"]

# One-wire Paulis up to phase, as factor chains; I, the empty chain, leaves
# a cell as it is.
PAULIS = [(), ("sx",), ("sz",), ("sz", "sx")]


@functools.lru_cache(maxsize=None)
def _verdict_tables(name):
    """The named pattern, its derived table, then its catalog reference
    table where it has one."""
    pattern = _catalog_pattern(name)
    entry = catalog.catalog_entries().get(name, {})
    reference = [entry["reference"]()] if "reference" in entry else []
    return pattern, [oracle.derive_corrections(pattern), *reference]


class TestExactVerdict:
    """``passed`` certifies each distinct (map, correction) pair, so it
    reads no input state and cannot depend on the seed; at the default
    tolerance it agrees with the sampled rule it replaced."""

    @pytest.mark.parametrize("name", VERDICT_NAMES)
    def test_verdict_does_not_depend_on_the_seed(self, name):
        pattern, tables_ = _verdict_tables(name)
        for i, table in enumerate(tables_):
            verdicts = {
                oracle.verify_pattern(pattern, corrections=table, seed=seed).passed
                for seed in (1, 7, 1337)
            }
            assert len(verdicts) == 1
            if i == 0:
                assert verdicts == {True}  # the derived table

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(VERDICT_NAMES), st.integers(0, 1 << 20), st.sampled_from(PAULIS),
        st.integers(0, 2), st.sampled_from([1, 7, 1337]),
    )
    def test_catalog_tables_with_one_pauli_cell(self, name, cell, pauli, wire, seed):
        pattern, (derived, *_) = _verdict_tables(name)
        cells = list(derived.items())
        key, op = cells[cell % len(cells)]
        wire %= pattern.num_outputs
        extra = tuple((factor, (wire,)) for factor in pauli)
        cells[cell % len(cells)] = (key, CorrectionOp(extra + op.factors))
        table = CorrectionTable.from_entries(cells, derived.layout)
        report = oracle.verify_pattern(pattern, corrections=table, seed=seed)
        assert report.passed == sampled_verdict(report) == (pauli == ())

    @settings(max_examples=60, deadline=None)
    @given(small_patterns(), st.sampled_from([1, 7, 1337]))
    def test_random_patterns(self, pattern, seed):
        table, _ = oracle.derive_corrections_with_failures(pattern)
        report = oracle.verify_pattern(pattern, corrections=table, seed=seed)
        assert report.passed == sampled_verdict(report)


def test_basis_inputs_catch_a_wrong_relative_phase(cnot_derived):
    # Up on wire 0 after the right recovery keeps every basis input's
    # fidelity at 1 but changes superpositions; the exact verdict catches
    # it whatever the inputs show.
    pattern, table = cnot_derived
    cells = list(table.items())
    key, op = cells[0]
    cells[0] = (key, CorrectionOp(op.factors + (("Up", (0,)),)))
    wrong = CorrectionTable.from_entries(cells, table.layout)
    for seed in (1, 1337, 7):
        report = oracle.verify_pattern(pattern, corrections=wrong, seed=seed)
        assert report.passed is False
        basis = report.fidelities[:, :4]
        assert report.input_labels[:4] == ["|00>", "|01>", "|10>", "|11>"]
        assert basis.min() >= 1 - 1e-9
