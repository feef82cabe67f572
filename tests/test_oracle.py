"""Oracle behaviour: enumeration, derivation, verification, loss, parity."""
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telegate import catalog, oracle, tables
from telegate import statevec as sv
from telegate.gates import CPHASE, CZ, HADAMARD, random_state, random_unitary
from telegate.patterns import (
    CorrectionOp,
    CorrectionTable,
    MeasurementGroup,
    pattern_from_document,
    pattern_to_document,
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

    def test_annihilated_branches_flagged_as_zero_probability(self):
        # The mismatched controlled-Z configuration kills the inner input
        # components, so a pure |01> input never reaches aligned outcomes.
        pattern = catalog.cz_mismatched_pattern()
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
                p, post = sv.project(state, group.basis.vector(idx), local)
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


class TestOutcomeMaps:
    @pytest.mark.parametrize("name", ["phase", "cnot", "triple-cz"])
    def test_mapping_follows_outcome_keys_and_stack(self, name):
        pattern = catalog.build_pattern(name)
        maps = oracle.outcome_maps(pattern)
        keys = pattern.outcome_keys
        assert list(maps) == keys
        assert len(maps) == len(keys) == maps.stack.shape[0]
        dim_in = 1 << len(pattern.input_wires)
        assert maps.stack.shape[1:] == (1 << pattern.num_outputs, dim_in)
        for i, key in enumerate(keys):
            assert np.array_equal(maps[key], maps.stack[i])
        assert [k for k, _ in maps.items()] == keys
        assert all(np.array_equal(m, maps.stack[i]) for i, m in enumerate(maps.values()))

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
        contract = oracle._stacked_maps
        monkeypatch.setattr(oracle, "_stacked_maps", lambda *a: calls.append(1) or contract(*a))
        pattern = catalog.cnot_pattern()
        maps = oracle.outcome_maps(pattern)
        assert oracle.outcome_maps(pattern) is maps
        assert len(calls) == 1
        retargeted = pattern.with_target(pattern.target)
        assert oracle.outcome_maps(retargeted) is not maps
        assert np.array_equal(oracle.outcome_maps(retargeted).stack, maps.stack)
        assert len(calls) == 2
        assert oracle.outcome_maps(pattern.with_corrections(None)) is maps
        assert len(calls) == 2

    def test_enumeration_reads_the_memoised_maps(self, monkeypatch):
        pattern = catalog.cnot_pattern()
        maps = oracle.outcome_maps(pattern)
        calls = []
        contract = oracle._stacked_maps
        monkeypatch.setattr(oracle, "_stacked_maps", lambda *a: calls.append(1) or contract(*a))
        state = sv.from_ket_expression(2, [(1, "01"), (1j, "10")])
        records = oracle.enumerate_outcomes(pattern, state)
        assert calls == []
        for record, m in zip(records, maps.values()):
            branch = m @ state.amps
            assert record.probability == pytest.approx(np.vdot(branch, branch).real, abs=1e-15)

    @staticmethod
    def _crafted(*rows):
        # The phase pattern has four outcomes of 2x2 maps.
        return oracle.OutcomeMaps(catalog.phase_gate_pattern(), np.array(rows, dtype=complex))

    def test_bitwise_equal_maps_share_a_class_in_first_occurrence_order(self):
        a, b = np.eye(2), np.array([[0, 1], [1, 0]])
        reps, classes = self._crafted(b, a, b, a).classes
        assert reps.tolist() == [0, 1]
        assert classes.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("make", [
        lambda: catalog.chain_cz_pattern(3), lambda: catalog.build_pattern("triple-cz"),
    ], ids=["chain-cz-3", "triple-cz"])
    def test_classes_are_exactly_the_distinct_maps(self, make):
        maps = oracle.outcome_maps(make())
        reps, classes = maps.classes
        words = maps.stack.reshape(len(maps), -1).view(np.uint64)
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
        reps, classes = self._crafted(a, negzero, ulp, a).classes
        assert reps.tolist() == [0, 1, 2]
        assert classes.tolist() == [0, 1, 2, 0]

    def test_per_map_arithmetic_runs_once_per_distinct_map(self, monkeypatch):
        rows = []
        needed = oracle._needed_corrections
        monkeypatch.setattr(
            oracle, "_needed_corrections", lambda m, t: rows.append(len(m)) or needed(m, t)
        )
        pattern = catalog.chain_cz_pattern(3)
        oracle.derive_corrections(pattern)
        assert len(pattern.outcome_keys) == 1024
        assert sum(rows) == 32


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
    """The contraction over basis nonzeros against a dense matmul of every
    group's basis, kept here as the reference."""

    # A K-term sum of products of entries bounded by 1 in magnitude; groups
    # here have K <= 32 columns, each term rounding by about one ulp.
    TOL = 64 * np.finfo(float).eps

    @staticmethod
    def _dense_maps(pattern):
        t, qubits = oracle._register(pattern)
        dim = t.shape[-1]
        for group in pattern.groups:
            axes = [qubits.index(q) + 1 for q in group.qubits]
            k = len(axes)
            flat = np.moveaxis(t, axes, range(1, k + 1)).reshape(t.shape[0], 1 << k, -1)
            qubits = [q for q in qubits if q not in group.qubits]
            t = (group.basis.vectors.conj() @ flat).reshape([-1] + [2] * len(qubits) + [dim])
        perm = [qubits.index(w) + 1 for w in pattern.output_wires]
        return t.transpose([0] + perm + [len(qubits) + 1]).reshape(t.shape[0], -1, dim)

    @pytest.mark.parametrize("name", sorted(CONTRACTED))
    def test_matches_dense_reference(self, name):
        pattern = CONTRACTED[name]()
        maps = oracle.outcome_maps(pattern).stack
        dense = self._dense_maps(pattern)
        assert maps.shape == dense.shape
        np.testing.assert_allclose(maps, dense, rtol=0, atol=self.TOL)

    @pytest.mark.parametrize("budget", [1, 5, 37])
    @pytest.mark.parametrize("name", ["chain-cz-3", "triple-cz", "cz-dense-basis"])
    def test_gather_budget_does_not_change_results(self, monkeypatch, name, budget):
        # Budgets under one column of every basis row, and budgets whose
        # column chunks end inside an outcome's columns, split each sum
        # only between independent entries, so the bits do not move.
        exact = oracle.outcome_maps(CONTRACTED[name]()).stack
        monkeypatch.setattr(oracle, "_GATHER", budget)
        chunked = oracle.outcome_maps(CONTRACTED[name]()).stack
        assert np.array_equal(chunked.view(np.uint64), exact.view(np.uint64))

    def test_rows_of_unequal_width(self):
        # Rows padded with zero coefficients up to the widest row's count.
        rng = np.random.default_rng(5)
        vectors = random_unitary(4, rng)
        vectors[0] = [1, 0, 0, 0]
        vectors[2, 1:3] = 0
        flat = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
        np.testing.assert_allclose(
            oracle._contract(vectors, flat), vectors.conj() @ flat, rtol=0, atol=self.TOL
        )


def _full_grid_summaries(report):
    """The report's summaries recomputed from the full (outcomes, inputs)
    grids, the way they were computed before the grids were kept per pair."""
    fids, probs = report.fidelities, report.probabilities
    keys = report.outcome_keys
    finite = np.isfinite(fids)
    if finite.any():
        wo, wi = np.unravel_index(np.where(finite, fids, np.inf).argmin(), fids.shape)
        worst = (float(fids[finite].min()), keys[wo], report.input_labels[wi])
    else:
        worst = (0.0, None, None)
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
    table = CorrectionTable({key: CorrectionOp.identity() for key in pattern.outcome_keys})
    return oracle.verify_pattern(pattern, corrections=table, loss_demo=True)


def _minimum_in_two_pairs():
    # Outcomes 1 (class 1) and 6 (a later outcome of class 0) get a wrong
    # flip that zeroes some fidelities. Pairs are numbered by (class, op),
    # so the pair of outcome 6 comes before that of outcome 1, although
    # outcome 1 holds the first minimum.
    pattern = catalog.chain_cz_pattern(3)
    keys = pattern.outcome_keys
    entries = dict(oracle.derive_corrections(pattern).entries)
    for i in (1, 6):
        entries[keys[i]] = CorrectionOp(entries[keys[i]].factors + (("sx", (0,)),))
    return oracle.verify_pattern(pattern, corrections=CorrectionTable(entries))


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
        assert report.worst_outcome == report.outcome_keys[firsts[1]]

    def test_grids_are_gathered_from_the_pair_rows(self):
        report = _verified("chain-cz-3")
        assert len(report.pair_fidelities) == 32 < len(report.outcome_keys) == 1024
        assert np.array_equal(report.fidelities, report.pair_fidelities[report.pair_of])
        assert np.array_equal(report.probabilities, report.pair_probabilities[report.pair_of])
        assert report.fidelities is report.fidelities

    @pytest.mark.parametrize("columns", [1, 2, 30])
    def test_column_sums_match_numpy_bit_for_bit(self, monkeypatch, columns):
        # One column is summed pairwise by numpy, several row by row.
        rng = np.random.default_rng(columns)
        rows = rng.random((40, columns)) * 10.0 ** rng.integers(-20, 3, (40, columns))
        pair_of = rng.integers(0, 40, 5000)
        monkeypatch.setattr(oracle, "_BLOCK", 7)
        sums = oracle._column_sums(rows, pair_of)
        assert np.array_equal(sums.view(np.int64), rows[pair_of].sum(axis=0).view(np.int64))

    def test_table_key_order_does_not_change_the_report(self):
        # A derived table read in key order, and the same entries inserted
        # in reverse, which the verifier must look up key by key.
        pattern = catalog.chain_cz_pattern(3)
        table = oracle.derive_corrections(pattern)
        reordered = CorrectionTable(dict(reversed(list(table.entries.items()))))
        assert list(reordered.entries) != pattern.outcome_keys
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
    def test_contains_identity_first(self):
        d = oracle.correction_dictionary(2, "pauli_phase")
        assert d.ops[0].render(2) == "I x I"

    def test_contains_all_two_wire_pauli_strings(self):
        d = oracle.correction_dictionary(2, "pauli_phase")
        paulis = {
            "I": np.eye(2),
            "X": np.array([[0, 1], [1, 0]]),
            "Y": np.array([[0, -1j], [1j, 0]]),
            "Z": np.diag([1, -1]),
        }
        for a in paulis.values():
            for b in paulis.values():
                want = np.kron(a, b).astype(complex)
                assert any(
                    oracle._equal_up_to_phase(m, want) for m in d.matrices
                )

    def test_candidates_pairwise_inequivalent(self):
        d = oracle.correction_dictionary(1, "pauli_phase")
        for i in range(len(d.ops)):
            for j in range(i + 1, len(d.ops)):
                assert not oracle._equal_up_to_phase(d.matrices[i], d.matrices[j])

    def test_sorted_by_weight(self):
        d = oracle.correction_dictionary(2, "full")
        weights = [op.weight for op in d.ops]
        assert weights == sorted(weights)

    @pytest.mark.parametrize("num_wires,vocabulary", [(1, "pauli_phase"), (2, "full"), (3, "full")])
    def test_matrices_equal_op_matrices_exactly(self, num_wires, vocabulary):
        d = oracle.correction_dictionary(num_wires, vocabulary)
        assert np.array_equal(d.matrices, np.stack([op.matrix(num_wires) for op in d.ops]))
        assert set(np.unique(d.matrices).tolist()) <= {0, 1, -1, 1j, -1j}

    def test_signature_index_names_the_first_equivalent_op(self):
        d = oracle.correction_dictionary(3, "full")
        for k in (0, 1, 100, 2000, len(d.ops) - 1):
            found = d.index[oracle._signatures(d.matrices[k : k + 1] * 1j)[0].tobytes()]
            assert found <= k
            assert oracle._equal_up_to_phase(d.matrices[found], d.matrices[k])

    @pytest.mark.parametrize("vocabulary", ["pauli_phase", "full"])
    def test_shared_signature_still_confirms_each_recovery(self, vocabulary):
        d = oracle.correction_dictionary(2, vocabulary)
        k = 5
        perturbed = d.matrices[k].copy()
        perturbed[np.abs(perturbed) == 0] += 0.1  # same signature, not a match
        stack = np.stack([d.matrices[k], perturbed])
        sigs = oracle._signatures(stack)
        assert np.array_equal(sigs[0], sigs[1])
        assert oracle._name_recoveries(stack, d, {}) == [d.ops[k], None]

    def test_full_three_wire_includes_entanglers(self):
        d = oracle.correction_dictionary(3, "full")
        names = {f for op in d.ops for f, _ in op.factors}
        assert "Ucx" in names and "Ucz" in names


class TestDecomposeMonomial:
    def test_round_trips_vocabulary_products(self):
        rng = np.random.default_rng(5)
        d = oracle.correction_dictionary(3, "full")
        for idx in rng.choice(len(d.ops), size=25, replace=False):
            mat = d.matrices[idx] * np.exp(1j * rng.uniform(0, 2 * np.pi))
            op = oracle.decompose_monomial(mat, 3)
            assert op is not None
            assert oracle._equal_up_to_phase(op.matrix(3), mat)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_round_trips_arbitrary_factor_words(self, data):
        # Any product of vocabulary factors in any order on any wires must
        # decompose back to an equivalent operator.
        num_wires = data.draw(st.integers(1, 3))
        length = data.draw(st.integers(0, 6))
        factors = []
        for _ in range(length):
            name = data.draw(
                st.sampled_from(["sx", "sz", "Up", "Ucz", "Ucx"])
                if num_wires >= 2
                else st.sampled_from(["sx", "sz", "Up"])
            )
            if name in ("Ucz", "Ucx"):
                pair = data.draw(
                    st.permutations(range(num_wires)).map(lambda p: tuple(p[:2]))
                )
                factors.append((name, pair))
            else:
                wire = data.draw(st.integers(0, num_wires - 1))
                factors.append((name, (wire,)))
        phase = np.exp(1j * data.draw(st.floats(0, 2 * np.pi)))
        mat = CorrectionOp(tuple(factors)).matrix(num_wires) * phase
        op = oracle.decompose_monomial(mat, num_wires)
        assert op is not None
        assert oracle._equal_up_to_phase(op.matrix(num_wires), mat)

    def test_bare_controlled_x_between_first_wires(self):
        mat = CorrectionOp((("Ucx", (0, 1)),)).matrix(3)
        op = oracle.decompose_monomial(mat, 3)
        assert op is not None
        assert oracle._equal_up_to_phase(op.matrix(3), mat)

    def test_hadamard_is_out_of_vocabulary(self):
        assert oracle.decompose_monomial(np.kron(HADAMARD, np.eye(4)), 3) is None

    def test_cubic_phase_is_out_of_vocabulary(self):
        ccz = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
        assert oracle.decompose_monomial(ccz, 3) is None


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
        pattern = catalog.cz_mismatched_pattern()
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
        report = oracle.detect_information_loss(catalog.cz_mismatched_pattern())
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
            report = oracle.detect_information_loss(catalog.cz_no_link_pattern(basis))
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


class TestParameterizedPhase:
    def test_all_ones_gives_controlled_z(self):
        op = oracle.parameterized_phase_check(1, 1, 1, 1, 1)
        assert oracle.operator_distance(op, CZ) < 1e-9

    def test_quarter_turn_on_k(self):
        op = oracle.parameterized_phase_check(1j, 1, 1, 1, 1)
        expected = np.diag([1, 1, -1j, 1j]).astype(complex)
        assert oracle.operator_distance(op, expected) < 1e-9

    def test_simulation_matches_closed_form_on_proving_grid(self):
        # Covered inside the grid search (multilinear pinning); a direct
        # sample with complex parameters double-checks the conjugations.
        k, kt, p, m, n = 1j, -1j, -1, 1j, 1
        op = oracle.parameterized_phase_check(k, kt, p, m, n)
        form = oracle._parameterized_phase_form(k, kt, p, m, n)
        assert oracle.operator_distance(op, form) < 1e-9

    def test_grid_search_minimum_is_large(self):
        dist, argmin = oracle.phase_parameter_grid_search(3)
        assert dist > 0.1
        assert len(argmin) == 5

    def test_closest_form_is_still_far_from_controlled_phase(self):
        # Forcing the (1,1) and (2,2) entries to match leaves the (3,3)
        # entry at -1 instead of i.
        op = oracle._parameterized_phase_form(1, 1, 1, 1, 1)
        assert oracle.operator_distance(op, CPHASE) > 0.1


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

    def test_loss_report_flags_rank_deficiency(self, fredkin_partial):
        pattern, _, _ = fredkin_partial
        report = oracle.detect_information_loss(pattern)
        assert len(report.outcomes) == 4096
        assert all(o.rank == 4 for o in report.outcomes)


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
    "fredkin": ("b9ad99350d3f81d0", 4096, "cc6edf87aebc0861"),
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

    def test_derivation_error_names_the_reason(self):
        pattern = catalog.chain_cz_pattern(2).with_target(CZ)
        with pytest.raises(oracle.DerivationError, match="outside the pauli_phase vocabulary"):
            oracle.derive_corrections(pattern)


class TestVerifyMechanics:
    def test_missing_table_raises(self):
        with pytest.raises(oracle.MissingCorrectionError):
            oracle.verify_pattern(catalog.controlled_z_pattern("h"))

    def test_missing_entry_names_outcome(self):
        pattern = catalog.phase_gate_pattern()
        partial = CorrectionTable(dict(list(pattern.corrections.entries.items())[:3]))
        with pytest.raises(oracle.MissingCorrectionError, match=r"\(4\)"):
            oracle.verify_pattern(pattern, corrections=partial)

    def test_compare_tables_flags_forced_diff(self):
        pattern = catalog.phase_gate_pattern()
        derived = oracle.derive_corrections(pattern)
        tampered = dict(derived.entries)
        key = ((1,),)
        tampered[key] = CorrectionOp((("sx", (0,)),))
        diff = oracle.compare_tables(CorrectionTable(tampered), pattern.corrections, 1)
        assert diff.mismatch_count == 1
        assert diff.mismatches[0][0] == key

    def test_compare_tables_rejects_key_mismatch(self):
        pattern = catalog.phase_gate_pattern()
        partial = CorrectionTable(dict(list(pattern.corrections.entries.items())[:3]))
        with pytest.raises(sv.UsageError):
            oracle.compare_tables(partial, pattern.corrections, 1)

    def test_wrong_correction_fails_verification(self):
        pattern = catalog.phase_gate_pattern()
        tampered = dict(pattern.corrections.entries)
        tampered[((2,),)] = CorrectionOp((("sx", (0,)),))
        report = oracle.verify_pattern(pattern, corrections=CorrectionTable(tampered))
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
                reports.verification_to_json(report),
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
        rigged_corrections = CorrectionTable(dict(pattern.corrections.entries))
        rigged_corrections.entries[((5,),)] = rigged_corrections.entries[((1,),)]
        rigged = dataclasses.replace(
            pattern, groups=(rigged_group,), corrections=rigged_corrections
        )
        report = oracle.verify_pattern(rigged)
        assert report.min_fidelity >= 1 - 1e-9
        assert not report.passed
        assert any("probability sums" in note for note in report.notes)
        assert report.probability_sums.max() == pytest.approx(1.25, abs=1e-9)
