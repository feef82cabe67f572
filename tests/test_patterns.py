"""Pattern types, validation and the pattern document format."""
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from telegate import catalog, oracle, patterns, reports
from telegate import statevec as sv
from telegate.gates import CZ, PHASE, SX, SZ
from telegate.patterns import (
    ELEMENTARY_OPS,
    CorrectionOp,
    CorrectionTable,
    GatePattern,
    MeasurementGroup,
    PatternFormatError,
    load_pattern,
    pattern_from_document,
    pattern_to_document,
    save_pattern,
    validate_pattern,
)

from reference import (
    pattern_file_text,
    patterns_equal,
    reference_dictionary,
    reused_group_document,
    reused_resource_document,
    shuffled_document,
    small_patterns,
    wide_group_document,
)


class TestCorrectionOp:
    def test_identity_matrix(self):
        assert np.allclose(CorrectionOp.identity().matrix(2), np.eye(4))

    def test_single_factor_embedding(self):
        op = CorrectionOp((("sx", (1,)),))
        assert np.allclose(op.matrix(2), np.kron(np.eye(2), SX))

    def test_math_order(self):
        # Factors are written in matrix order: sz.sx means apply sx first.
        op = CorrectionOp((("sz", (0,)), ("sx", (0,))))
        assert np.allclose(op.matrix(1), SZ @ SX)

    def test_cz_composite(self):
        op = CorrectionOp.from_wire_products((("sz", "Up"), ("I",)), cz_pairs=((0, 1),))
        expected = CZ @ np.kron(SZ @ PHASE, np.eye(2))
        assert np.allclose(op.matrix(2), expected)

    def test_controlled_x_orientation(self):
        op = CorrectionOp((("Ucx", (1, 0)),))
        m = op.matrix(2)
        # control on wire 1 flips wire 0: |01> -> |11>
        state = np.zeros(4)
        state[0b01] = 1
        assert np.allclose(m @ state, np.eye(4)[0b11])

    def test_render_forms(self):
        assert CorrectionOp.identity().render(2) == "I x I"
        op = CorrectionOp.from_wire_products((("sz", "Up"), ("I",)), cz_pairs=((0, 1),))
        assert op.render(2) == "Ucz(sz.Up x I)"
        op3 = CorrectionOp((("Ucx", (1, 2)), ("sz", (0,))))
        assert op3.render(3) == "Ucx[1,2](sz x I x I)"

    def test_unknown_factor_rejected(self):
        with pytest.raises(PatternFormatError):
            CorrectionOp((("bogus", (0,)),)).matrix(1)
        # Also after a known factor, and again once the factors are cached.
        for _ in range(2):
            with pytest.raises(PatternFormatError, match="bogus"):
                CorrectionOp((("sx", (0,)), ("bogus", (1,)))).matrix(2)


def _reference_matrix(op: CorrectionOp, num_wires: int) -> np.ndarray:
    """The product with every factor embedded afresh on every call, as
    CorrectionOp.matrix built it before the embeddings were cached."""
    out = np.eye(1 << num_wires, dtype=complex)
    for name, wires in op.factors:
        out = out @ patterns._embed(ELEMENTARY_OPS[name], wires, num_wires)
    return out


class TestCachedFactors:
    def test_three_wire_full_ops_match_the_per_call_product_bitwise(self):
        for op in reference_dictionary(3, "full")[0]:
            assert op.matrix(3).tobytes() == _reference_matrix(op, 3).tobytes()

    def test_printed_table_ops_match_the_per_call_product_bitwise(self):
        checked = 0
        for name, entry in catalog.catalog_entries().items():
            pattern = catalog.build_pattern(name)
            tables = [entry[k]() for k in ("reference", "captioned") if k in entry]
            tables += [pattern.corrections] if pattern.corrections is not None else []
            n = pattern.num_outputs
            for table in tables:
                for op in table.values():
                    assert op.matrix(n).tobytes() == _reference_matrix(op, n).tobytes()
                    checked += 1
        assert checked > 0

    def test_cached_factors_are_shared_and_read_only(self):
        mat = patterns._factor_matrix("Ucx", (2, 0), 3)
        assert mat is patterns._factor_matrix("Ucx", (2, 0), 3)
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 2
        assert patterns._factor_matrix.cache_info().maxsize is not None


class TestValidation:
    def test_catalog_patterns_validate(self):
        for name in catalog.catalog_entries():
            kwargs = {"u": np.eye(2)} if name == "single-qubit" else {}
            if name == "chain-cz":
                kwargs["n"] = 2
            validate_pattern(catalog.build_pattern(name, **kwargs))

    def test_unsorted_group_labels_rejected(self):
        # Group 0 of cnot with its vectors and labels listed in reverse.
        pattern = catalog.cnot_pattern()
        group = pattern.groups[0]
        flipped = MeasurementGroup(
            group.qubits, sv.MeasurementBasis(group.basis.num_qubits, group.basis.vectors[::-1]), group.labels[::-1]
        )
        bad = dataclasses.replace(pattern, groups=(flipped, *pattern.groups[1:]))
        with pytest.raises(PatternFormatError) as err:
            validate_pattern(bad)
        assert str(err.value) == "group 0 labels are not in sorted order"

    def test_resource_overlap_rejected(self):
        pattern = catalog.phase_gate_pattern()
        bad = GatePattern(
            name="bad",
            num_qubits=3,
            input_wires=(0,),
            resources=(
                ((1, 2), catalog.pair_state("phi+")),
                ((2,), sv.from_ket_expression(1, [(1, "0")])),
            ),
            groups=pattern.groups,
            output_wires=(2,),
            target=pattern.target,
        )
        with pytest.raises(PatternFormatError, match="qubit 2"):
            validate_pattern(bad)

    def test_unprepared_qubit_rejected(self):
        pattern = catalog.phase_gate_pattern()
        bad = GatePattern(
            name="bad",
            num_qubits=4,
            input_wires=(0,),
            resources=(((1, 2), catalog.pair_state("phi+")),),
            groups=pattern.groups,
            output_wires=(2, 3),
            target=np.eye(4),
        )
        with pytest.raises(PatternFormatError, match="no preparation"):
            validate_pattern(bad)

    def test_incomplete_basis_rejected(self):
        pattern = catalog.phase_gate_pattern()
        group = pattern.groups[0]
        truncated = MeasurementGroup(
            group.qubits,
            sv.MeasurementBasis(2, group.basis.vectors[:3]),
            group.labels[:3],
        )
        bad = GatePattern(
            name="bad",
            num_qubits=3,
            input_wires=(0,),
            resources=pattern.resources,
            groups=(truncated,),
            output_wires=(2,),
            target=pattern.target,
        )
        with pytest.raises(PatternFormatError, match="completeness"):
            validate_pattern(bad)

    @staticmethod
    def _cnot_with_first_basis(basis, labels=None):
        pattern = catalog.cnot_pattern()
        group = pattern.groups[0]
        first = MeasurementGroup(group.qubits, basis, group.labels if labels is None else labels)
        return dataclasses.replace(pattern, groups=(first, *pattern.groups[1:]))

    def test_basis_wider_than_its_group_rejected(self):
        # cnot's first basis placed in columns 16-31 of 32: orthonormal and
        # complete, but over amplitudes its 4 measured qubits do not have.
        vectors = catalog.cnot_pattern().groups[0].basis.vectors
        wide = np.zeros((16, 32), dtype=complex)
        wide[:, 16:] = vectors
        bad = self._cnot_with_first_basis(sv.MeasurementBasis(4, wide))
        with pytest.raises(PatternFormatError) as err:
            validate_pattern(bad)
        assert str(err.value) == (
            "group 0 basis has 4 qubits and vectors of 32 amplitudes, "
            "expected 4 and 16 for its 4 measured qubits"
        )

    def test_basis_on_another_qubit_count_rejected(self):
        # A complete 3-qubit basis with 8 labels, in a 4-qubit group.
        pattern = catalog.cnot_pattern()
        labels = pattern.groups[0].labels[:8]
        bad = self._cnot_with_first_basis(sv.MeasurementBasis(3, np.eye(8, dtype=complex)), labels)
        with pytest.raises(PatternFormatError) as err:
            validate_pattern(bad)
        assert str(err.value) == (
            "group 0 basis has 3 qubits and vectors of 8 amplitudes, "
            "expected 4 and 16 for its 4 measured qubits"
        )

    def test_basis_without_vectors_rejected(self):
        bad = self._cnot_with_first_basis(sv.MeasurementBasis(4, np.zeros((0, 16), dtype=complex)), ())
        with pytest.raises(PatternFormatError) as err:
            validate_pattern(bad)
        assert str(err.value) == "group 0 basis has 0 vectors, expected 16 (completeness violation)"

    def test_double_measured_qubit_rejected(self):
        cz = catalog.controlled_z_pattern("h")
        groups = (cz.groups[0], MeasurementGroup((1, 2, 7), cz.groups[1].basis, cz.groups[1].labels))
        bad = GatePattern(
            name="bad",
            num_qubits=8,
            input_wires=cz.input_wires,
            resources=cz.resources,
            groups=groups,
            output_wires=(3, 4, 6),
            target=np.eye(8),
        )
        with pytest.raises(PatternFormatError, match="measured by both"):
            validate_pattern(bad)

    def test_non_unitary_target_rejected(self):
        pattern = catalog.phase_gate_pattern()
        bad = GatePattern(
            name="bad",
            num_qubits=3,
            input_wires=(0,),
            resources=pattern.resources,
            groups=pattern.groups,
            output_wires=(2,),
            target=np.array([[1, 1], [0, 1]], dtype=complex),
        )
        with pytest.raises(PatternFormatError, match="unitary"):
            validate_pattern(bad)


def _derived(pattern):
    table, _ = oracle.derive_corrections_with_failures(pattern)
    return pattern.with_corrections(table)


# Every catalog pattern as built (three carry the paper's corrections) and
# with the corrections derivation finds, and a derived chain.
SAVED = {
    **{name: (lambda name=name: catalog.build_pattern(name)) for name in catalog.catalog_entries()},
    **{
        f"{name}-derived": (lambda name=name: _derived(catalog.build_pattern(name)))
        for name in catalog.catalog_entries()
    },
    "chain-cz-3-derived": lambda: _derived(catalog.chain_cz_pattern(3).with_target(CZ)),
}


class TestDocuments:
    def test_round_trip_phase(self, tmp_path):
        pattern = catalog.phase_gate_pattern()
        path = tmp_path / "phase.json"
        save_pattern(pattern, path)
        loaded = load_pattern(path)
        assert patterns_equal(pattern, loaded, atol=1e-12)
        assert loaded.corrections is not None
        for key in pattern.corrections.keys():
            assert np.allclose(
                loaded.corrections[key].matrix(1), pattern.corrections[key].matrix(1)
            )

    @pytest.mark.parametrize("name", ["cz", "cnot", "triple-cz"])
    def test_round_trip_catalog(self, tmp_path, name):
        pattern = catalog.build_pattern(name)
        path = tmp_path / f"{name}.json"
        save_pattern(pattern, path)
        assert patterns_equal(pattern, load_pattern(path), atol=1e-12)

    @staticmethod
    def _save_load_save(pattern) -> tuple[bytes, GatePattern, bytes]:
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
            save_pattern(pattern, first)
            loaded = load_pattern(first)
            save_pattern(loaded, second)
            return first.read_bytes(), loaded, second.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(small_patterns())
    def test_random_patterns_round_trip_amplitudes(self, pattern):
        _, loaded, _ = self._save_load_save(pattern)
        assert patterns_equal(pattern, loaded, atol=1e-12)

    @settings(max_examples=20, deadline=None, phases=[Phase.generate])
    @given(small_patterns())
    def test_save_load_save_gives_the_same_bytes(self, pattern):
        first, _, second = self._save_load_save(pattern)
        assert second == first

    @pytest.mark.parametrize("name", sorted(catalog.catalog_entries()))
    def test_catalog_documents_load_as_the_patterns_that_wrote_them(self, name):
        # A unit vector loads as written, not divided by its computed norm,
        # so the loaded pattern has the writer's amplitudes and maps.
        pattern = catalog.build_pattern(name)
        loaded = pattern_from_document(pattern_to_document(pattern))
        for (wires, state), (loaded_wires, loaded_state) in zip(pattern.resources, loaded.resources, strict=True):
            assert wires == loaded_wires
            assert np.array_equal(state.amps, loaded_state.amps)
        for group, loaded_group in zip(pattern.groups, loaded.groups, strict=True):
            assert np.array_equal(group.basis.vectors, loaded_group.basis.vectors)
        maps, loaded_maps = oracle.outcome_maps(pattern), oracle.outcome_maps(loaded)
        assert np.array_equal(maps.distinct, loaded_maps.distinct)
        assert np.array_equal(maps.classes, loaded_maps.classes)

    @pytest.mark.parametrize("name", sorted(catalog.catalog_entries()))
    def test_catalog_documents_are_save_load_save_fixed_points(self, name):
        # The first term at an amplitude is placed, not added to 0.0, so a
        # -0.0 part (the real part of -1j, say) is written back as -0.0.
        first, _, second = self._save_load_save(catalog.build_pattern(name))
        assert second == first

    @pytest.mark.parametrize("name", sorted(catalog.catalog_entries()))
    def test_catalog_documents_verify_as_the_patterns_that_wrote_them(self, name):
        pattern = SAVED[f"{name}-derived"]()
        loaded = pattern_from_document(pattern_to_document(pattern))
        written, read = (oracle.verify_pattern(p, corrections=p.corrections) for p in (pattern, loaded))
        for f in dataclasses.fields(oracle.VerificationReport):
            ours, theirs = getattr(written, f.name), getattr(read, f.name)
            if isinstance(ours, np.ndarray):
                assert np.array_equal(ours, theirs, equal_nan=True), f.name
            elif f.name != "notes":
                assert ours == theirs, f.name

    @staticmethod
    def _report_texts(pattern) -> tuple[str, ...]:
        verified = oracle.verify_pattern(pattern)
        loss = oracle.detect_information_loss(pattern)
        return (
            reports.render_verification(verified),
            "".join(reports.verification_json_pieces(verified)),
            "".join(reports.verification_csv_pieces(verified)),
            reports.render_loss(loss),
            reports.dumps(reports.loss_to_doc(loss)),
        )

    @settings(max_examples=50, deadline=None)
    @given(small_patterns(), st.integers(0, 2**16))
    def test_shuffled_random_documents_give_the_same_reports(self, pattern, seed):
        # A random pattern with an all-identity table over its layout, saved
        # and loaded as written and with its vectors and cells shuffled: one
        # pattern, so verify's and loss-check's reports keep their bytes.
        identity = CorrectionOp.identity()
        table = CorrectionTable.from_entries({key: identity for key in pattern.layout}, pattern.layout)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "random.json")
            save_pattern(pattern.with_corrections(table), path)
            doc = json.loads(path.read_text())
        written, shuffled = (pattern_from_document(d) for d in (doc, shuffled_document(doc, seed)))
        assert self._report_texts(written) == self._report_texts(shuffled)

    @pytest.mark.parametrize("block", [3, 256])
    @pytest.mark.parametrize("name", sorted(SAVED))
    def test_saved_bytes_equal_one_json_dump(self, tmp_path, monkeypatch, name, block):
        # Blocks of 3 outcomes end inside every group's labels; fredkin's
        # and cz-mismatched's partial tables leave outcomes without a cell.
        pattern = SAVED[name]()
        monkeypatch.setattr(patterns, "_WRITE_BLOCK", block)
        path = tmp_path / f"{name}.json"
        save_pattern(pattern, path)
        assert path.read_bytes() == pattern_file_text(pattern).encode("utf-8")
        loaded = load_pattern(path)
        assert patterns_equal(pattern, loaded, atol=1e-12)
        if pattern.corrections is None:
            assert loaded.corrections is None
        else:
            assert dict(loaded.corrections.items()) == dict(pattern.corrections.items())

    @pytest.mark.parametrize(
        "name", ["cnot-derived", "cz-mismatched-derived", "fredkin-derived", "chain-cz-3-derived"]
    )
    def test_shuffled_document_saves_the_sorted_bytes(self, tmp_path, name):
        # Groups are listed in label order on load, whatever the order of
        # the document's vectors and correction cells. Loading renormalizes
        # amplitudes, so both files are written from a loaded document.
        doc = pattern_to_document(SAVED[name]())
        shuffled = shuffled_document(doc, seed=7)
        assert shuffled["groups"] != doc["groups"]
        paths = tmp_path / "sorted.json", tmp_path / "shuffled.json"
        for path, loaded in zip(paths, map(pattern_from_document, (doc, shuffled))):
            save_pattern(loaded, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unnormalized_amplitudes_renormalized(self, tmp_path):
        doc = pattern_to_document(catalog.phase_gate_pattern())
        for term in doc["resources"][0]["terms"]:
            term["coeff"] = [term["coeff"][0] * 3.0, term["coeff"][1] * 3.0]
        loaded = pattern_from_document(doc)
        assert np.allclose(np.linalg.norm(loaded.resources[0][1].amps), 1.0)

    def test_seven_vector_basis_names_group(self, tmp_path):
        doc = pattern_to_document(catalog.controlled_z_pattern("h"))
        del doc["groups"][0]["vectors"][3]
        with pytest.raises(PatternFormatError, match="group 0.*completeness"):
            pattern_from_document(doc)

    def test_redeclared_qubit_is_disjointness_error(self):
        doc = pattern_to_document(catalog.controlled_z_pattern("h"))
        doc["resources"][1]["qubits"] = [2, 5]  # qubit 2 already in the linking pair
        with pytest.raises(PatternFormatError, match="qubit 2"):
            pattern_from_document(doc)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PatternFormatError):
            load_pattern(path)

    def test_non_orthogonal_vectors_rejected(self):
        doc = pattern_to_document(catalog.phase_gate_pattern())
        doc["groups"][0]["vectors"][1]["terms"] = doc["groups"][0]["vectors"][0]["terms"]
        with pytest.raises(PatternFormatError, match="orthonormal"):
            pattern_from_document(doc)


def test_wide_group_is_refused_in_little_memory():
    # A 12-qubit group's dense basis would take 2 * 4^12 * 16 bytes (512
    # MiB) at load; refused by its width, the document costs almost none.
    import tracemalloc

    doc = wide_group_document(sv.MAX_REGISTER_QUBITS // 2 + 1)
    tracemalloc.start()
    try:
        with pytest.raises(PatternFormatError, match="group 0 has 12 qubits"):
            pattern_from_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "doc,bound,error",
    [
        (reused_resource_document(8, 20), 24, "qubit 1 declared by both resource and a resource"),
        (reused_group_document(3, 10), 40, "qubit 0 measured by both group 0 and group 1"),
    ],
    ids=["8-resources-of-20-qubits", "3-groups-of-10-qubits"],
)
def test_reused_qubits_are_refused_in_little_memory(doc, bound, error):
    # Each entry claims its qubits before it builds its state (16 MiB for 20
    # qubits) or its basis (16 MiB for 10): only the first entry allocates,
    # however many repeat its qubits.
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(PatternFormatError) as err:
            pattern_from_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == error
    assert peak < bound * 2**20


@pytest.mark.parametrize("seed", [None, 3], ids=["label-order", "shuffled"])
def test_group_basis_is_held_once_while_loading(seed):
    # A 10-qubit computational-basis group is a 16 MiB basis. Each vector is
    # parsed into its row of one array and the rows are sorted in place, so
    # the load never holds the basis twice, whatever the vectors' order.
    import tracemalloc

    doc = wide_group_document(10)
    if seed is not None:
        doc = shuffled_document(doc, seed)
    tracemalloc.start()
    try:
        pattern = pattern_from_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20
    assert pattern.groups[0].labels == tuple((i,) for i in range(1024))
    assert np.array_equal(pattern.groups[0].basis.vectors, np.eye(1024))


@pytest.mark.parametrize("count", [3, 0])
def test_table_needs_a_cell_for_every_outcome(count):
    pattern = catalog.phase_gate_pattern()
    cells = list(pattern.corrections.items())[:count]
    with pytest.raises(PatternFormatError) as err:
        CorrectionTable.from_entries(cells, pattern.layout)
    assert str(err.value) == f"correction table has {count} entries, expected 4"


@pytest.mark.parametrize("edit", ["minus-one", "past-the-ops", "short"])
def test_table_index_must_give_every_outcome_an_op(edit):
    table = catalog.phase_gate_pattern().corrections
    index = table.index.copy()
    if edit == "short":
        index = index[:3]
    else:
        index[1] = -1 if edit == "minus-one" else len(table.ops)
    with pytest.raises(PatternFormatError) as err:
        CorrectionTable(table.layout, table.ops, index)
    assert str(err.value) == "correction index must give each of 4 outcomes one of 4 ops"


def test_default_layout_sorts_each_key_slot():
    op = CorrectionOp.identity()
    keys = [((1, "-"), (1,)), ((0, "+"), (0,)), ((1, "-"), (0,)), ((0, "+"), (1,))]
    table = CorrectionTable.from_entries([(key, op) for key in keys])
    assert table.layout.labels == (((0, "+"), (1, "-")), ((0,), (1,)))
    pattern = catalog.cnot_pattern()
    cells = [(key, op) for key in pattern.layout]
    assert CorrectionTable.from_entries(reversed(cells)).layout == pattern.layout


def test_package_exports_the_layout_and_failures():
    import telegate

    for name, owner in (("OutcomeLayout", patterns), ("DerivationFailures", oracle)):
        assert name in telegate.__all__
        assert getattr(telegate, name) is getattr(owner, name)
