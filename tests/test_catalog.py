"""Catalog wiring and basis invariants."""
import numpy as np
import pytest

from telegate import catalog
from telegate import statevec as sv
from telegate.gates import CZ, HADAMARD, double_cz
from telegate.patterns import PatternFormatError, patterns_equal

ALL_NAMES = [
    "single-qubit", "phase", "pi8", "cz", "cz-mismatched", "cz-no-ee",
    "chain-cz", "triple-cz", "controlled-phase", "cnot", "swap",
    "toffoli", "fredkin",
]


def build(name):
    return catalog.build_pattern(name, **({"n": 3} if name == "chain-cz" else {}))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_group_basis_is_orthonormal_and_complete(name):
    pattern = build(name)
    for group in pattern.groups:
        report = sv.validate_basis(group.basis)
        assert report.passed, f"{name} group on {group.qubits}: {report}"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_wiring_partitions_register(name):
    pattern = build(name)
    measured = [q for g in pattern.groups for q in g.qubits]
    assert len(measured) == len(set(measured))
    assert sorted(measured + list(pattern.output_wires)) == list(range(pattern.num_qubits))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_labels_are_bijective_and_sorted(name):
    pattern = build(name)
    for group in pattern.groups:
        assert len(set(group.labels)) == group.basis.size
        assert list(group.labels) == sorted(group.labels)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_output_count_matches_target(name):
    pattern = build(name)
    assert pattern.target.shape[0] == 1 << len(pattern.output_wires)


def test_every_entry_builds_from_its_defaults_alone():
    assert sorted(catalog.catalog_entries()) == sorted(ALL_NAMES)
    for name in ALL_NAMES:
        catalog.build_pattern(name)
    assert np.allclose(catalog.build_pattern("single-qubit").target, HADAMARD)
    assert catalog.build_pattern("chain-cz").name == "chain-cz-1"
    assert catalog.build_pattern("chain-cz", n=3).name == "chain-cz-3"


def test_shipped_correction_tables_are_total():
    for name in ("phase", "pi8"):
        pattern = build(name)
        assert len(pattern.corrections) == 4
    single = catalog.single_qubit_pattern(HADAMARD)
    assert len(single.corrections) == 4


def test_chain_one_reduces_to_base_cz():
    assert patterns_equal(catalog.chain_cz_pattern(1), catalog.controlled_z_pattern("h"))


def test_chain_registers_grow_by_pairs():
    for n in range(1, 6):
        pattern = catalog.chain_cz_pattern(n)
        assert pattern.num_qubits == 2 * n + 6
        assert all(g.size == 1 << (n + 2) for g in pattern.groups)


def test_chain_even_targets_identity():
    assert np.allclose(catalog.chain_cz_pattern(2).target, np.eye(4))
    assert np.allclose(catalog.chain_cz_pattern(3).target, CZ)


def test_chain_rejects_zero_length():
    with pytest.raises(PatternFormatError):
        catalog.chain_cz_pattern(0)


def test_fredkin_register_is_sixteen_qubits():
    pattern = catalog.fredkin_pattern()
    assert pattern.num_qubits == 16
    assert [g.size for g in pattern.groups] == [32, 16, 16]


def test_triple_cz_has_three_ternary_groups():
    pattern = catalog.triple_cz_pattern()
    assert [len(g.qubits) for g in pattern.groups] == [3, 3, 3]
    assert np.allclose(pattern.target, double_cz())


def test_triple_cz_target_signs():
    diag = np.diag(double_cz()).real
    assert diag[0b011] == -1 and diag[0b110] == -1
    assert diag[0b111] == 1 and diag[0b000] == 1


def test_toffoli_literal_variant_fails_validation():
    with pytest.raises(PatternFormatError, match="orthonormal"):
        catalog.toffoli_pattern("literal")
    literal = catalog.toffoli_pattern("literal", validate=False)
    report = sv.validate_basis(literal.groups[0].basis)
    assert not report.passed
    assert report.max_pairwise_overlap > 0.99


def test_single_qubit_rejects_non_unitary():
    with pytest.raises(PatternFormatError):
        catalog.single_qubit_pattern(np.array([[1, 1], [0, 1]]))


def test_h_pair_amplitudes():
    state = catalog.pair_state("h")
    assert np.allclose(state.amps, [0.5, 0.5, 0.5, -0.5])


def test_unknown_pair_kind_rejected():
    with pytest.raises(PatternFormatError):
        catalog.pair_state("w")


def test_unknown_pattern_rejected():
    with pytest.raises(PatternFormatError):
        catalog.build_pattern("nonesuch")


def test_parameterized_cz_requires_unit_modulus():
    with pytest.raises(sv.UsageError):
        catalog.parameterized_cz_pattern(2.0, 1, 1, 1, 1)


def test_parameterized_cz_reduces_to_plain_wiring():
    pattern = catalog.parameterized_cz_pattern(1, 1, 1, 1, 1)
    base = catalog.cz_layout_pattern("phi+", "phi+", "phi+", "pm")
    for (qa, sa), (qb, sb) in zip(pattern.resources, base.resources):
        assert qa == qb
        assert np.allclose(sa.amps, sb.amps)
