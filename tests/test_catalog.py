"""Catalog wiring and basis invariants."""
import hashlib

import numpy as np
import pytest

from telegate import catalog
from telegate import statevec as sv
from telegate.gates import CZ, HADAMARD, double_cz
from telegate.patterns import PatternFormatError

from reference import patterns_equal

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
    chain, base = catalog.chain_cz_pattern(1), catalog.controlled_z_pattern("h")
    assert (chain.name, base.name) == ("chain-cz-1", "cz[h,ghz]")
    assert _basis_digests(chain) == _basis_digests(base)
    assert chain.target.tobytes() == base.target.tobytes()


@pytest.mark.parametrize(
    "args,name,layout",
    [
        ((), "cz[h,ghz]", ("h", "ghz")),
        (("bell",), "cz[bell,pm]", ("phi+", "pm")),
        (("bell", "ghz"), "cz[bell,ghz]", ("phi+", "ghz")),
        (("product", "pm"), "cz[product,pm]", ("product", "pm")),
    ],
)
def test_controlled_z_builder_defaults_the_matching_basis(args, name, layout):
    pattern = catalog.controlled_z_pattern(*args)
    assert pattern.name == name
    pair, basis = layout
    assert patterns_equal(pattern, catalog.cz_layout_pattern(pair, "phi+", "phi+", basis))


def test_cz_entries_are_one_builder_with_defaults():
    assert catalog.build_pattern("cz").name == "cz[h,ghz]"
    mismatched, unlinked = catalog.build_pattern("cz-mismatched"), catalog.build_pattern("cz-no-ee")
    assert mismatched.name == "cz-mismatched" and unlinked.name == "cz-no-ee"
    assert patterns_equal(mismatched, catalog.controlled_z_pattern("bell", "ghz"))
    assert patterns_equal(unlinked, catalog.controlled_z_pattern("product", "ghz"))
    with pytest.raises(PatternFormatError, match="unknown linking pair 'phi[+]'"):
        catalog.controlled_z_pattern("phi+")
    with pytest.raises(PatternFormatError, match="unknown basis kind 'bell'"):
        catalog.controlled_z_pattern("h", "bell")


def test_each_cli_flag_belongs_to_one_entry():
    from telegate.cli import PATTERN_FLAGS

    owned = [f for entry in catalog.catalog_entries().values() for f in entry.get("flags", ())]
    assert sorted(owned) == sorted(PATTERN_FLAGS)


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


# Every builder path, including those no catalog entry's defaults reach.
BUILDER_PATHS = {
    **{name: (lambda name=name: catalog.build_pattern(name)) for name in ALL_NAMES},
    "chain-cz-2": lambda: catalog.chain_cz_pattern(2),
    "chain-cz-3": lambda: catalog.chain_cz_pattern(3),
    "cz[bell,pm]": lambda: catalog.controlled_z_pattern("bell"),
    "cz[h,pm]": lambda: catalog.controlled_z_pattern("h", "pm"),
    "cz[product,pm]": lambda: catalog.controlled_z_pattern("product", "pm"),
    "cz-layout[h,h,phi+,ghz]": lambda: catalog.cz_layout_pattern("h", "h", "phi+", "ghz"),
    "cz-parameterized": lambda: catalog.parameterized_cz_pattern(
        1j, np.exp(0.25j * np.pi), -1, -1j, np.exp(-0.75j * np.pi)
    ),
    "toffoli-literal": lambda: catalog.toffoli_pattern("literal", validate=False),
    "single-qubit[sz]": lambda: catalog.single_qubit_pattern(np.diag([1, -1])),
}


def _basis_digests(pattern):
    """sha256 of each group's qubits, labels and basis vector bytes, then
    of the register: its size, wires, resource legs and amplitude bytes."""
    digests = []
    for group in pattern.groups:
        h = hashlib.sha256(repr((group.qubits, group.labels)).encode())
        h.update(group.basis.vectors.tobytes())
        digests.append(h.hexdigest())
    h = hashlib.sha256(repr((pattern.num_qubits, pattern.input_wires, pattern.output_wires)).encode())
    for qubits, state in pattern.resources:
        h.update(repr(qubits).encode())
        h.update(state.amps.tobytes())
    digests.append(h.hexdigest())
    return tuple(digests)


# Recorded when each group recipe was spelled out at its call site.
BASIS_DIGESTS = {
    "chain-cz": (
        "abd56f62cf3a12c55eae501a99052e529eb01c93cdb4e9b554e9f1e79eedf76c",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "1b13244b48ae777e8b18500514db0e7c36d1737d2499d2e48f87e06669794f5f",
    ),
    "chain-cz-2": (
        "b8850d0fc05e8ffc6a9a476d079324681cb3c945346c8e78cbd360e17a59e146",
        "2945f17a3bd4fcc9b00101e38020cef272b7a18ca4e160252374649b65f668bd",
        "a98552dac2784cccfa11c207f5fd83b90618fcb0a3783f842aaa1cc74b3cd601",
    ),
    "chain-cz-3": (
        "33d33deed63114570fc19548f0220335d0bd716186c8a2853fe7c17852dd55a0",
        "6154563586c58740f3b2822cea5c3519f7f11167e56cafe88ff7c2dd18aba7ac",
        "88d24bc199034d702324d30c7bc0a8091c44c8219089bca4a95994b05d4f99fa",
    ),
    "cnot": (
        "91ddb4b9b82fbea1a496e81ac94677de7f3cee4367a9ea823275072c95f80d74",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "d6c43bfaa00c800d0aa50c6ba0109a80e0a777147dc328a443c99463b37db23a",
    ),
    "controlled-phase": (
        "c89fa4d4c603c31a114752a210ffb7c126943500802fa84025940f1e653601d3",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "6de3b8604a812209e770a222073f3508a0b0dce50996f48a3fecad500efbe4bc",
    ),
    "cz": (
        "abd56f62cf3a12c55eae501a99052e529eb01c93cdb4e9b554e9f1e79eedf76c",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "1b13244b48ae777e8b18500514db0e7c36d1737d2499d2e48f87e06669794f5f",
    ),
    "cz-layout[h,h,phi+,ghz]": (
        "abd56f62cf3a12c55eae501a99052e529eb01c93cdb4e9b554e9f1e79eedf76c",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "0eeba4118049aeb11110f6ae99e056cad8ecaf32a17e347a27f574b8e38e6254",
    ),
    "cz-mismatched": (
        "abd56f62cf3a12c55eae501a99052e529eb01c93cdb4e9b554e9f1e79eedf76c",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "6de3b8604a812209e770a222073f3508a0b0dce50996f48a3fecad500efbe4bc",
    ),
    "cz-no-ee": (
        "abd56f62cf3a12c55eae501a99052e529eb01c93cdb4e9b554e9f1e79eedf76c",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "d4a7a88d98ef4c7c8e866df92c3cc0d2c83f89817a5cfa9ec4a3c1a1fecf2cf5",
    ),
    "cz-parameterized": (
        "003568e13f479e9b1cfc16bfa812243a8e363a0075f6fe55b738975b51b1b409",
        "070b8c621afa3fa8f8cbaa8baf0456d9a8aa10ce136e08303320f03e1c0b1581",
        "b684c975a5e6014af20a37b2487342830cad16da86172efd2d4eb7e578be0595",
    ),
    "cz[bell,pm]": (
        "d0a309f62a9ad8d41f773d36142f3df3f2b6ac7135020295b16dd39e12681403",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "6de3b8604a812209e770a222073f3508a0b0dce50996f48a3fecad500efbe4bc",
    ),
    "cz[h,pm]": (
        "d0a309f62a9ad8d41f773d36142f3df3f2b6ac7135020295b16dd39e12681403",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "1b13244b48ae777e8b18500514db0e7c36d1737d2499d2e48f87e06669794f5f",
    ),
    "cz[product,pm]": (
        "d0a309f62a9ad8d41f773d36142f3df3f2b6ac7135020295b16dd39e12681403",
        "11cec18ca6335bb2b367c8d11d605f47a5373d160e35bf37adec85eb814a2b9e",
        "d4a7a88d98ef4c7c8e866df92c3cc0d2c83f89817a5cfa9ec4a3c1a1fecf2cf5",
    ),
    "fredkin": (
        "c2210c60534eaffc8787bd5fa463a87b0ae3648145fac1410f87d1a3b5ce8771",
        "c00d7a4f4de2b2a636f445dea815c82498fd7e68cf5919376fee363f79eba8fa",
        "e9d0cca439a278a88b0ca898c554cd6634c479c3efdc5528fb1cc2bcb7ebc8ca",
        "ef855f3c1d780742b5775be1d0c3398408f43e18878fbd8eca03979e78154245",
    ),
    "phase": (
        "86b08c0709e622d166e5032dea93c633792efd67020192727b325286c673241a",
        "7bebc4fdd7a56c1e2d4fd4d368cb570c6caa44a43cb6dfd9f465d30079fff214",
    ),
    "pi8": (
        "d0b18d0146ec52750ce37d5960245d24449d70ce99061054767e5fdf54a97f86",
        "7bebc4fdd7a56c1e2d4fd4d368cb570c6caa44a43cb6dfd9f465d30079fff214",
    ),
    "single-qubit": (
        "fa8499d825bcbe37a0e7d3faf23e48aaffa08bfee2a8561960fb6cb04eca2f2a",
        "a86dfca28c78251c67b19f26d0947714f018b355fdfd04648ad6b56c3f571576",
    ),
    "single-qubit[sz]": (
        "c67cef661fee53c04f0cac0f9083530511db8baf4f6bc8845f317748def8285e",
        "a86dfca28c78251c67b19f26d0947714f018b355fdfd04648ad6b56c3f571576",
    ),
    "swap": (
        "dc539c2214c53703c6875f85609d1d167f6a8686366eb0ff094c98cd62fb40a3",
        "720031243df20705cdc278728ef1015c41da66855c06914c3cbec11c0a269ab5",
        "497a342312d40a25c9062e0593fb32289924d569031c218c24b8d07131609d6b",
    ),
    "toffoli": (
        "6b598de8c18b9c99246137db4d6f704bb57ebf2166126f874d7c3f239fe29030",
        "22039ca931bc3457406e31af8f2195d693cc0af91cbd6544ffdc53c15c748199",
        "c3dcacc9eb0d10d7d99afe94cf274350bdf60cf7e3e82f1becb87276de4d6dd3",
        "e019570d33203cee1e4067e59ecad48713d31960f3c9f9fbbdce963e79c76276",
    ),
    "toffoli-literal": (
        "a2f9ad4ad86923cca6371bf9bf72611cb517d503233a9360fd0b02c55e46a8ad",
        "22039ca931bc3457406e31af8f2195d693cc0af91cbd6544ffdc53c15c748199",
        "c3dcacc9eb0d10d7d99afe94cf274350bdf60cf7e3e82f1becb87276de4d6dd3",
        "e019570d33203cee1e4067e59ecad48713d31960f3c9f9fbbdce963e79c76276",
    ),
    "triple-cz": (
        "f8363aebf6e29c7674fa88be2d99522a43bbdc853ecf21affb5505b62129d653",
        "c453850f38c951103c44ab9261e26a04b3094b2df75ea69ab3c8b9c3ee48f9b6",
        "c3dcacc9eb0d10d7d99afe94cf274350bdf60cf7e3e82f1becb87276de4d6dd3",
        "586f6769a912213bbded558fb31e3741bedc1de3d328febc9bacf0e4e49d91de",
    ),
}


@pytest.mark.parametrize("path", sorted(BUILDER_PATHS))
def test_every_builder_path_keeps_its_basis_bytes(path):
    assert _basis_digests(BUILDER_PATHS[path]()) == BASIS_DIGESTS[path]
