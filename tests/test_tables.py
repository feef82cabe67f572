"""Reference-table transcriptions and their comparison against derived ones."""
import numpy as np
import pytest

from telegate import catalog, oracle, tables
from telegate.patterns import PatternFormatError


class TestParsing:
    def test_identity_cell(self):
        op = tables.parse_correction("I")
        assert np.allclose(op.matrix(2), np.eye(4))

    def test_two_wire_cell(self):
        op = tables.parse_correction("sz.sx x I")
        sz_sx = np.array([[0, 1], [-1, 0]], dtype=complex)
        assert np.allclose(op.matrix(2), np.kron(sz_sx, np.eye(2)))

    def test_cz_wrapped_cell(self):
        op = tables.parse_correction("Ucz(Up x sz)")
        expected = np.diag([1, 1, 1, -1]) @ np.kron(np.diag([1, 1j]), np.diag([1, -1]))
        assert np.allclose(op.matrix(2), expected)

    def test_unknown_factor_rejected(self):
        with pytest.raises(PatternFormatError):
            tables.parse_correction("sy x I")


class TestTotality:
    def test_sizes(self):
        assert len(tables.phase_table()) == 4
        assert len(tables.pi8_table()) == 4
        assert len(tables.cnot_table()) == 128
        assert len(tables.swap_table()) == 128
        assert len(tables.cphase_table_transposed()) == 64
        assert len(tables.cphase_table_as_captioned()) == 64

    def test_keys_match_pattern_outcomes(self):
        for name, table in (
            ("cnot", tables.cnot_table()),
            ("swap", tables.swap_table()),
            ("controlled-phase", tables.cphase_table_transposed()),
        ):
            pattern = catalog.build_pattern(name)
            assert set(table.keys()) == set(pattern.layout)

    def test_catalog_metadata_names_each_printed_table_once(self):
        numbered = {}
        for name, entry in catalog.catalog_entries().items():
            if "reference" in entry:
                pattern = catalog.build_pattern(name)
                assert set(entry["reference"]().keys()) == set(pattern.layout)
                numbered[entry["table"]] = name
        assert sorted(numbered) == ["2", "3", "4", "5", "6"]


class TestPinnedCells:
    def test_cnot_first_cell_is_identity(self):
        table = tables.cnot_table()
        assert table[((0, 0, 0, "+"), (0, 0, "+"))].render(2) == "I x I"

    def test_cnot_pinned_sx_cell(self):
        table = tables.cnot_table()
        assert table[((1, 0, 0, "+"), (1, 0, "+"))].render(2) == "sx x I"

    def test_swap_first_cell_is_identity(self):
        table = tables.swap_table()
        assert table[((0, 0, 0, "+"), (0, 0, "+"))].render(2) == "I x I"

    def test_swap_pinned_bottom_right_cell(self):
        table = tables.swap_table()
        assert table[((1, 1, 1, "-"), (1, 1, "-"))].render(2) == "sx x I"

    def test_cphase_worked_cell_per_transposed_reading(self):
        table = tables.cphase_table_transposed()
        op = table[((0, 0, "+"), (0, 1, "+"))]
        assert op.render(2) == "Ucz(sz.Up x I)"

    def test_cphase_first_cell(self):
        assert tables.cphase_table_transposed()[
            ((0, 0, "+"), (0, 0, "+"))
        ].render(2) == "I x I"


class TestAgainstDerived:
    def test_phase_table_matches_derived(self):
        pattern = catalog.phase_gate_pattern()
        derived = oracle.derive_corrections(pattern)
        diff = oracle.compare_tables(derived, tables.phase_table(), 1)
        assert diff.mismatch_count == 0

    def test_pi8_table_matches_derived(self):
        pattern = catalog.pi8_gate_pattern()
        derived = oracle.derive_corrections(pattern)
        diff = oracle.compare_tables(derived, tables.pi8_table(), 1)
        assert diff.mismatch_count == 0

    def test_cnot_table_differs_by_control_z_exactly(self, cnot_derived):
        pattern, derived = cnot_derived
        diff = oracle.compare_tables(derived, tables.cnot_table(), 2)
        assert diff.mismatch_count == 64
        sz_i = np.kron(np.diag([1, -1]), np.eye(2))
        printed = tables.cnot_table()
        for key, _, _ in diff.mismatches:
            disc = derived[key].matrix(2) @ np.linalg.inv(printed[key].matrix(2))
            assert oracle._equal_up_to_phase(disc, sz_i)

    def test_swap_table_differs_by_double_z_exactly(self, swap_derived):
        pattern, derived = swap_derived
        diff = oracle.compare_tables(derived, tables.swap_table(), 2)
        assert diff.mismatch_count == 64
        sz_sz = np.kron(np.diag([1, -1]), np.diag([1, -1]))
        printed = tables.swap_table()
        for key, _, _ in diff.mismatches:
            disc = derived[key].matrix(2) @ np.linalg.inv(printed[key].matrix(2))
            assert oracle._equal_up_to_phase(disc, sz_sz)

    def test_cphase_grid_is_transposed_not_captioned(self, cphase_derived):
        pattern, derived = cphase_derived
        transposed = oracle.compare_tables(derived, tables.cphase_table_transposed(), 2)
        captioned = oracle.compare_tables(derived, tables.cphase_table_as_captioned(), 2)
        assert transposed.mismatch_count == 0
        assert captioned.mismatch_count == 56
