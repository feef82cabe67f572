"""Shared fixtures; the expensive derivations run once per session."""
import pytest

from telegate import catalog, oracle


@pytest.fixture(scope="session")
def toffoli_selected():
    selection = oracle.select_toffoli_variant()
    return selection.pattern, selection.table, selection.record


@pytest.fixture(scope="session")
def fredkin_partial():
    pattern = catalog.fredkin_pattern()
    table, failures = oracle.derive_corrections_with_failures(pattern)
    return pattern, table, failures


@pytest.fixture(scope="session")
def cnot_derived():
    pattern = catalog.cnot_pattern()
    return pattern, oracle.derive_corrections(pattern)


@pytest.fixture(scope="session")
def swap_derived():
    pattern = catalog.swap_pattern()
    return pattern, oracle.derive_corrections(pattern)


@pytest.fixture(scope="session")
def cphase_derived():
    pattern = catalog.controlled_phase_pattern()
    return pattern, oracle.derive_corrections(pattern)
