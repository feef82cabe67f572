"""Numerical policy has one owner: the tolerance table in ``statevec``."""
import ast
import io
import tokenize
from pathlib import Path

import pytest

import telegate
from telegate import oracle
from telegate import statevec as sv

SOURCES = sorted(Path(telegate.__file__).parent.glob("*.py"))


def _small_float_literals(path: Path) -> list[str]:
    """Every nonzero float literal below 1 in the code of ``path``, as
    ``line:text``; comments and docstrings are not code tokens."""
    found = []
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type != tokenize.NUMBER:
            continue
        value = ast.literal_eval(token.string)
        if isinstance(value, float) and 0 < value < 1:
            found.append(f"{token.start[0]}:{token.string}")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "statevec.py"], ids=lambda p: p.name)
def test_thresholds_live_in_the_tolerance_table(path):
    assert _small_float_literals(path) == []


def test_the_guard_sees_the_table():
    assert len(_small_float_literals(Path(sv.__file__))) >= 10


def test_oracle_reads_the_table():
    for name in ("ZERO_PROB", "SUSPICIOUS_PROB", "FIDELITY_TOL"):
        assert getattr(oracle, name) is getattr(sv, name)
