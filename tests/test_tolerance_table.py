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


def _tolerance_names() -> dict[str, float]:
    """The float constants of ``statevec``'s module code: its tolerance table."""
    tree = ast.parse(Path(sv.__file__).read_text())
    return {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
    }


def _readme_rows() -> dict[str, str]:
    """Name -> value text of each row of the README's tolerance table."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    return {cells[1].strip().strip("`"): cells[2].strip() for cells in rows}


def test_readme_table_lists_every_tolerance_and_no_other():
    names, rows = _tolerance_names(), _readme_rows()
    assert "FIDELITY_TOL" in names
    assert sorted(rows) == sorted(names)
    for name, value in rows.items():
        assert float(value) == getattr(sv, name), name
