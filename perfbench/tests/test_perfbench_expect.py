import json

from expect import Job, cells_digest, check

VERIFY_TEXT = """pattern: cnot
seed: 1337
outcomes: 128  inputs: 24
min fidelity: 0.9999999999999999 (outcome (0,0,0,+);(0,0,+), input rand01)
verdict: {verdict}
"""


def test_checker_flags_a_wrong_verdict():
    job = Job(("verify", "--pattern", "cnot"), verdict="PASS", outcomes=128)
    assert check(job, 0, VERIFY_TEXT.format(verdict="PASS")) == []
    assert check(job, 0, VERIFY_TEXT.format(verdict="FAIL")) == ["verdict 'FAIL', expected 'PASS'"]
    assert check(job, 1, VERIFY_TEXT.format(verdict="PASS")) == ["exit code 1, expected 0"]


def test_checker_flags_a_passing_json_report_below_the_fidelity_bar():
    job = Job(("verify", "--pattern", "phase", "--format", "json"), verdict="PASS", outcomes=1)
    doc = {"passed": True, "outcomes": [{"labels": "(1)"}], "min_fidelity": 1.0 - 1e-6}
    assert check(job, 0, json.dumps(doc)) == [f"min fidelity {1.0 - 1e-6!r} below {1.0 - 1e-9!r}"]


def test_grid_digest_is_the_same_in_text_csv_and_json():
    cells = {"(0,+);(0,+)": "I x I", "(0,+);(1,-)": "sz x sx"}
    digest = cells_digest(cells)
    text = (
        "reference table: cnot\n"
        "      | (0,+) | (1,-)  \n"
        "(0,+) | I x I | sz x sx\n"
        "layout: rows\n"
        "reference-table diff: 1/2 cells differ\n"
    )
    csv = ',"(0,+)","(1,-)"\n"(0,+)","I x I","sz x sx"\n'
    doc = {"entries": [{"labels": k, "op": v} for k, v in cells.items()],
           "diffs": {"printed": {"mismatch_count": 1, "total": 2}}}
    assert check(Job(("reproduce-table", "--table", "5"), cells=digest, diff="1/2"), 0, text) == []
    assert check(Job(("reproduce-table", "--table", "5", "--format", "csv"), cells=digest), 0, csv) == []
    assert check(
        Job(("reproduce-table", "--table", "5", "--format", "json"), cells=digest, diff="1/2"), 0, json.dumps(doc)
    ) == []
    assert check(Job(("reproduce-table", "--table", "5"), cells=digest, diff="0/2"), 0, text) == [
        "diff '1/2', expected '0/2'"
    ]
