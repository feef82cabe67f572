"""The benchmark's workloads: which CLI jobs each runs and what they must print.

Every job gets the run's ``--seed``. Verdicts, outcome counts and derived
tables in this catalog do not depend on the seed, so the pinned values hold
for every seed; a seed-dependent mismatch is a real failure.
"""
from __future__ import annotations

from dataclasses import dataclass

from expect import Job


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]


CATALOG_SWEEP = Workload(
    "catalog-sweep",
    "many short CLI calls: per-process import, catalog build and validation, "
    "plus the cold 3-wire correction dictionary in toffoli",
    (
        Job(("verify", "--pattern", "single-qubit"), verdict="PASS", outcomes=4),
        Job(("verify", "--pattern", "phase", "--format", "json"), verdict="PASS", outcomes=4),
        Job(("verify", "--pattern", "pi8", "--format", "csv"), outcomes=4),
        Job(("verify", "--pattern", "cz", "--resource", "h"), verdict="PASS", outcomes=64),
        Job(("verify", "--pattern", "cz", "--resource", "bell", "--format", "json"), verdict="PASS", outcomes=64),
        Job(("verify", "--pattern", "triple-cz", "--format", "csv"), outcomes=512),
        Job(("verify", "--pattern", "controlled-phase", "--format", "json"), verdict="PASS", outcomes=64),
        Job(("verify", "--pattern", "cnot", "--format", "csv"), outcomes=128),
        Job(("verify", "--pattern", "swap"), verdict="PASS", outcomes=128),
        Job(("verify", "--pattern", "toffoli"), verdict="PASS", outcomes=2048),
        Job(("verify", "--pattern", "chain-cz", "--n", "3", "--format", "json"), verdict="PASS", outcomes=1024),
        Job(("derive", "--pattern", "cnot"), outcomes=128, cells="d9dc34a4e8bb3c5d"),
        Job(("derive", "--pattern", "triple-cz", "--format", "json"), outcomes=512, cells="54ff88b3a95baab6"),
        Job(("loss-check", "--pattern", "cz"), verdict="not lossy", degraded=0),
        Job(("loss-check", "--pattern", "cz", "--resource", "bell", "--basis", "ghz"), verdict="LOSSY", degraded=64),
        Job(("reproduce-table", "--table", "2"), cells="34b6e5e19547c0ad", diff="0/4"),
        Job(("reproduce-table", "--table", "3", "--format", "json"), cells="a7c5521c0007cf60", diff="0/4"),
        Job(("reproduce-table", "--table", "4"), cells="caec96bf7718e55a", diff="0/64"),
        Job(("reproduce-table", "--table", "5", "--format", "csv"), cells="d9dc34a4e8bb3c5d"),
        Job(("reproduce-table", "--table", "6"), cells="f42ed14ff1f41e70", diff="64/128"),
        Job(("parity", "--max-n", "5"), verdict="PASS FAIL PASS FAIL PASS"),
        Job(("list",), cells="fc4e767f4d5c0126"),
    ),
)

# derive_corrections fails on the 4096 regime-flip outcomes, so verify stops
# before verify_pattern and rendering. The failure text is not pinned (it
# prints as text even under --format json, and a better derivation rewrites
# it); exit 1 and the verdict are.
FREDKIN_UNREPAIRABLE = Workload(
    "fredkin-unrepairable",
    "one verify whose time is almost all derivation's full-scan fallback over "
    "4096 unrepairable outcomes",
    (Job(("verify", "--pattern", "fredkin"), exit_code=1, verdict="FAIL"),),
)

# The n = 7 verify runs as text: its JSON report reached 2.4 GB of memory.
WIDE_CHAIN = Workload(
    "wide-chain",
    "wide registers (up to 20 qubits, 262144 outcomes): outcome-map "
    "contraction and per-outcome loops in derive, verify, loss and JSON output",
    (
        Job(("verify", "--pattern", "chain-cz", "--n", "7"), verdict="PASS", outcomes=262144),
        Job(("loss-check", "--pattern", "chain-cz", "--n", "6"), verdict="not lossy", degraded=0),
        Job(("verify", "--pattern", "chain-cz", "--n", "5", "--format", "json"), verdict="PASS", outcomes=16384),
    ),
)


WORKLOADS = {w.name: w for w in (CATALOG_SWEEP, FREDKIN_UNREPAIRABLE, WIDE_CHAIN)}
