"""What importing telegate does to the process: OpenBLAS's idle worker
stops spinning, the environment is left as the caller set it, and only the
CLI module freezes the collector's import-time heap."""
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"

# Records every key the child sets in os.environ, then imports telegate and
# reports what it recorded and what the environment holds afterwards,
# including what a grandchild process inherits.
SPY = """
import json, os, subprocess, sys
PRELUDE
before = dict(os.environ)
setitem = os._Environ.__setitem__
set_keys = []
os._Environ.__setitem__ = lambda env, key, value: set_keys.append(key) or setitem(env, key, value)
import telegate
inherited = subprocess.run(
    [sys.executable, "-c", "import os; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"],
    capture_output=True, text=True, check=True,
).stdout.strip()
print(json.dumps({
    "set": set_keys,
    "unchanged": dict(os.environ) == before,
    "value": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
    "inherited": inherited,
}))
"""


def _env(**extra):
    """This environment without any OpenBLAS variable, with telegate on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    return {**env, "PYTHONPATH": str(SRC), **extra}


def _spy(env, prelude=""):
    out = subprocess.run(
        [sys.executable, "-c", SPY.replace("PRELUDE", prelude)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def _blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS starts no worker on one CPU")
@pytest.mark.skipif(not _blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_import_spends_no_cpu_beyond_its_wall_time():
    # A spinning idle worker adds about 0.1 s of CPU to the import on a
    # second CPU while the wall time stays the same.
    excess = []
    for _ in range(3):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", "import telegate"], env=_env())
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        assert child.returncode == 0
        excess.append(usage.ru_utime + usage.ru_stime - wall)
    assert statistics.median(excess) <= 0.030


def test_environment_is_restored_after_the_import():
    got = _spy(_env())
    assert got["set"] == [TIMEOUT]
    assert got["unchanged"]
    assert got["value"] is None
    assert got["inherited"] == "None"


def test_a_timeout_the_caller_set_is_kept():
    got = _spy(_env(**{TIMEOUT: "10"}))
    assert got["set"] == []
    assert got["unchanged"]
    assert got["value"] == "10"
    assert got["inherited"] == "10"


def test_nothing_is_set_when_numpy_came_first():
    got = _spy(_env(), prelude="import numpy")
    assert got["set"] == []
    assert got["unchanged"]
    assert got["value"] is None


def _collector_after(module):
    out = subprocess.run(
        [sys.executable, "-c", f"import gc, json, {module}; "
         "print(json.dumps([gc.get_freeze_count(), gc.isenabled()]))"],
        env=_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def test_the_cli_freezes_its_import_time_heap():
    frozen, enabled = _collector_after("telegate.cli")
    assert frozen > 0
    assert enabled


def test_the_library_leaves_the_collector_as_it_found_it():
    assert _collector_after("telegate") == [0, True]
