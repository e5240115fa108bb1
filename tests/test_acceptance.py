"""The acceptance suite.  Criteria 1-10 run once in this process.  Criterion
11 compares their report, byte for byte, with the one a cold
`python -m ualg selftest` child prints under a different string hash seed,
so no set or dict order over hashed strings and no state left in this
process (intern tables, caches) can leak into a report.  One printed line
per criterion; run pytest with -s to watch them stream.
"""

import os
import subprocess
import sys

import pytest

from conftest import child_env
from ualg import context
from ualg.selftest import render_report, run_selftest

CHILD_TIMEOUT_S = 600


@pytest.fixture(scope="module")
def selftest_runs():
    """The in-process results, and the child's stdout, stderr and exit code.
    The child starts first, so on a multi-core host the two runs overlap."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    with subprocess.Popen([sys.executable, "-m", "ualg", "selftest"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True,
                          env=child_env(PYTHONHASHSEED=seed)) as child:
        try:
            results = run_selftest()
            out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            child.kill()  # does nothing once the child has exited
    return results, out, err, child.returncode


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number, selftest_runs):
    result = next(r for r in selftest_runs[0] if r.number == number)
    print(result.line())
    assert result.passed, "\n".join([result.line()] + result.details)


def test_criterion_11_determinism(selftest_runs):
    results, out, err, code = selftest_runs
    same = code == 0 and out == render_report(results)
    print("criterion 11 [pass] byte-identical reports across processes and "
          "hash seeds" if same else
          "criterion 11 [FAIL] the child's report differs or it failed")
    assert code == 0, err
    assert out == render_report(results)


def test_failing_criterion_reports_under_its_one_name(monkeypatch):
    """A criterion prints the name `ALL_CHECKS` gives it whether it passes
    or fails; only the status and the details change."""
    monkeypatch.setitem(context._FAMILY_TAGS, "bijective", "identities")
    (result,) = run_selftest(only=[2])
    assert result.line() == ("criterion  2 [FAIL] relation/family "
                             "correspondence on [m],[n] <= 4")
    assert len(result.details) == 1
    assert result.details[0].startswith("mismatch at bijective for theta = ")
