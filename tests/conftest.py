"""Shared pytest wiring.

The acceptance suite gets its own terminal section: one PASS/FAIL/SKIP
line per criterion, printed after the run regardless of verbosity.  The
traced_peak fixture measures what a call allocates at its peak.
"""

import re
import tracemalloc

import pytest

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")

_results: dict = {}


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if match is None:
        return
    key = (int(match.group(1)), match.group(2))
    if report.when == "call":
        _results[key] = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    elif report.when == "setup":
        if report.skipped:
            _results[key] = "SKIP"
        elif report.failed:
            _results[key] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for (number, slug), outcome in sorted(_results.items()):
        terminalreporter.write_line(
            f"criterion {number:2d} [{outcome}] {slug.replace('_', ' ')}"
        )


@pytest.fixture
def traced_peak():
    """A function that calls function(*args) under tracemalloc and returns
    (its result, the peak bytes allocated during the call), numpy's arrays
    included."""

    def call(function, *args):
        tracemalloc.start()
        try:
            result = function(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    return call
