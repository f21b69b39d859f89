"""Session hooks: the suite's wall time, also in `ref` units.

A `ref` is the median time of `perfbench/run.py`'s `reference_work`, a
fixed pure-Python computation of about 2 ms.  It is timed `REPEATS` times
as the session starts and again as it ends, and `SAMPLE_REPEATS` times
before every `SAMPLE_EVERY`th test, because the host's speed moves within
seconds and the two ends alone sample a fraction of a second of it.  On a
host whose CPU speed drifts by 10-30%, the suite's time in `ref` units
moves less than its wall time, for the reason `perfbench/README.md` gives
for the benchmark's figures.  The line is printed for every run; nothing
is checked against it.
"""

import importlib.util
import itertools
import statistics
import sys
from pathlib import Path
from time import perf_counter

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REPEATS = 20  # reference timings at each end of the session
SAMPLE_EVERY = 25  # tests between the samples taken during the session
SAMPLE_REPEATS = 3  # reference timings in each of those samples
# (reference_work, its timings, session start, a counter of the tests started)
CLOCK = pytest.StashKey[tuple]()


def _load_reference_work():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
    return run.reference_work


def _timings(reference_work, repeats: int = REPEATS) -> list[float]:
    timings = []
    for _ in range(repeats):
        start = perf_counter()
        reference_work()
        timings.append(perf_counter() - start)
    return timings


def pytest_sessionstart(session):
    reference_work = _load_reference_work()
    session.config.stash[CLOCK] = (reference_work, _timings(reference_work), perf_counter(),
                                   itertools.count())


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_protocol(item, nextitem):
    # Before the test's own phases start, so no test's duration includes it.
    reference_work, timings, _, tests = item.config.stash[CLOCK]
    if next(tests) % SAMPLE_EVERY == 0:
        timings += _timings(reference_work, SAMPLE_REPEATS)


def pytest_terminal_summary(terminalreporter, config):
    reference_work, timings, started, _ = config.stash[CLOCK]
    wall = perf_counter() - started
    ref = statistics.median(timings + _timings(reference_work))
    terminalreporter.write_line(f"tier-1: {wall:.1f} s = {wall / ref:.0f} ref")
