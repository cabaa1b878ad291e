"""Shared fixtures for the paper-regeneration benchmarks.

Every bench regenerates one table or figure of Oh & Pedram (DATE 1998)
and prints the corresponding text table; a copy is written to
``benchmarks/results/<name>.txt`` so the numbers survive pytest's
output capturing.

Sink counts are scaled by ``REPRO_BENCH_SCALE`` (default 0.25 -- about
half a minute for the whole suite; set 1.0 for the full r1-r5 sizes,
which takes several minutes for the biggest benchmarks).  Scales below
~0.2 leave too few sinks for the statistical shape assertions (the
star-routing overhead only dominates once a benchmark has a few dozen
gates) -- use the default or larger.
"""

from pathlib import Path

import pytest

from repro.bench.suite import bench_scale
from repro.tech import date98_technology

RESULTS_DIR = Path(__file__).parent / "results"

#: k-nearest candidate restriction used by the figure benches; the
#: knn ablation bench measures its effect against the exact greedy.
CANDIDATE_LIMIT = 16

#: Reduction knob used wherever a single "gate reduced" configuration
#: is reported (Fig. 5 shows the whole sweep).
DEFAULT_KNOB = 0.5


@pytest.fixture(scope="session")
def scale():
    return bench_scale(default=0.25)


@pytest.fixture(scope="session")
def tech():
    return date98_technology()


@pytest.fixture(scope="session")
def record():
    """Print a result table and persist it under benchmarks/results/."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / ("%s.txt" % name)).write_text(text + "\n", encoding="utf-8")
        print("\n" + text)

    return _record


@pytest.fixture()
def run_once(benchmark):
    """Run a flow exactly once under pytest-benchmark timing."""

    def _run(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _run
