"""Every registered row's work and memory grow at most linearly in its horizon.

Profiles `run_experiment(ident, horizon=H)` with cProfile at
T = max(default_horizon // 4, 50) and at 4T, and requires the total calls at
4T to be at most 4.5 times those at T. The runs are deterministic, so the
counts are too, unlike a timed reading.

Call counts miss loops inside C iterators: an `islice` skip, a `filterfalse`
scan for a fresh value, a `max(list)` or a membership scan of a list costs
one call however long it runs. So the same two runs also count the values
drawn from every `ClosedFormLanguage.elements()` stream, where the strategies'
fresh-value scans read, and hold those to the same bound. A superlinear loop
in C over anything else still passes this gate.

Two more runs of each row, without the profiler, take the peak that
tracemalloc sees allocated at T and at 4T, held to the same bound. Peaks are
deterministic too. The memory gate misses what Python's allocator does not
serve (an extension's own buffers) and memory that is freed before the peak:
a row whose transient garbage grows superlinearly, but is dropped before the
row's live data peaks, passes.
"""

import cProfile
import itertools
import operator
import pstats
from unittest import mock

import pytest

from limitgen.experiments import EXPERIMENTS, run_experiment
from limitgen.langs import ClosedFormLanguage

from oracles import peak_per_step

GROWTH_BOUND = 4.5  # work at 4T over work at T; linear work reads at most 4


def _work(ident: str, horizon: int) -> tuple[int, int]:
    """The calls one run makes and the language elements it draws."""
    drawn = itertools.count()  # advanced in C once per element drawn
    elements = ClosedFormLanguage.elements

    def counted(self):
        # elements() streams are infinite, so zip never advances `drawn` in vain
        return map(operator.itemgetter(1), zip(drawn, elements(self)))

    profiler = cProfile.Profile()
    with mock.patch.object(ClosedFormLanguage, "elements", counted):
        profiler.runcall(run_experiment, ident, horizon=horizon)
    return pstats.Stats(profiler).total_calls, next(drawn)


def _horizon(ident: str) -> int:
    """T, the smaller of the two horizons a row is measured at."""
    return max(EXPERIMENTS[ident].default_horizon // 4, 50)


@pytest.mark.parametrize("ident", sorted(EXPERIMENTS))
def test_calls_grow_at_most_linearly_in_the_horizon(ident):
    horizon = _horizon(ident)
    (calls, draws), (calls_4x, draws_4x) = _work(ident, horizon), _work(ident, 4 * horizon)
    assert calls_4x <= GROWTH_BOUND * calls, (
        f"{ident}: {calls_4x:,} calls at horizon {4 * horizon} against {calls:,} at {horizon}"
    )
    assert draws_4x <= GROWTH_BOUND * draws, (
        f"{ident}: {draws_4x:,} draws at horizon {4 * horizon} against {draws:,} at {horizon}"
    )


def _peak(ident: str, horizon: int) -> float:
    """The most tracemalloc saw allocated while one run of the row ran."""
    return peak_per_step(1, lambda: run_experiment(ident, horizon=horizon))[0]


@pytest.mark.parametrize("ident", sorted(EXPERIMENTS))
def test_memory_peaks_grow_at_most_linearly_in_the_horizon(ident):
    horizon = _horizon(ident)
    peak, peak_4x = _peak(ident, horizon), _peak(ident, 4 * horizon)
    assert peak_4x <= GROWTH_BOUND * peak, (
        f"{ident}: {peak_4x:,.0f} B peak at horizon {4 * horizon} against {peak:,.0f} at {horizon}"
    )
