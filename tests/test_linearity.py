"""Every registered row's work grows at most linearly in its horizon.

Profiles `run_experiment(ident, horizon=H)` with cProfile at
T = max(default_horizon // 4, 50) and at 4T, and requires the total calls at
4T to be at most 4.5 times those at T. The runs are deterministic, so the
counts are too, unlike a timed reading.

Call counts miss loops inside C iterators: an `islice` skip, a `max(list)`
or a membership scan of a list costs one call however long it runs. So a
superlinear loop in C passes this gate, and memory is checked by the
tracemalloc per-step tests, not here.
"""

import cProfile
import pstats

import pytest

from limitgen.experiments import EXPERIMENTS, run_experiment

GROWTH_BOUND = 4.5  # calls at 4T over calls at T; linear work reads at most 4


def _calls(ident: str, horizon: int) -> int:
    profiler = cProfile.Profile()
    profiler.runcall(run_experiment, ident, horizon=horizon)
    return pstats.Stats(profiler).total_calls


@pytest.mark.parametrize("ident", sorted(EXPERIMENTS))
def test_calls_grow_at_most_linearly_in_the_horizon(ident):
    horizon = max(EXPERIMENTS[ident].default_horizon // 4, 50)
    small, large = _calls(ident, horizon), _calls(ident, 4 * horizon)
    assert large <= GROWTH_BOUND * small, (
        f"{ident}: {large:,} calls at horizon {4 * horizon} against {small:,} at {horizon}"
    )
