"""Tests for the retained-set quality checkers.

The checkers are the instruments the acceptance gate trusts, so their
expected values here are computed straight from their stated definitions.
"""

import pytest

from streamsieve import (
    REPLAY_CAP,
    STEADY,
    TILTED,
    ConfigurationError,
    DomainError,
    ReplayLimitError,
    StreamSieveError,
    check_steady_gap,
    epoch,
    lookup_replay,
    needed_set_steady,
    density_monotonicity_check,
    run_benchmark,
    window_coverage_metric,
)

from reference_rules import greedy_retained


def test_needed_set_formula():
    # t = epoch(S, T); members are the T' < T with T' = 2^t - 1 (mod 2^t)
    assert needed_set_steady(4, 8) == {3, 7}
    assert needed_set_steady(4, 4) == {1, 3}  # t = 1
    assert needed_set_steady(4, 16) == {7, 15}  # t = 3
    assert needed_set_steady(4, 3) == {0, 1, 2}  # t = 0: everything so far
    assert needed_set_steady(8, 8) == {1, 3, 5, 7}


def test_needed_set_spacing_and_size():
    for S in (4, 8, 16):
        for T in range(1, 2048):
            needed = sorted(needed_set_steady(S, T))
            t = epoch(S, T)
            assert all((x + 1) % (1 << t) == 0 for x in needed)
            gaps = {b - a for a, b in zip(needed, needed[1:])}
            assert gaps in (set(), {1 << t})
            if T >= S:
                assert S // 2 <= len(needed) < S, (S, T)


def test_needed_set_contained_in_steady_buffer():
    for S in (4, 8):
        for T in range(1, 1024):
            retained = {e for e in lookup_replay(STEADY, S, T) if e is not None}
            assert needed_set_steady(S, T) <= retained, (S, T)


def test_gap_check_examples():
    assert check_steady_gap({3, 7}, 4, 8) == (True, 4)
    passed, max_gap = check_steady_gap({1, 3, 5, 7}, 4, 9)
    assert passed and max_gap == 2
    assert check_steady_gap({7}, 4, 8).passed is False
    # a time outside [0, T) has no gap: the first one is named
    with pytest.raises(DomainError, match=r"retained time 9 is outside \[0, T=8\)"):
        check_steady_gap([3, 9, -5], 4, 8)


def test_gap_check_bound_is_exact():
    # gap 4 vs bound 2*8/4 = 4: inclusive
    assert check_steady_gap({3, 7}, 4, 8).passed
    # gap 4 vs 2*7/4 = 3.5: the comparison must not round in anyone's favour
    assert not check_steady_gap({3, 6}, 4, 7).passed


def test_gap_check_identity_fill_passes_small_T():
    # bound floors at 1, so a dense prefix always passes
    assert check_steady_gap({0}, 64, 1).passed
    assert check_steady_gap({0, 1, 2}, 64, 3).passed


def test_coverage_trivial_cases():
    assert window_coverage_metric(range(16), 16, "age") == 1.0
    assert window_coverage_metric(range(16), 16, "depth") == 1.0
    assert window_coverage_metric([], 16, "age") == 0.0
    with pytest.raises(ValueError):
        window_coverage_metric([0], 16, "recency")
    with pytest.raises(ValueError):
        window_coverage_metric([0], 1, "age")


def test_coverage_counts_only_full_windows():
    # T=6: full windows are [1,2) and [2,4); a measure of 5 lands past them
    assert window_coverage_metric([1], 6, "age") == 0.0  # age 5: no full window
    assert window_coverage_metric([5], 6, "age") == 0.5  # age 1: window 0
    assert window_coverage_metric([5, 3], 6, "age") == 1.0  # ages 1 and 3


def test_monotonicity_examples():
    assert density_monotonicity_check({0, 1, 2, 3}, 64, "stretched", 2)
    assert not density_monotonicity_check({60, 61, 62, 63}, 64, "stretched", 2)
    assert density_monotonicity_check({60, 61, 62, 63}, 64, "tilted", 2)
    assert not density_monotonicity_check({0, 1, 2, 3}, 64, "tilted", 2)
    with pytest.raises(ValueError):
        density_monotonicity_check({0}, 64, "sideways", 2)


def test_monotonicity_slack_is_per_pair():
    # window counts 3,0,...,0,5: the empty middle windows make the last one
    # exceed them by 5, so nothing below that slack can pass
    retained = {0, 1, 2, 59, 60, 61, 62, 63}
    assert not density_monotonicity_check(retained, 64, "stretched", 2)
    assert not density_monotonicity_check(retained, 64, "stretched", 4)
    assert density_monotonicity_check(retained, 64, "stretched", 5)


def test_checkers_on_greedy_replays():
    # smoke the checkers against real retained sets (acceptance scales this up)
    T = 512
    stretched = greedy_retained("stretched", 16, T)
    tilted = greedy_retained("tilted", 16, T)
    assert density_monotonicity_check(stretched, T, "stretched", 2)
    assert density_monotonicity_check(tilted, T, "tilted", 2)
    assert window_coverage_metric(stretched, T, "depth") >= 0.9
    assert window_coverage_metric(tilted, T, "age") >= 0.9


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: needed_set_steady(6, 8), ConfigurationError),
        (lambda: needed_set_steady(4, 0), DomainError),
        (lambda: check_steady_gap([0], 4, -1), DomainError),
        (lambda: check_steady_gap([0], 3, 8), ConfigurationError),
        # every retained time lies in [0, T)
        (lambda: check_steady_gap([9], 4, 8), DomainError),
        (lambda: check_steady_gap([-5], 4, 2), DomainError),
        (lambda: window_coverage_metric([0], 16, "recency"), ConfigurationError),
        (lambda: window_coverage_metric([0], 1, "age"), DomainError),
        (lambda: density_monotonicity_check({0}, 64, "sideways", 2), ConfigurationError),
        (lambda: density_monotonicity_check({0}, 7, "tilted", 2), DomainError),
        (lambda: run_benchmark(STEADY, [64], [(5, 2)], 1), DomainError),
        (lambda: run_benchmark(STEADY, [64], [(0, 8, 16)], 1), DomainError),
        (lambda: run_benchmark(STEADY, [64], [8], 1), DomainError),
        (lambda: run_benchmark(TILTED, [32], [(1, REPLAY_CAP + 1)], 1), ReplayLimitError),
        # a steady window may start at any depth but steps at most REPLAY_CAP
        (lambda: run_benchmark(STEADY, [4], [(0, 2**64 - 1)], 1), ReplayLimitError),
        (lambda: run_benchmark(STEADY, [4], [(2**40, 2**40 + REPLAY_CAP + 1)], 1), ReplayLimitError),
        (lambda: run_benchmark(STEADY, [64], [(0, 8)], 0), DomainError),
        (lambda: run_benchmark(STEADY, [], [(0, 8)], 1), ConfigurationError),
        (lambda: run_benchmark(STEADY, [64], [], 1), DomainError),
        (lambda: run_benchmark(STEADY, [6], [(0, 8)], 1), ConfigurationError),
        (lambda: run_benchmark(STEADY, [4], [(False, True)], 1), DomainError),
        (lambda: run_benchmark(STEADY, [4], [(0, 4)], True), DomainError),
        (lambda: run_benchmark(STEADY, 4, [(0, 4)], 1), ConfigurationError),
        # an iterator was spent on S=4, and S=8 silently went untimed
        (lambda: run_benchmark(STEADY, [4, 8], (w for w in [(0, 4)]), 1), ConfigurationError),
    ],
    ids=[
        "needed-S", "needed-T", "gap-T", "gap-S", "gap-time-past-T", "gap-negative-time",
        "coverage-mode", "coverage-T",
        "density-direction", "density-T", "bench-reversed-window", "bench-triple-window",
        "bench-int-window", "bench-window-past-replay-cap", "bench-steady-window-of-2**64-1",
        "bench-deep-steady-window-past-replay-cap", "bench-replicates",
        "bench-no-sizes", "bench-no-windows", "bench-S", "bench-bool-window",
        "bench-bool-replicates", "bench-int-sizes", "bench-iterator-windows",
    ],
)
def test_bad_arguments_raise_library_errors(call, error):
    # every library error is a StreamSieveError, and still a ValueError
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, StreamSieveError)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # each range check refuses a bool as it refuses 0 and 1
        (lambda v: needed_set_steady(v, 8), ConfigurationError,
         "site count must be a power of two >= 2, got {!r}"),
        (lambda v: check_steady_gap([0], v, 8), ConfigurationError,
         "site count must be a power of two >= 2, got {!r}"),
        (lambda v: window_coverage_metric([0], v, "age"), DomainError,
         "horizon must be an integer >= 2, got {!r}"),
        (lambda v: density_monotonicity_check({0}, v, "tilted", 2), DomainError,
         "horizon must be an integer >= 8, got {!r}"),
        # where True would pass the range check as 1, a clause refuses it
        (lambda v: needed_set_steady(4, v), DomainError,
         "horizon must be a positive integer, got {!r}"),
        (lambda v: check_steady_gap([0], 4, v), DomainError,
         "horizon must be a positive integer, got {!r}"),
    ],
    ids=["needed-S", "gap-S", "coverage-T", "density-T", "needed-T", "gap-T"],
)
@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_refused(call, error, message, value):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message.format(value)


@pytest.mark.parametrize("T", [8, 9, 15, 64, 1000])
def test_every_time_below_the_horizon_lands_in_one_of_8_windows(T):
    # bisect puts 0 <= x < T in windows 0..7: the last bound is T itself
    assert density_monotonicity_check(range(T), T, "stretched", T)
    assert density_monotonicity_check([T - 1] * (T // 8 + 1), T, "tilted", 0)
    assert not density_monotonicity_check([T - 1] * (T // 8 + 1), T, "stretched", 0)
