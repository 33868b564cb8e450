"""Microbenchmark runner for the site-selection rules.

Times assignment over half-open ingest windows [t_lo, t_hi), which may
start anywhere.  Every layout is timed one way: a fresh ``Selector`` per
replicate seeks to t_lo outside the timed region, then steps each arrival
of the window.  Steady segments seek for free at any depth; a greedy one
steps forward to t_lo.  Every window is held to the layout's limit and
capacity, as any other path that takes it that far is, and steps at most
REPLAY_CAP arrivals.

No I/O happens inside a timed region; the clock is perf_counter_ns.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import NamedTuple

from .algorithms import REPLAY_CAP, Algorithm, Selector, _layout, _refuse
from .errors import ConfigurationError, DomainError, _clip


class BenchResult(NamedTuple):
    algo: str
    S: int
    t_lo: int
    t_hi: int
    items: int
    total_ns: int
    ns_per_item: float
    replicate: int


BENCH_FIELDS = ("algo", "S", "T_lo", "T_hi", "items", "total_ns", "ns_per_item", "replicate")


def _validate_window(algo: Algorithm, S: int, window) -> tuple[int, int]:
    _, capacity, limit = _layout(algo, S)
    try:
        t_lo, t_hi = window
    except (TypeError, ValueError):  # not a pair
        t_lo = t_hi = None
    if not (type(t_lo) is int and type(t_hi) is int) or t_lo < 0 or t_hi <= t_lo:
        raise DomainError(f"bad depth window {_clip(window)}")
    _refuse(algo, S, t_hi, capacity, limit)
    # a steady window may start at any depth, but steps no more than replay
    _refuse(algo, S, t_hi - t_lo, None, REPLAY_CAP)
    return t_lo, t_hi


def _time_window(algo: Algorithm, S: int, t_lo: int, t_hi: int) -> int:
    # fresh state per replicate so every run pays the true per-step cost
    selector = Selector(algo, S)
    selector.seek(t_lo)
    step = selector.step
    t0 = perf_counter_ns()
    for _ in range(t_hi - t_lo):
        step()
    return perf_counter_ns() - t0


def run_benchmark(algo: Algorithm, sizes, windows, replicates: int) -> list[BenchResult]:
    """Time selection across sizes x windows x replicates.

    ``sizes`` is a list or tuple of site counts and ``windows`` a list or
    tuple of (t_lo, t_hi) int pairs; anything else is a ConfigurationError.
    Returns one row per (S, window, replicate), in that nesting order.
    """
    if type(replicates) is not int or replicates < 1:
        raise DomainError(f"replicates must be a positive integer, got {_clip(replicates)}")
    if not isinstance(sizes, (list, tuple)) or not sizes:
        raise ConfigurationError(f"need a list or tuple of at least one size, got {_clip(sizes)}")
    # an iterator would be spent on the first size and skip the rest
    if not isinstance(windows, (list, tuple)):
        raise ConfigurationError(f"need a list or tuple of depth windows, got {_clip(windows)}")
    if not windows:
        raise DomainError("need at least one depth window")
    plans = [(S, *_validate_window(algo, S, window)) for S in sizes for window in windows]
    results = []
    token = algo.token()
    for S, t_lo, t_hi in plans:
        items = t_hi - t_lo
        for replicate in range(replicates):
            total_ns = _time_window(algo, S, t_lo, t_hi)
            results.append(
                BenchResult(token, S, t_lo, t_hi, items, total_ns, total_ns / items, replicate)
            )
    return results
