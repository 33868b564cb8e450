"""Independent checkers for retained-set quality.

These are the measuring instruments the tests trust: they share no code
with the site-selection rules (epoch arithmetic is re-derived locally) and
work on plain retained-time collections, so they can judge any buffer that
reports which ingest times it currently holds.

A "retained set" here is the set of ingest times resident after T ingests;
every member is < T.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .errors import ConfigurationError, DomainError, _clip


def _check_site_count(S: int) -> None:
    if not isinstance(S, int) or S < 2 or S & (S - 1):
        raise ConfigurationError(f"site count must be a power of two >= 2, got {_clip(S)}")


def needed_set_steady(S: int, T: int) -> set[int]:
    """Ingest times a steady buffer must still hold at horizon T.

    With t = max(bit_length(T) - log2(S), 0), the needed times are the
    T' < T with T' = 2**t - 1 (mod 2**t): evenly spaced with gap 2**t, and
    between S/2 and S of them once T >= S.
    """
    _check_site_count(S)
    if not isinstance(T, int) or isinstance(T, bool) or T < 1:
        raise DomainError(f"horizon must be a positive integer, got {_clip(T)}")
    t = max(T.bit_length() - (S.bit_length() - 1), 0)
    step = 1 << t
    return set(range(step - 1, T, step))


class GapCheck(NamedTuple):
    passed: bool
    max_gap: int


def check_steady_gap(retained, S: int, T: int) -> GapCheck:
    """Largest uncovered stretch vs the even-coverage bound max(2T/S, 1).

    Gaps are measured over sorted(retained) with sentinels -1 and T, so
    both the pre-origin edge and the not-yet-covered tail count.  The
    comparison is exact: gap <= 2T/S is evaluated as gap * S <= 2 * T.
    """
    _check_site_count(S)
    if not isinstance(T, int) or isinstance(T, bool) or T < 1:
        raise DomainError(f"horizon must be a positive integer, got {_clip(T)}")
    seq = [-1, *sorted(retained), T]
    max_gap = max(b - a for a, b in zip(seq, seq[1:]))
    passed = max_gap <= 1 or max_gap * S <= 2 * T
    return GapCheck(passed, max_gap)


def window_coverage_metric(retained, T: int, mode: str) -> float:
    """Fraction of doubling windows that contain at least one retained time.

    Windows are [2**j, 2**j+1) over the measure m of each retained time,
    with m = T - T' (mode "age") or m = T' + 1 (mode "depth"); only windows
    lying fully inside [1, T] count.
    """
    if mode not in ("age", "depth"):
        raise ConfigurationError(f"mode must be 'age' or 'depth', got {_clip(mode)}")
    if not isinstance(T, int) or T < 2:
        raise DomainError(f"horizon must be an integer >= 2, got {_clip(T)}")
    windows = (T + 1).bit_length() - 1  # j with 2**(j+1) - 1 <= T
    covered = set()
    for x in retained:
        m = T - x if mode == "age" else x + 1
        if 1 <= m <= T:
            j = m.bit_length() - 1
            if j < windows:
                covered.add(j)
    return len(covered) / windows


def density_monotonicity_check(retained, T: int, direction: str, slack: int) -> bool:
    """Coarse density trend over 8 equal windows of [0, T).

    direction "stretched": every later window's count must stay within
    +slack of every earlier one (density never grows with recency).
    direction "tilted": the reverse.
    """
    if direction not in ("stretched", "tilted"):
        raise ConfigurationError(f"direction must be 'stretched' or 'tilted', got {_clip(direction)}")
    if not isinstance(T, int) or T < 8:
        raise DomainError(f"horizon must be an integer >= 8, got {_clip(T)}")
    bounds = [T * w // 8 for w in range(9)]
    counts = [0] * 8
    for x in retained:
        if 0 <= x < T:
            counts[bisect_right(bounds, x) - 1] += 1
    for i in range(8):
        for j in range(i + 1, 8):
            if direction == "stretched" and counts[j] > counts[i] + slack:
                return False
            if direction == "tilted" and counts[j] < counts[i] - slack:
                return False
    return True
