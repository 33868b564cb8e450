"""Reverse lookup: which ingest time does each site currently hold?

Because site selection is pure in (algorithm, S, T), the contents of any
surface can be indexed after the fact.  ``lookup_replay`` is the defining
oracle: replay every selection and keep the last writer per site.
``last_write_times`` builds the same table one segment at a time (a
scalar rule is one segment), each by its cheapest route:

* steady -- ``lookup_steady_fast`` resolves only the at most 2S arrivals
  that can still be retained (those whose hanoi value reaches one below
  the current epoch), which is O(S * log T) and practical at any depth up
  to 2**64 - 1, where replay is not;
* stretched -- a curator jumps from write to write, skipping every
  discard, so the cost follows the number of writes, not T;
* tilted -- never discards, so it replays with ``lookup_replay``.

``explode_row`` turns one dumped (algo, S, T, width, hex) row into one
(site, ingest time, value) triple per site; the CLI's explode subcommand
calls it once per input row.
"""

from __future__ import annotations

from .algorithms import (
    MAX_STEADY_T,
    REPLAY_CAP,
    TILTED,
    Algorithm,
    Selector,
    _GreedyCurator,
    _refuse,
    _segments,
    _steady_site,
    _validate_algorithm_sites,
    _validate_time,
    epoch,
    parse_algorithm,
    selection_stream,
    validate_site_count,
)
from .errors import DomainError
from .surface import unpack_slots_hex, validate_value_bits


def lookup_replay(algo: Algorithm, S: int, T: int) -> list:
    """Last write time per site after T ingests, by replaying selections.

    entries[k] = max{T' < T : selection of T' includes k}, or None when the
    site was never written.  Raises ReplayLimitError past the practicality
    cap and CapacityError when T exceeds the algorithm's supported length.
    """
    _validate_algorithm_sites(algo, S)
    _validate_time(T)
    _refuse(algo, S, T, None, REPLAY_CAP)
    entries: list = [None] * S
    # selection_stream refuses T past capacity
    for Tp, selection in enumerate(selection_stream(algo, S, T)):
        for k in selection:
            entries[k] = Tp
    return entries


def lookup_steady_fast(S: int, T: int) -> list:
    """Steady lookup table without replay, in O(S * log T).

    Only arrivals that can still be retained are visited.  For T >= 1 let
    t = epoch(S, T - 1), the last arrival's epoch.  Every item retained
    after T arrivals has hanoi value >= t - 1 (below), so the candidates
    are the T' < T with 2**max(t-1, 0) | T'+1: at most 2S of them, as
    T <= S * 2**t.  They are resolved with ``_steady_site`` in ascending
    order, discards skipped.  Each site's last writer is a candidate and
    nothing later writes that site, so the last write wins.  Each
    resolution walks down at most t epochs.

    Why retained implies hanoi >= t - 1.  Epoch u >= 1 spans arrivals
    [S * 2**(u-1), S * 2**u) and stores exactly those with 2**u | T'+1,
    S/2 of them.  The i-th of them (i = (T'+1) / 2**u - S/2 - 1, so
    0 <= i < S/2) goes to the site of X_i = (2i+1) * 2**(u-1) - 1:
    one pass of the loop in ``_steady_site`` leaves it where the call for
    X_i starts.  Let A_u be the S arrivals T' < S * 2**(u-1) with
    2**(u-1) | T'+1.  By induction on u, the buffer holds exactly A_u, one
    item per site, when epoch u begins.  A_1 is the epoch-0 fill.  The
    X_i are exactly A_u's S/2 items of hanoi value u - 1, so epoch u
    overwrites each of them once, with an arrival of hanoi >= u, and
    leaves A_{u+1}.  So while epoch t runs, the buffer holds only items
    of A_t and arrivals of epoch t, all with hanoi >= t - 1.
    """
    validate_site_count(S)
    if not isinstance(T, int) or isinstance(T, bool) or T < 0 or T > MAX_STEADY_T:
        raise DomainError(
            f"ingest counter must be an integer in [0, 2**64 - 1], got {T!r}"
        )
    entries: list = [None] * S
    if T:
        step = 1 << max(epoch(S, T - 1) - 1, 0)
        for Tp in range(step - 1, T, step):
            site = _steady_site(S, Tp)
            if site is not None:
                entries[site] = Tp
    return entries


def last_write_times(algo: Algorithm, S: int, T: int) -> list:
    """Lookup table after T ingests, up to the reload limit.

    Segments curate independently, so each one's slice of the table comes
    from one route, at the segment's own size: ``lookup_steady_fast`` for
    steady, a skip from write to write for stretched, and ``lookup_replay``
    for tilted.
    """
    selector = Selector(algo, S)
    _validate_time(T)
    _refuse(algo, S, T, selector.capacity, selector.reload_limit)
    entries: list = []
    for kind, size, _ in _segments(algo, S):
        if kind == "steady":
            entries += lookup_steady_fast(size, T)
        elif kind == "stretched":
            entries += _stretched_writers(size, T)
        else:
            entries += lookup_replay(TILTED, size, T)
    return entries


def _stretched_writers(S: int, T: int) -> list:
    curator = _GreedyCurator(S, False)
    curator.skip_to(T)
    entries: list = [None] * S
    for tbar, k in zip(curator.times, curator.sites):
        entries[k] = tbar
    return entries


def explode_row(algo, S: int, T: int, value_bits: int, text: str) -> list[tuple]:
    """Explode one dump into (site, ingest_time, value) triples, site order.

    Unwritten sites yield (k, None, None); the zero padding they carry in
    the hex digest is not a value.  ``algo`` may be an Algorithm or its
    text token.
    """
    if isinstance(algo, str):
        algo = parse_algorithm(algo)
    validate_value_bits(value_bits)
    _validate_algorithm_sites(algo, S)
    slots = unpack_slots_hex(text, S, value_bits)
    entries = last_write_times(algo, S, T)
    return [
        (k, entries[k], slots[k] if entries[k] is not None else None)
        for k in range(S)
    ]
