"""Reverse lookup: which ingest time does each site currently hold?

Because site selection is pure in (algorithm, S, T), the contents of any
surface can be indexed after the fact.  ``lookup_replay`` is the defining
oracle: replay every selection and keep the last writer per site.  The
tests hold every faster route to it.

``last_write_times`` builds the same table one segment at a time (a
scalar rule is one segment), each by its cheapest route:

* steady -- ``lookup_steady_fast`` resolves only the at most 2S arrivals
  that can still be retained (those whose hanoi value reaches one below
  the current epoch), each in O(1), so it is O(S) at any depth up to
  2**64 - 1, where replay is not;
* stretched -- a curator skips every discard, so the cost follows the
  writes, not T, and its ``table()`` reads the retained set in O(S);
* tilted -- never discards, so it replays with ``lookup_replay``.

Both greedy routes run forward, so the tables of one layout at several
Ts cost one pass to the deepest: a curator is read at each T on the way,
and ``lookup_replay`` copies its table out at each T it is given.
``explode_row`` turns one dumped (algo, S, T, width, hex) row into one
(site, ingest time, value) triple per site.  The CLI's explode
subcommand notes every row in a ``TableCache`` before it explodes any, so
each layout is passed over once and each row gets the list it built.
"""

from __future__ import annotations

from collections import Counter

from .algorithms import (
    REPLAY_CAP,
    STEADY,
    TILTED,
    Algorithm,
    _GreedyCurator,
    _layout,
    _refuse,
    _steady_site,
    _validate_time,
    epoch,
    parse_algorithm,
    selection_stream,
)
from .errors import ConfigurationError, DomainError, _clip
from .surface import check_dump


def lookup_replay(algo: Algorithm, S: int, T: int, at=None) -> list:
    """Last write time per site after T ingests, by replaying selections.

    entries[k] = max{T' < T : selection of T' includes k}, or None when the
    site was never written.  ``at``, a list or tuple of ascending times no
    later than T, asks for the table at each of them instead, from the same
    single pass; the result is then a list of tables.  Raises
    ReplayLimitError past the practicality cap and CapacityError when T
    exceeds the algorithm's supported length.
    """
    _layout(algo, S)
    _validate_time(T)
    _refuse(algo, S, T, None, REPLAY_CAP)
    if at is not None and not isinstance(at, (list, tuple)):
        raise ConfigurationError(f"need a list or tuple of replay stops, got {_clip(at)}")
    stops = [T] if at is None else list(at)
    for stop in stops:
        _validate_time(stop)
    if stops != sorted(stops) or (stops and stops[-1] > T):
        raise DomainError(f"replay stops must ascend to at most T={T}")
    entries: list = [None] * S
    tables = []
    # selection_stream refuses T past capacity
    selections = selection_stream(algo, S, T)
    done = 0
    for stop in stops:
        for Tp, selection in zip(range(done, stop), selections):
            for k in selection:
                entries[k] = Tp
        done = stop
        tables.append(entries[:])
    return tables[0] if at is None else tables


def lookup_steady_fast(S: int, T: int) -> list:
    """Steady lookup table without replay, in O(S).

    Only arrivals that can still be retained are visited.  For T >= 1 let
    t = epoch(S, T - 1), the last arrival's epoch.  Every item retained
    after T arrivals has hanoi value >= t - 1 (below), so the candidates
    are the T' < T with 2**max(t-1, 0) | T'+1: at most 2S of them, as
    T <= S * 2**t.  They are resolved with ``_steady_site`` in ascending
    order, discards skipped.  Each site's last writer is a candidate and
    nothing later writes that site, so the last write wins.  Each
    resolution is one discard test and T' mod (S+1).  T past the steady
    limit, 2**64 - 1, raises ReplayLimitError, as on every other path.

    Why retained implies hanoi >= t - 1.  Epoch u >= 1 spans arrivals
    [S * 2**(u-1), S * 2**u) and stores exactly those with 2**u | T'+1,
    S/2 of them.  The i-th of them (i = (T'+1) / 2**u - S/2 - 1, so
    0 <= i < S/2) goes to the site of X_i = (2i+1) * 2**(u-1) - 1, since
    T' - X_i = (S+1) * 2**(u-1) and a stored arrival sits at its time mod
    S+1 (``steady_assign``).  Let A_u be the S arrivals T' < S * 2**(u-1) with
    2**(u-1) | T'+1.  By induction on u, the buffer holds exactly A_u, one
    item per site, when epoch u begins.  A_1 is the epoch-0 fill.  The
    X_i are exactly A_u's S/2 items of hanoi value u - 1, so epoch u
    overwrites each of them once, with an arrival of hanoi >= u, and
    leaves A_{u+1}.  So while epoch t runs, the buffer holds only items
    of A_t and arrivals of epoch t, all with hanoi >= t - 1.
    """
    _, capacity, limit = _layout(STEADY, S)
    _validate_time(T)
    _refuse(STEADY, S, T, capacity, limit)
    entries: list = [None] * S
    if T:
        step = 1 << max(epoch(S, T - 1) - 1, 0)
        for Tp in range(step - 1, T, step):
            site = _steady_site(S, Tp)
            if site is not None:
                entries[site] = Tp
    return entries


def last_write_times(algo: Algorithm, S: int, T: int) -> list:
    """Lookup table after T ingests, up to the layout's limit.

    Segments curate independently, so each one's slice of the table comes
    from one route, at the segment's own size: ``lookup_steady_fast`` for
    steady, a skip from write to write for stretched, and ``lookup_replay``
    for tilted.
    """
    _, capacity, limit = _layout(algo, S)
    _validate_time(T)
    _refuse(algo, S, T, capacity, limit)
    return _tables_at(algo, S, [T])[0]


def _tables_at(algo: Algorithm, S: int, Ts: list) -> list[list]:
    # the table at each of the ascending, refused Ts, one forward pass per greedy
    # segment; each segment's part at a T extends that T's table
    tables: list[list] = [[] for _ in Ts]
    for kind, size, _ in _layout(algo, S)[0]:
        if kind == "steady":
            parts = [lookup_steady_fast(size, T) for T in Ts]
        elif kind == "stretched":
            curator, parts = _GreedyCurator(size, False), []
            for T in Ts:
                curator.skip_to(T)
                parts.append(curator.table())
        else:
            parts = lookup_replay(TILTED, size, Ts[-1], at=Ts)
        for table, part in zip(tables, parts):
            table += part
    return tables


class TableCache:
    """Lookup tables for a batch of dumps, one forward pass per layout.

    ``note`` each row before exploding any, then pass the cache to
    ``explode_row``.  The first row of a layout with a greedy segment to
    be exploded builds the tables at every T noted for that layout in one
    pass, so the layout costs its deepest row, not the sum of its rows.
    Each table is held as the list that pass built, one per distinct T:
    every row noted at that T but the last takes a copy, and the last
    takes the list itself.  Steady layouts have a closed form at any
    depth, so they are not held and each row builds its own.
    """

    def __init__(self):
        self._wanted: dict[tuple, Counter] = {}  # (algo, S) -> rows per T
        self._held: dict[tuple, list] = {}  # (algo, S, T) -> [rows left, table]

    def note(self, algo, S: int, T: int, value_bits: int, text: str) -> None:
        """Note one dump; raise as ``explode_row`` would for a bad one."""
        if isinstance(algo, str):
            algo = parse_algorithm(algo)
        check_dump(algo, S, T, value_bits, text)
        if _layout(algo, S)[1] is not None:  # bounded iff a segment is greedy
            self._wanted.setdefault((algo, S), Counter())[T] += 1

    def take(self, algo: Algorithm, S: int, T: int) -> list:
        """A noted row's table from its layout's shared pass; any other row's
        from ``last_write_times``, which refuses T past the limit or capacity."""
        wanted = self._wanted.pop((algo, S), None)
        if wanted is not None:
            Ts = sorted(wanted)
            for Tp, table in zip(Ts, _tables_at(algo, S, Ts)):
                self._held[(algo, S, Tp)] = [wanted[Tp], table]
        held = self._held.get((algo, S, T))
        if held is None:
            return last_write_times(algo, S, T)
        held[0] -= 1
        if held[0]:
            return held[1][:]
        return self._held.pop((algo, S, T))[1]


def explode_row(algo, S: int, T: int, value_bits: int, text: str, tables=None) -> list[tuple]:
    """Explode one dump into (site, ingest_time, value) triples, site order.

    Unwritten sites yield (k, None, None); the zero padding they carry in
    the hex digest is not a value.  ``algo`` may be an Algorithm or its
    text token; the dump is checked as ``Surface.from_hex`` checks it.
    ``tables``, a ``TableCache``, hands over a noted row's table from its
    layout's shared pass, and ``last_write_times``'s for any other row.
    """
    if isinstance(algo, str):
        algo = parse_algorithm(algo)
    slots = check_dump(algo, S, T, value_bits, text)
    entries = last_write_times(algo, S, T) if tables is None else tables.take(algo, S, T)
    # unwritten sites carry no value: their zero padding is not one
    return [(k, tbar, None if tbar is None else slots[k]) for k, tbar in enumerate(entries)]
