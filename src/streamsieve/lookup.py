"""Reverse lookup: which ingest time does each site currently hold?

Because site selection is pure in (algorithm, S, T), the contents of any
surface can be indexed after the fact.  ``lookup_replay`` is the defining
oracle: replay every selection and keep the last writer per site.  For the
steady rule, ``lookup_steady_fast`` computes the same table by enumerating
only the arrivals that were actually stored (per epoch, the ones whose
hanoi value reaches the epoch), which is O(S * log^2 T) and practical at
stream lengths where replay is not.

``explode_records`` turns dumped (algo, S, T, width, hex) rows into one
record per site, pairing each stored value with its reconstructed ingest
time; it backs the CLI's explode subcommand.
"""

from __future__ import annotations

from typing import NamedTuple

from .algorithms import (
    MAX_STEADY_T,
    REPLAY_CAP,
    Algorithm,
    _steady_site,
    _validate_algorithm_sites,
    _validate_time,
    epoch,
    has_ingest_capacity,
    parse_algorithm,
    selection_stream,
    stream_capacity,
    validate_site_count,
)
from .errors import CapacityError, ReplayLimitError
from .surface import unpack_slots_hex, validate_value_bits


def lookup_replay(algo: Algorithm, S: int, T: int) -> list:
    """Last write time per site after T ingests, by replaying selections.

    entries[k] = max{T' < T : selection of T' includes k}, or None when the
    site was never written.  Raises ReplayLimitError past the practicality
    cap and CapacityError when T exceeds the algorithm's supported length.
    """
    _validate_algorithm_sites(algo, S)
    _validate_time(T)
    if T > REPLAY_CAP:
        raise ReplayLimitError(
            f"replay lookup is capped at T <= {REPLAY_CAP}, got T={T}"
        )
    if T > 0 and not has_ingest_capacity(algo, S, T - 1):
        raise CapacityError(
            f"{algo} with S={S} supports at most {stream_capacity(algo, S)} "
            f"ingests, got T={T}"
        )
    entries: list = [None] * S
    for Tp, selection in enumerate(selection_stream(algo, S, T)):
        for k in selection:
            entries[k] = Tp
    return entries


def lookup_steady_fast(S: int, T: int) -> list:
    """Steady lookup table without replay.

    Epoch 0 arrivals fill sites identically; epoch u stores exactly the
    arrivals with T'+1 divisible by 2**u.  Enumerating those few arrivals
    per epoch and resolving each site directly gives the last writer per
    site in O(S * log^2 T).
    """
    validate_site_count(S)
    if not isinstance(T, int) or isinstance(T, bool) or T < 0 or T > MAX_STEADY_T:
        raise ValueError(
            f"ingest counter must be an integer in [0, 2**64 - 1], got {T!r}"
        )
    entries: list = [None] * S
    for Tp in range(min(S, T)):
        entries[Tp] = Tp
    for u in range(1, epoch(S, T) + 1):
        lo = S << (u - 1)
        hi = min(S << u, T)
        step = 1 << u
        # lo is a multiple of 2**u, so the first storable arrival in the
        # epoch is lo + 2**u - 1
        for Tp in range(lo + step - 1, hi, step):
            entries[_steady_site(S, Tp)] = Tp
    return entries


def last_write_times(algo: Algorithm, S: int, T: int) -> list:
    """Lookup table via the cheapest sound route for the algorithm."""
    if algo.kind == "steady":
        _validate_algorithm_sites(algo, S)
        return lookup_steady_fast(S, T)
    return lookup_replay(algo, S, T)


class StreamRecord(NamedTuple):
    """One site of one exploded dump row."""

    row: int
    site: int
    ingest_time: int | None
    value: int | None


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


def explode_records(rows) -> tuple[list[StreamRecord], list[tuple[int, str]]]:
    """Explode a batch of (algo, S, T, value_bits, hex) rows.

    Returns (records, rejects).  A failing row contributes one
    (row ordinal, reason) reject and no records; it never aborts the batch.
    """
    records: list[StreamRecord] = []
    rejects: list[tuple[int, str]] = []
    for row, fields in enumerate(rows):
        try:
            algo, S, T, value_bits, text = fields
            triples = explode_row(algo, S, T, value_bits, text)
        except (ValueError, TypeError) as exc:
            rejects.append((row, str(exc)))
            continue
        records.extend(
            StreamRecord(row, site, tbar, value) for site, tbar, value in triples
        )
    return records, rejects
