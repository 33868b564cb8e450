"""Lookup table and explode tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamsieve.lookup
from streamsieve import (
    REPLAY_CAP,
    STEADY,
    STRETCHED,
    TILTED,
    CapacityError,
    ConfigurationError,
    DomainError,
    HexFormatError,
    ReplayLimitError,
    StreamSieveError,
    TableCache,
    explode_row,
    hybrid,
    last_write_times,
    lookup_replay,
    lookup_steady_fast,
    selection_stream,
    site_selection,
)
from streamsieve.algorithms import MAX_STEADY_T, _GreedyCurator, _layout

from reference_rules import epoch_walk_lookup, replay_last_writers


def test_lookup_replay_examples():
    assert lookup_replay(STEADY, 4, 4) == [0, 1, 2, 3]
    assert lookup_replay(STEADY, 4, 8) == [5, 1, 7, 3]
    assert lookup_replay(STEADY, 4, 16) == [15, 11, 7, 3]
    assert lookup_replay(STEADY, 4, 0) == [None] * 4


def test_lookup_replay_definition():
    # entries[k] == max T' < T whose selection includes k, for any rule
    for algo, S in ((STEADY, 8), (STRETCHED, 8), (TILTED, 8), (hybrid(("steady", 8), ("tilted", 8)), 16)):
        T = 200
        expected = replay_last_writers(
            [site_selection(algo, S, Tp) for Tp in range(T)]
        )
        entries = lookup_replay(algo, S, T)
        assert entries == [expected.get(k) for k in range(S)], algo


def test_lookup_greedy_tables():
    # frozen from replaying the greedy rules by hand
    assert lookup_replay(TILTED, 4, 8) == [7, 6, 5, 3]
    assert lookup_replay(STRETCHED, 4, 14) == [0, 1, 12, 3]


def test_replay_cap_precedes_capacity():
    with pytest.raises(ReplayLimitError):
        lookup_replay(TILTED, 8, 2**40)  # violates both bounds; cap wins
    with pytest.raises(CapacityError):
        lookup_replay(STRETCHED, 4, 100)
    with pytest.raises(ReplayLimitError):
        lookup_replay(STEADY, 4, REPLAY_CAP + 1)


def test_fast_equals_replay_small_grid():
    for S in (4, 8, 16):
        entries = [None] * S
        for T in range(513):
            assert lookup_steady_fast(S, T) == entries, (S, T)
            k = site_selection(STEADY, S, T)
            for site in k:
                entries[site] = T
    # and directly against the replay oracle at a few points
    for S in (4, 8, 32):
        for T in (0, 1, S - 1, S, 2 * S + 1, 300):
            assert lookup_steady_fast(S, T) == lookup_replay(STEADY, S, T)


def test_fast_lookup_far_past_replay_range():
    entries = lookup_steady_fast(64, 2**32)
    assert len(entries) == 64
    assert len(set(entries)) == 64  # all written, all distinct
    for k, tbar in enumerate(entries):
        assert tbar < 2**32
        assert site_selection(STEADY, 64, tbar) == {k}


@pytest.mark.parametrize("S", [4, 8, 16, 64])
def test_fast_lookup_matches_epoch_walk_exhaustively(S):
    for T in range(4096):
        assert lookup_steady_fast(S, T) == epoch_walk_lookup(S, T), (S, T)


@pytest.mark.parametrize("S", [1 << s for s in range(2, 11)])
def test_fast_lookup_matches_epoch_walk_at_epoch_boundaries(S):
    u = 0
    while (S << u) - 1 <= MAX_STEADY_T:
        for T in ((S << u) - 1, S << u, (S << u) + 1):
            if T <= MAX_STEADY_T:
                assert lookup_steady_fast(S, T) == epoch_walk_lookup(S, T), (S, T)
        u += 1
    assert lookup_steady_fast(S, MAX_STEADY_T) == epoch_walk_lookup(S, MAX_STEADY_T)


def test_fast_lookup_matches_epoch_walk_at_random_depths():
    rng = random.Random(20260418)
    for _ in range(200):
        S, T = 1 << rng.randrange(2, 11), rng.randrange(1 << 64)
        assert lookup_steady_fast(S, T) == epoch_walk_lookup(S, T), (S, T)


def test_fast_lookup_resolves_at_most_2S_arrivals(monkeypatch):
    calls = []

    def counting(S, T):
        calls.append(T)
        return _steady_site(S, T)

    _steady_site = streamsieve.lookup._steady_site
    monkeypatch.setattr(streamsieve.lookup, "_steady_site", counting)
    for S in (4, 64, 1024):
        for T in (S + 1, 2 * S, 3 * S, 1 << 40, MAX_STEADY_T):
            calls.clear()
            lookup_steady_fast(S, T)
            # at least one, so a lookup that stops calling the kernel fails
            assert 0 < len(calls) <= 2 * S, (S, T, len(calls))
            assert calls == sorted(calls)


def test_last_write_times_dispatch():
    assert last_write_times(STEADY, 4, 2**30) == lookup_steady_fast(4, 2**30)
    assert last_write_times(TILTED, 4, 10) == lookup_replay(TILTED, 4, 10)
    # each steady segment in closed form, so this deep table needs no replay
    both = hybrid(("steady", 4), ("steady", 4))
    assert last_write_times(both, 8, REPLAY_CAP) == 2 * lookup_steady_fast(4, REPLAY_CAP)


def _replayed_tables(algo, S, Ts):
    """Yield (T, lookup_replay(algo, S, T)) for ascending Ts from one replay."""
    entries = [None] * S
    stream = selection_stream(algo, S, Ts[-1])
    done = 0
    for T in Ts:
        for Tp, selection in zip(range(done, T), stream):
            for k in selection:
                entries[k] = Tp
        done = T
        yield T, entries


_SEEDED = sorted(random.Random(1024).sample(range(1 << 16), 40))


@pytest.mark.parametrize(
    "algo, S, Ts",
    [
        (STRETCHED, 4, range(15)),
        (STRETCHED, 8, range(255)),
        (STRETCHED, 16, range(65535)),
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16, range(15)),
        (hybrid(("steady", 4), ("steady", 4)), 8, range(4097)),
        (STRETCHED, 64, range(0, 3001, 7)),
        (STRETCHED, 256, range(0, 3001, 7)),
        (hybrid(("steady", 32), ("tilted", 32)), 64, range(0, 3001, 7)),
        (STRETCHED, 1024, _SEEDED),
    ],
    ids=[
        "stretched4", "stretched8", "stretched16", "stretched4+steady8+tilted4",
        "steady4+steady4", "stretched64", "stretched256", "steady32+tilted32",
        "stretched1024-seeded",
    ],
)
def test_last_write_times_matches_replay(algo, S, Ts):
    """One route per segment gives the replayed table: exhaustively up to
    capacity at S <= 16 (to 4096 for the unbounded all-steady hybrid), every
    7th T at S = 64 and 256, seeded T < 2**16 at S = 1024."""
    for T, replayed in _replayed_tables(algo, S, Ts):
        assert last_write_times(algo, S, T) == replayed, (algo, S, T)
    assert replayed == lookup_replay(algo, S, T)



@pytest.mark.parametrize(
    "algo, S, Ts",
    [
        (STRETCHED, 16, range(0, 65535, 5)),
        (TILTED, 16, [0, 1, 1, 15, 16, 17, 300, 300, 4000]),
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16, range(15)),
        (hybrid(("steady", 32), ("tilted", 32)), 64, [0, 5, 64, 64, 700, 2000]),
        (STEADY, 64, [0, 63, 64, 1000, 1000, 4096]),
        (STRETCHED, 1024, _SEEDED),
    ],
    ids=["stretched16", "tilted16", "stretched4+steady8+tilted4", "steady32+tilted32",
         "steady64", "stretched1024-seeded"],
)
def test_tables_at_several_Ts_match_replay(algo, S, Ts):
    # one forward pass per segment gives the replayed table at every T
    Ts = list(Ts)
    tables = streamsieve.lookup._tables_at(algo, S, Ts)
    assert len(tables) == len(Ts)
    # later segments extend the first one's lists in place, so none may alias
    assert len({id(table) for table in tables}) == len(Ts)
    for table, (T, replayed) in zip(tables, _replayed_tables(algo, S, Ts)):
        assert table == replayed, (algo, S, T)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("S", [4, 8, 16, 64])
@pytest.mark.parametrize("algo", [STRETCHED, TILTED], ids=["stretched", "tilted"])
def test_a_curator_table_matches_replay(algo, S, data):
    """A greedy curator's ``table()`` is the replayed table at every T that
    one ``skip_to`` seek passes, across the fill (S - 1, S, S + 1) and to
    capacity or 2**12; so is the table of a curator resumed, at one of those
    Ts, from one stepped there arrival by arrival."""
    deep = min(_layout(algo, S)[1], 1 << 12)
    drawn = data.draw(st.lists(st.integers(0, deep), max_size=6))
    Ts = sorted({S - 1, S, S + 1, deep, *drawn})
    replayed = lookup_replay(algo, S, deep, at=Ts)
    tilted = algo == TILTED
    curator = _GreedyCurator(S, tilted)
    for T, table in zip(Ts, replayed):
        curator.skip_to(T)
        assert curator.table() == table, T
    at = data.draw(st.sampled_from(Ts))
    stepped = _GreedyCurator(S, tilted)
    for _ in range(at):
        stepped.step()
    resumed = _GreedyCurator(S, tilted)
    resumed.resume(at, list(stepped.times), list(stepped.sites))
    for T, table in zip(Ts, replayed):
        if T >= at:
            resumed.skip_to(T)
            assert resumed.table() == table, (at, T)


def test_replay_stops_match_separate_replays():
    for algo, S in ((STEADY, 8), (STRETCHED, 8), (TILTED, 8), (hybrid(("steady", 8), ("tilted", 8)), 16)):
        stops = [0, 0, 3, 8, 9, 9, 100, 180]
        assert lookup_replay(algo, S, 200, at=stops) == [lookup_replay(algo, S, T) for T in stops]
        assert lookup_replay(algo, S, 180, at=stops)[-1] == lookup_replay(algo, S, 180)
        assert lookup_replay(algo, S, 200, at=[]) == []


@pytest.mark.parametrize("stops", [[5, 4], [0, 201], [-1, 3], [1.0], ["3"], 5, iter([3])])
def test_replay_stops_must_ascend_within_T(stops):
    # stops that are not a list or tuple are refused before any is read
    error = DomainError if isinstance(stops, list) else ConfigurationError
    with pytest.raises(error):
        lookup_replay(TILTED, 8, 200, at=stops)


def test_table_cache_hands_each_noted_row_its_table(monkeypatch):
    """Rows noted in a TableCache explode as they do alone, each greedy
    layout in one pass, and the cache holds nothing once all are taken."""
    rows = [
        ("tilted", 16, T) for T in (300, 50, 300, 10, 4000, 0)
    ] + [
        ("stretched", 16, T) for T in (65534, 17, 200, 200)
    ] + [
        ("hybrid(stretched:4+steady:8+tilted:4)", 16, T) for T in (14, 3, 9, 9)
    ] + [("hybrid(steady:4+steady:4)", 8, REPLAY_CAP), ("steady", 64, 1 << 63)]
    rng = random.Random(5)
    rng.shuffle(rows)
    dumps = [(algo, S, T, rng.randbytes(S).hex()) for algo, S, T in rows]
    alone = [explode_row(algo, S, T, 8, text) for algo, S, T, text in dumps]
    cache = TableCache()
    for algo, S, T, text in dumps:
        cache.note(algo, S, T, 8, text)
    passes = []
    tables_at = streamsieve.lookup._tables_at

    def counting(algo, S, Ts):
        passes.append((str(algo), S, list(Ts)))
        return tables_at(algo, S, Ts)

    monkeypatch.setattr(streamsieve.lookup, "_tables_at", counting)
    together = [explode_row(algo, S, T, 8, text, cache) for algo, S, T, text in dumps]
    assert together == alone
    assert sorted(passes) == [
        ("hybrid(steady:4+steady:4)", 8, [REPLAY_CAP]),
        ("hybrid(stretched:4+steady:8+tilted:4)", 16, [3, 9, 14]),
        ("steady", 64, [1 << 63]),
        ("stretched", 16, [17, 200, 65534]),
        ("tilted", 16, [0, 10, 50, 300, 4000]),
    ]
    assert not cache._wanted and not cache._held


@pytest.mark.parametrize(
    "algo, T",
    [(TILTED, 300), (STRETCHED, 200), (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 9)],
    ids=["tilted", "stretched", "stretched4+steady8+tilted4"],
)
def test_table_cache_hands_rows_at_one_T_distinct_tables(algo, T):
    # the last row noted at a T takes the held list itself, every earlier one a copy
    cache = TableCache()
    for _ in range(2):
        cache.note(algo, 16, T, 8, "00" * 16)
    first, second = cache.take(algo, 16, T), cache.take(algo, 16, T)
    assert first == second == lookup_replay(algo, 16, T)
    first[:] = ["mutated"] * 16
    assert second == lookup_replay(algo, 16, T)
    assert not cache._wanted and not cache._held


@pytest.mark.parametrize(
    "algo, S, T",
    [
        (STEADY, 64, 1 << 40),
        (STRETCHED, 16, 200),
        (TILTED, 16, 300),
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16, 9),
    ],
    ids=["steady", "stretched", "tilted", "stretched4+steady8+tilted4"],
)
def test_table_cache_takes_a_row_never_noted_as_last_write_times(algo, S, T):
    assert TableCache().take(algo, S, T) == last_write_times(algo, S, T)


@pytest.mark.parametrize(
    "algo, S, T, error",
    [(STRETCHED, 64, 2**40, ReplayLimitError), (TILTED, 4, 15, CapacityError)],
    ids=["past-limit", "past-capacity"],
)
def test_table_cache_refuses_a_row_never_noted_past_its_bounds(algo, S, T, error):
    with pytest.raises(error):
        TableCache().take(algo, S, T)


def test_table_cache_note_raises_as_explode_row_does():
    cache = TableCache()
    for args in (("bogus", 4, 8, 8, "00" * 4), ("tilted", 8, 2**40, 8, "00" * 8), ("steady", 4, 8, 8, "zz")):
        with pytest.raises(StreamSieveError) as noted:
            cache.note(*args)
        with pytest.raises(StreamSieveError) as exploded:
            explode_row(*args)
        assert (type(noted.value), str(noted.value)) == (type(exploded.value), str(exploded.value))
    assert not cache._wanted


@pytest.mark.parametrize(
    "algo, S, T, value_bits, text, error, fault",
    [
        (STEADY, 3, -1, 8, "zz", ConfigurationError, "site count"),
        (STEADY, 4, -1, 7, "00" * 4, ConfigurationError, "item width"),
        (STEADY, 6, "x", 7, "zz", ConfigurationError, "item width"),
        (STEADY, 4, "x", 8, "zz", HexFormatError, "expected 8 hex digits"),
        (hybrid(("steady", 4), ("tilted", 4)), 16, -1, 8, "zz", ConfigurationError, "cover 8"),
        (TILTED, 8, 2**40, 8, "zz" * 8, HexFormatError, "non-hex 'z'"),
        (TILTED, 8, -1, 8, "00" * 8, DomainError, "ingest counter"),
        (STEADY, 4, True, 8, "00" * 4, DomainError, "ingest counter"),
        (STRETCHED, 4, 2**40, 8, "00" * 4, ReplayLimitError, f"capped at {REPLAY_CAP}"),
        (STRETCHED, 4, 100, 8, "00" * 4, CapacityError, "at most 14"),
        (hybrid(("steady", 4), ("steady", 4)), 8, MAX_STEADY_T + 1, 8, "00" * 8, ReplayLimitError,
         f"capped at {MAX_STEADY_T}"),
    ],
    ids=[
        "sites-T-hex",
        "width-T",
        "width-sites-T-hex",
        "hex-T",
        "layout-T-hex",
        "hex-past-limit",
        "negative-T",
        "bool-T",
        "limit-and-capacity",
        "capacity",
        "all-steady-past-uint64",
    ],
)
def test_every_dump_path_reports_the_same_fault(algo, S, T, value_bits, text, error, fault):
    """A dump with several faults is checked in one order wherever it is
    taken: the width, the sites, the hex, T, the limit, then capacity."""
    from streamsieve import Surface

    raised = []
    for call in (Surface.from_hex, explode_row, TableCache().note):
        with pytest.raises(StreamSieveError) as info:
            call(algo, S, T, value_bits, text)
        raised.append((type(info.value), str(info.value)))
    assert raised[0][0] is error and fault in raised[0][1]
    assert raised[1:] == raised[:1] * 2


# ---------------------------------------------------------------------------
# explode


def test_explode_row_example():
    assert explode_row(STEADY, 4, 8, 8, "05010703") == [
        (0, 5, 5),
        (1, 1, 1),
        (2, 7, 7),
        (3, 3, 3),
    ]


def test_explode_row_unwritten_sites_are_empty():
    # hex padding on never-written sites must not surface as values
    triples = explode_row("steady", 4, 2, 8, "0a0b0000")
    assert triples == [(0, 0, 10), (1, 1, 11), (2, None, None), (3, None, None)]
