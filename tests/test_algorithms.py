"""Unit tests for the site-selection rules and bit kernels."""

import copy
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamsieve import (
    REPLAY_CAP,
    STEADY,
    STRETCHED,
    TILTED,
    Algorithm,
    CapacityError,
    ConfigurationError,
    DomainError,
    ReplayLimitError,
    StreamSieveError,
    Surface,
    epoch,
    explode_row,
    hanoi_value,
    has_ingest_capacity,
    hybrid,
    hybrid_assign,
    lookup_replay,
    lookup_steady_fast,
    pack_slots_hex,
    parse_algorithm,
    run_benchmark,
    selection_stream,
    site_selection,
    steady_assign,
    stream_capacity,
    stretched_assign,
    tilted_assign,
    unpack_slots_hex,
    validate_site_count,
)
from streamsieve import algorithms
from streamsieve.algorithms import (
    MAX_STEADY_T,
    SCALAR_KINDS,
    Selector,
    _GreedyCurator,
    _layout,
    _refuse,
    _steady_site,
    parse_int,
)

from reference_rules import ScanCurator, epoch_walk_site, greedy_selections, trailing_ones

SIZES = st.sampled_from([4, 8, 16, 32, 64, 128, 1024])


# ---------------------------------------------------------------------------
# kernels


def test_hanoi_examples():
    assert hanoi_value(0) == 0
    assert hanoi_value(7) == 3
    assert hanoi_value(11) == 2


def test_hanoi_ruler_prefix():
    # 0,1,0,2,0,1,0,3,...
    assert [hanoi_value(T) for T in range(16)] == [
        0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4,
    ]


@given(st.integers(min_value=0, max_value=2**70))
def test_hanoi_matches_string_oracle(T):
    assert hanoi_value(T) == trailing_ones(T)


def test_hanoi_rejects_negative():
    with pytest.raises(ValueError):
        hanoi_value(-1)


def test_epoch_examples():
    assert epoch(4, 0) == 0
    assert epoch(4, 8) == 2
    assert epoch(64, 63) == 0


@given(SIZES, st.integers(min_value=0, max_value=2**70))
def test_epoch_definition(S, T):
    assert epoch(S, T) == max(T.bit_length() - (S.bit_length() - 1), 0)


@pytest.mark.parametrize("bad", [0, 1, 2, 3, 6, 12, 100, 2**21, -8])
def test_site_count_validation(bad):
    with pytest.raises(ConfigurationError):
        validate_site_count(bad)


def test_site_count_accepts_bounds():
    validate_site_count(4)
    validate_site_count(1 << 20)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # a site count's range check refuses a bool as it refuses 0 and 1
        (validate_site_count, ConfigurationError,
         "site count must be a power of two in [4, 2**20], got {!r}"),
        # where True would pass the range check as 1, a clause refuses it
        (lambda v: site_selection(STEADY, 4, v), DomainError,
         "ingest counter must be a non-negative integer, got {!r}"),
        (lambda v: selection_stream(STEADY, 4, v), DomainError,
         "count must be a non-negative integer, got {!r}"),
    ],
    ids=["site-count", "ingest-counter", "stream-count"],
)
@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_refused(call, error, message, value):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message.format(value)


# ---------------------------------------------------------------------------
# capacity


def test_capacity_examples():
    assert has_ingest_capacity(STEADY, 8, 10**9)
    assert has_ingest_capacity(TILTED, 8, 253)
    assert not has_ingest_capacity(TILTED, 8, 254)


def test_capacity_bounds():
    assert stream_capacity(STEADY, 64) is None
    assert stream_capacity(STRETCHED, 8) == 254
    assert stream_capacity(TILTED, 4) == 14
    # a hybrid is as bounded as its tightest segment
    h = hybrid(("steady", 8), ("tilted", 4), ("stretched", 4))
    assert stream_capacity(h, 16) == 14
    assert has_ingest_capacity(h, 16, 13)
    assert not has_ingest_capacity(h, 16, 14)


def test_all_steady_hybrid_is_unbounded():
    h = hybrid(("steady", 4), ("steady", 4))
    assert stream_capacity(h, 8) is None


# ---------------------------------------------------------------------------
# steady


def test_steady_examples():
    assert steady_assign(4, 2) == 2
    assert steady_assign(4, 4) is None
    assert steady_assign(4, 5) == 0
    assert steady_assign(4, 7) == 2
    assert steady_assign(4, 15) == 0


def test_steady_identity_fill():
    for S in (4, 16, 64):
        assert [steady_assign(S, T) for T in range(S)] == list(range(S))


def test_steady_discard_law():
    # discards exactly when the hanoi value is below the epoch
    for S in (4, 8, 16, 32, 64):
        for T in range(1 << 12):
            discarded = steady_assign(S, T) is None
            assert discarded == (hanoi_value(T) < epoch(S, T)), (S, T)


@given(SIZES, st.integers(min_value=0, max_value=2**60))
def test_steady_site_in_range(S, T):
    site = steady_assign(S, T)
    assert site is None or 0 <= site < S


def test_steady_unbounded_far_out():
    assert steady_assign(64, 2**63) in set(range(64)) | {None}


# the closed form T mod (S+1) against the epoch walk it replaced

ALL_SIZES = [1 << s for s in range(2, 21)]


def test_steady_site_matches_epoch_walk_on_every_small_t():
    for S in (4, 8, 16, 32, 64):
        for T in range(1 << 12):
            assert _steady_site(S, T) == epoch_walk_site(S, T), (S, T)


def test_steady_site_matches_epoch_walk_at_epoch_boundaries():
    for S in ALL_SIZES:
        u = 0
        while (S << u) - 1 <= MAX_STEADY_T:
            for T in ((S << u) - 1, S << u, (S << u) + 1):
                if T <= MAX_STEADY_T:
                    assert _steady_site(S, T) == epoch_walk_site(S, T), (S, T)
            u += 1


def test_steady_site_matches_epoch_walk_on_retained_arrivals():
    # T + 1 = m * 2**t with S/2 < m <= S is stored in epoch t
    rng = random.Random(20261019)
    for _ in range(20000):
        s = rng.randrange(2, 21)
        S, t = 1 << s, rng.randrange(1, 65 - s)
        T = (rng.randrange(S // 2 + 1, S + 1) << t) - 1
        assert epoch(S, T) == t
        site = _steady_site(S, T)
        assert site is not None and site == epoch_walk_site(S, T), (S, T)


def test_steady_site_matches_epoch_walk_at_random_depths():
    rng = random.Random(20261020)
    for _ in range(20000):
        S, T = rng.choice(ALL_SIZES), rng.randrange(1 << 64)
        assert _steady_site(S, T) == epoch_walk_site(S, T), (S, T)


# ---------------------------------------------------------------------------
# stretched / tilted


def test_stretched_examples():
    assert stretched_assign(4, 1) == 1
    assert stretched_assign(4, 4) is None
    assert stretched_assign(4, 12) == 2


def test_stretched_tie_prefers_discard():
    # at (S=4, T=11) the discard score equals the cheapest eviction exactly
    assert stretched_assign(4, 11) is None


def test_tilted_examples():
    assert tilted_assign(4, 3) == 3
    assert tilted_assign(4, 4) == 0
    assert tilted_assign(4, 7) == 0


@pytest.mark.parametrize("kind,assign", [("stretched", stretched_assign), ("tilted", tilted_assign)])
def test_greedy_matches_fraction_oracle(kind, assign):
    """Cross-multiplied integer scoring == exact Fraction scoring."""
    for S in (4, 8, 16):
        count = min(400, (1 << S) - 2)
        expected = greedy_selections(kind, S, count)
        got = [assign(S, T) for T in range(count)]
        assert got == expected, (kind, S)


def test_greedy_purity_random_call_order():
    # memoised replay must not depend on who asked first
    queries = [(S, T) for S in (4, 8) for T in range(min(200, (1 << S) - 2))]
    expected = {q: tilted_assign(*q) for q in queries}
    from streamsieve.algorithms import _clear_replay_memos

    _clear_replay_memos()
    rng = random.Random(7)
    shuffled = list(queries)
    rng.shuffle(shuffled)
    for q in shuffled:
        assert tilted_assign(*q) == expected[q]


def test_tilted_never_discards_within_capacity():
    for S in (4, 8):
        for T in range(min(1000, (1 << S) - 2)):
            assert tilted_assign(S, T) is not None


def test_stretched_keeps_origin():
    # site 0 holds item 0 forever: nothing ever reselects site 0
    for S in (4, 8):
        count = min(2000, (1 << S) - 2)
        assert stretched_assign(S, 0) == 0
        for T in range(1, count):
            assert stretched_assign(S, T) != 0


@pytest.mark.parametrize("assign", [stretched_assign, tilted_assign])
def test_greedy_capacity_errors(assign):
    assign(8, 253)  # last supported ingest: no error (a discard is fine)
    with pytest.raises(CapacityError):
        assign(8, 254)
    with pytest.raises(CapacityError):
        assign(4, 14)


def test_pointwise_greedy_replay_is_capped():
    # within capacity but far past the replay cap: refused before any replay
    with pytest.raises(ReplayLimitError):
        tilted_assign(64, 2**40)
    with pytest.raises(ReplayLimitError):
        stretched_assign(64, REPLAY_CAP)
    # tilted:64 is the smallest segment whose capacity exceeds 2**40, so the
    # replay cap rather than CapacityError stops it
    with pytest.raises(ReplayLimitError):
        site_selection(hybrid(("steady", 64), ("tilted", 64)), 128, 2**40)


@pytest.mark.parametrize(
    "algo, S, T, error",
    [
        (TILTED, 8, 2**40, ReplayLimitError),
        (hybrid(("stretched", 4), ("steady", 4)), 8, 2**40, ReplayLimitError),
        (STRETCHED, 4, 14, CapacityError),
        (TILTED, 64, 2**40, ReplayLimitError),
        (STEADY, 4, MAX_STEADY_T, ReplayLimitError),
        (hybrid(("steady", 4), ("steady", 4)), 8, MAX_STEADY_T, ReplayLimitError),
    ],
    ids=[
        "tilted8-deep",
        "stretched4+steady4-deep",
        "stretched4-past-capacity",
        "tilted64-deep",
        "steady-past-uint64",
        "steady4+steady4-past-uint64",
    ],
)
def test_every_entry_point_refuses_with_one_class(algo, S, T, error):
    """Arrival T, or the T + 1 arrivals up to it, is refused alike everywhere,
    with ``_refuse``'s message for the capacity and limit ``_layout`` gives.

    Past both bounds ReplayLimitError wins, on every path.  ``lookup_replay``,
    the replay oracle, holds every layout to REPLAY_CAP instead.
    """
    from streamsieve import (
        Surface,
        explode_row,
        last_write_times,
        lookup_replay,
        lookup_steady_fast,
        run_benchmark,
    )

    def refusal(capacity, limit):
        with pytest.raises(error) as info:
            _refuse(algo, S, T + 1, capacity, limit)
        return str(info.value)

    calls = [lambda: site_selection(algo, S, T)]
    if algo.is_hybrid:
        calls.append(lambda: hybrid_assign(algo, S, T))
    elif algo.kind != "steady":  # steady_assign is a kernel: it takes any T
        assign = tilted_assign if algo.kind == "tilted" else stretched_assign
        calls.append(lambda: assign(S, T))
    calls += [
        lambda: last_write_times(algo, S, T + 1),
        lambda: explode_row(algo, S, T + 1, 8, "00" * S),
        lambda: Surface.from_hex(algo, S, T + 1, 8, "00" * S),
        lambda: run_benchmark(algo, [S], [(0, T + 1)], 1),
        lambda: selection_stream(algo, S, T + 1),
    ]
    if algo == STEADY:
        calls.append(lambda: lookup_steady_fast(S, T + 1))
    _, capacity, limit = _layout(algo, S)
    expected = [refusal(capacity, limit)] * len(calls)
    calls.append(lambda: lookup_replay(algo, S, T + 1))
    expected.append(refusal(capacity, REPLAY_CAP))
    for call, message in zip(calls, expected):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message
    if T == MAX_STEADY_T:  # one arrival less is within the closed form's range
        site_selection(algo, S, T - 1)
        [row] = run_benchmark(algo, [S], [(T - 1, T)], 1)
        assert row.items == 1


ALL_STEADY = hybrid(("steady", 4), ("steady", 4))


@pytest.mark.parametrize("T", [2**40, MAX_STEADY_T], ids=["2**40", "2**64-1"])
def test_all_steady_hybrid_reaches_the_closed_form_range(T):
    """No segment is greedy, so no path steps forward: the layout goes as
    deep as steady does, and each segment's table is the steady one."""
    from streamsieve import Surface, explode_row, last_write_times, lookup_steady_fast

    table = lookup_steady_fast(4, T) + lookup_steady_fast(4, T)
    assert last_write_times(ALL_STEADY, 8, T) == table
    assert [tbar for _, tbar, _ in explode_row(ALL_STEADY, 8, T, 8, "00" * 8)] == table
    surface = Surface.from_hex(ALL_STEADY, 8, T - 1, 8, "00" * 8)
    assert surface.ingest(1) == site_selection(ALL_STEADY, 8, T - 1)
    assert surface.T == T


def test_all_steady_hybrid_refuses_past_the_closed_form_range():
    from streamsieve import Surface, explode_row, last_write_times

    T = MAX_STEADY_T + 1
    calls = [
        lambda: last_write_times(ALL_STEADY, 8, T),
        lambda: explode_row(ALL_STEADY, 8, T, 8, "00" * 8),
        lambda: Surface.from_hex(ALL_STEADY, 8, T, 8, "00" * 8),
        lambda: Surface.from_hex(ALL_STEADY, 8, T - 1, 8, "00" * 8).ingest(0),
    ]
    for call in calls:
        with pytest.raises(ReplayLimitError, match=f"capped at {MAX_STEADY_T} arrivals"):
            call()


@pytest.mark.parametrize(
    "algo, window",
    [(TILTED, (100, 200)), (ALL_STEADY, (2**40, 2**40 + 100))],
    ids=["tilted", "all-steady-hybrid"],
)
def test_benchmark_windows_start_anywhere(algo, window):
    from streamsieve import run_benchmark

    rows = run_benchmark(algo, [8], [window], 2)
    assert [(row.t_lo, row.t_hi, row.items, row.replicate) for row in rows] == [
        (*window, 100, 0),
        (*window, 100, 1),
    ]
    assert all(row.total_ns > 0 for row in rows)


# ---------------------------------------------------------------------------
# hybrid


def test_hybrid_examples():
    h = hybrid(("steady", 4), ("tilted", 4))
    assert hybrid_assign(h, 8, 2) == {2, 6}
    assert hybrid_assign(h, 8, 4) == {4}  # steady half discards, tilted stores
    h2 = hybrid(("steady", 4), ("steady", 4))
    assert hybrid_assign(h2, 8, 5) == {0, 4}


def test_hybrid_decomposes_into_segments():
    h = hybrid(("stretched", 4), ("steady", 8), ("tilted", 4))
    for T in range(14):
        sel = hybrid_assign(h, 16, T)
        parts = [stretched_assign(4, T), steady_assign(8, T), tilted_assign(4, T)]
        expected = set()
        for offset, site in zip((0, 4, 12), parts):
            if site is not None:
                expected.add(offset + site)
        assert sel == expected, T


def test_hybrid_validation():
    with pytest.raises(ConfigurationError):
        Algorithm("hybrid", (("steady", 4),))  # one segment is not a split
    with pytest.raises(ConfigurationError):
        hybrid(("steady", 4), ("tilted", 6))  # size not a power of two
    with pytest.raises(ConfigurationError):
        hybrid(("steady", 4), ("hybrid", 4))  # no nesting
    with pytest.raises(ConfigurationError):
        hybrid(("steady", 4), ("tilted", 8))  # sum 12 is not a legal S
    with pytest.raises(ConfigurationError):
        hybrid_assign(hybrid(("steady", 4), ("tilted", 4)), 16, 0)  # sum != S
    with pytest.raises(ConfigurationError, match="^segments must be a tuple, got list$"):
        # a list would neither equal the parsed layout nor hash
        Algorithm("hybrid", [("steady", 4), ("tilted", 4)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Algorithm("steady", (("steady", 4),)), ConfigurationError,
         "steady takes no segments"),
        (lambda: Algorithm("bogus"), ConfigurationError, "unknown algorithm kind 'bogus'"),
        (lambda: site_selection("steady", 4, 0), ConfigurationError,
         "expected an Algorithm, got 'steady'"),
        (lambda: hybrid_assign(STEADY, 4, 0), ConfigurationError,
         "hybrid_assign needs a hybrid layout, got steady"),
        (lambda: selection_stream(STEADY, 4, -1), DomainError,
         "count must be a non-negative integer, got -1"),
        (lambda: selection_stream(STEADY, 4, 1.5), DomainError,
         "count must be a non-negative integer, got 1.5"),
    ],
    ids=[
        "scalar-with-segments", "unknown-kind", "token-for-algorithm", "scalar-to-hybrid-assign",
        "negative-count", "float-count",
    ],
)
def test_rarely_reached_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_hybrid_is_its_two_fields():
    """The layout a hybrid resolves once is no part of its identity: ==,
    hash, repr and pickle see ``kind`` and ``segments`` alone."""
    import copy
    import pickle

    h = hybrid(("stretched", 4), ("steady", 8), ("tilted", 4))
    parsed = parse_algorithm("hybrid(stretched:4+steady:8+tilted:4)")
    assert parsed == h and parsed is not h
    assert hash(parsed) == hash(h) == hash(("hybrid", h.segments))
    assert repr(h) == (
        "Algorithm(kind='hybrid', segments=(('stretched', 4), ('steady', 8), ('tilted', 4)))"
    )
    assert h.__reduce_ex__(4)[1:3] == ((Algorithm,), {"kind": "hybrid", "segments": h.segments})
    layout = (("stretched", 4, 0), ("steady", 8, 4), ("tilted", 4, 12))
    for algo in (h, pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
        assert algo == h
        assert algo.segment_layout() == layout and algo.total_sites == 16
        assert _layout(algo, 16) == (layout, 14, REPLAY_CAP)
    assert STEADY.segment_layout() == () and STEADY.total_sites is None
    assert _layout(STEADY, 8) == ((("steady", 8, 0),), None, MAX_STEADY_T)


LEGAL_SIZES = [1 << s for s in range(2, 21)]


def test_scalar_layouts_resolve_once(monkeypatch):
    # the first call resolves the rule; every later one hands back that object
    monkeypatch.setattr(algorithms, "_scalar_layouts", {})
    for kind in SCALAR_KINDS:
        algo = Algorithm(kind)
        for S in LEGAL_SIZES:
            first = _layout(algo, S)
            if kind == "steady":
                assert first == (((kind, S, 0),), None, MAX_STEADY_T)
            else:
                assert first == (((kind, S, 0),), (1 << S) - 2, REPLAY_CAP)
            assert _layout(algo, S) is first
    assert len(algorithms._scalar_layouts) == 3 * 19 == 57


@pytest.mark.parametrize(
    "S", [4.0, True, "4", 3, 2**21], ids=["float", "bool", "str", "not-power", "too-big"]
)
def test_warm_layouts_still_refuse_what_is_not_a_site_count(S):
    # 4.0 and True hash like 4, so only an exact int may be looked up
    _layout(STEADY, 4)
    _layout(TILTED, 1 << 20)
    with pytest.raises(ConfigurationError) as info:
        _layout(STEADY, S)
    assert str(info.value) == f"site count must be a power of two in [4, 2**20], got {S!r}"


def test_an_int_subclass_is_resolved_as_given():
    class Four(int):
        pass

    cached = _layout(STRETCHED, 4)
    got = _layout(STRETCHED, Four(4))
    assert got == cached and got is not cached
    assert type(got[0][0][1]) is Four
    # and it does not replace the entry an exact 4 gets
    assert _layout(STRETCHED, 4) is cached and type(cached[0][0][1]) is int


def test_hybrids_stay_out_of_the_layout_table():
    for a in SCALAR_KINDS:
        for b in SCALAR_KINDS:
            for size in (4, 8, 16, 32, 64):
                algo = hybrid((a, size), (b, size), (a, 2 * size))
                site_selection(algo, 4 * size, 3)
                Selector(algo, 4 * size)
    assert {kind for kind, _ in algorithms._scalar_layouts} <= set(SCALAR_KINDS)
    assert len(algorithms._scalar_layouts) <= 57


def test_algorithm_tokens_round_trip():
    for algo in (STEADY, STRETCHED, TILTED, hybrid(("steady", 8), ("tilted", 8))):
        assert parse_algorithm(algo.token()) == algo
    assert parse_algorithm("hybrid(steady:4+tilted:4)").segments == (
        ("steady", 4),
        ("tilted", 4),
    )
    for bad in ("", "steadyy", "hybrid()", "hybrid(steady:4)", "hybrid(steady-4+x)"):
        with pytest.raises(ConfigurationError):
            parse_algorithm(bad)
    # a size is ASCII digits: isdigit() alone passes a superscript two, int()
    # reads other scripts' digits and refuses 5 000 with a bare ValueError
    for size in ("\u00b2", "\u0664", "\uff14", "4" * 5000):
        with pytest.raises(ConfigurationError):
            parse_algorithm(f"hybrid(steady:{size}+tilted:4)")


@pytest.mark.parametrize("text, value", [("0", 0), ("4", 4), ("007", 7), ("-1", -1), ("-0", 0)])
def test_parse_int_reads_ascii_digits(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize(
    "text",
    ["", "-", "+4", "--4", "1_0", " 4", "4 ", "4\n", "\u0661\u0662", "\uff14", "\u00b2", "0x10"]
    + ["4" * 5000, None, 4],
)
def test_parse_int_refuses_everything_else(text):
    # int() reads '+4', '1_0', the padded ones and the Arabic-Indic and
    # full-width digits; the message stays short for a 5 000-digit cell
    with pytest.raises(ValueError) as info:
        parse_int(text)
    assert str(info.value).startswith("expected an integer in ASCII digits, got ")
    assert len(str(info.value)) < 120


@pytest.mark.parametrize(
    "token, message",
    [
        (
            f"hybrid(steady:{'4' * 5000}+tilted:4)",
            "bad hybrid segment 'steady:444444444444444444444444... (5009 characters) "
            "in 'hybrid(steady:44444444444444444... (5026 characters)",
        ),
        ("x" * 5000, "unknown algorithm token 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx... (5002 characters)"),
        (
            f"hybrid({'x' * 5000}:4+tilted:4)",
            "hybrid segments must be scalar profiles, got "
            "'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx... (5002 characters)",
        ),
        ("hybrid(steady:4+x)", "bad hybrid segment 'x' in 'hybrid(steady:4+x)'"),
        ("steadyy", "unknown algorithm token 'steadyy'"),
    ],
    ids=["5000-digit-size", "5000-char-token", "5000-char-kind", "short-segment", "short-token"],
)
def test_token_errors_repeat_a_bounded_prefix(token, message):
    # a short value is repeated whole; a long one by its start and length
    with pytest.raises(ConfigurationError) as info:
        parse_algorithm(token)
    assert str(info.value) == message


_HUGE_INT_CALLS = [
    ("site_selection", lambda v: site_selection(STEADY, 4, v)),
    ("steady_assign", lambda v: steady_assign(v, 0)),
    ("epoch", lambda v: epoch(v, 0)),
    ("hanoi_value", hanoi_value),
    ("lookup_steady_fast", lambda v: lookup_steady_fast(4, v)),
    ("selection_stream", lambda v: selection_stream(STEADY, v, 4)),
    ("explode_row", lambda v: explode_row("steady", 4, v, 8, "00" * 4)),
    ("Surface.from_hex", lambda v: Surface.from_hex(STEADY, 4, v, 8, "00" * 4)),
    ("Surface.ingest", lambda v: Surface(STEADY, 4, 8).ingest(v)),
    ("pack_slots_hex", lambda v: pack_slots_hex([v, 0, 0, 0], 8)),
    ("unpack_slots_hex", lambda v: unpack_slots_hex("00", v, 8)),
    ("stream_capacity", lambda v: stream_capacity(STEADY, v)),
    ("Surface", lambda v: Surface(STEADY, v, 8)),
]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, sign * 10**5000, id=f"{name}-{'+' if sign > 0 else '-'}10**5000")
        for name, call in _HUGE_INT_CALLS
        for sign in (1, -1)
        if not (name == "hanoi_value" and sign > 0)  # it takes any T >= 0
    ],
)
def test_a_huge_int_is_echoed_by_its_sign_and_bit_length(call, value):
    # past the interpreter's 4 300-digit limit a repr raises ValueError
    with pytest.raises(StreamSieveError) as info:
        call(value)
    sign = "positive" if value > 0 else "negative"
    assert f"a {sign} int of 16610 bits" in str(info.value)
    assert len(str(info.value)) < 160


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: hybrid(("steady", 4, 10**5000), ("steady", 4)),
            ConfigurationError,
            "bad hybrid segment a tuple too large to print",
        ),
        (
            lambda: run_benchmark(STEADY, [4], [(0, 1, 10**5000)], 1),
            DomainError,
            "bad depth window a tuple too large to print",
        ),
        (
            lambda: run_benchmark(STEADY, {10**5000}, [(0, 4)], 1),
            ConfigurationError,
            "need a list or tuple of at least one size, got a set too large to print",
        ),
        (
            lambda: lookup_replay(STEADY, 4, 8, at={10**5000}),
            ConfigurationError,
            "need a list or tuple of replay stops, got a set too large to print",
        ),
    ],
    ids=["hybrid-segment", "run_benchmark-window", "run_benchmark-sizes", "lookup_replay-at"],
)
def test_a_container_of_a_huge_int_is_echoed_by_its_type(call, error, message):
    # the repr of a tuple or set raises ValueError if an int inside is past
    # the 4 300-digit limit
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
    assert len(str(info.value)) < 160


# ---------------------------------------------------------------------------
# uniform dispatcher


@settings(max_examples=60)
@given(
    st.sampled_from(
        [
            (STEADY, 16),
            (STRETCHED, 16),
            (TILTED, 16),
            (hybrid(("steady", 4), ("tilted", 4)), 8),
            (hybrid(("stretched", 4), ("steady", 4), ("tilted", 8)), 16),
        ]
    ),
    st.integers(min_value=0, max_value=5000),
)
def test_site_selection_contract(case, T):
    algo, S = case
    cap = stream_capacity(algo, S)
    if cap is not None and T + 1 > cap:
        with pytest.raises(CapacityError):
            site_selection(algo, S, T)
        return
    sel = site_selection(algo, S, T)
    assert all(0 <= k < S for k in sel)
    if algo.kind != "hybrid":
        assert len(sel) <= 1
    else:
        # at most one site per segment slice
        for _, size, offset in algo.segment_layout():
            assert len([k for k in sel if offset <= k < offset + size]) <= 1


def test_selection_stream_agrees_with_pointwise():
    cases = (
        (STEADY, 8),
        (STRETCHED, 8),
        (TILTED, 8),
        (hybrid(("steady", 8), ("tilted", 8)), 16),
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16),
    )
    for algo, S in cases:
        count = min(200, stream_capacity(algo, S) or 200)
        streamed = list(selection_stream(algo, S, count))
        pointwise = [tuple(sorted(site_selection(algo, S, T))) for T in range(count)]
        assert [tuple(sorted(sel)) for sel in streamed] == pointwise, algo


def test_selector_resume_matches_straight_run():
    """A fresh selector that seeks to T continues exactly like a straight run."""
    from streamsieve.algorithms import Selector

    cases = (
        # (algo, S, stream length, seek to every `stride`-th arrival)
        (STRETCHED, 8, 120, 1),
        (TILTED, 8, 120, 1),
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16, 14, 1),
        (STRETCHED, 64, 600, 7),
        (TILTED, 64, 600, 7),
        (hybrid(("tilted", 32), ("steady", 32)), 64, 400, 9),
    )
    for algo, S, count, stride in cases:
        straight = list(selection_stream(algo, S, count))
        for at in range(0, count, stride):
            selector = Selector(algo, S)
            selector.seek(at)
            stop = min(at + 8, count)
            assert [selector.step() for _ in range(at, stop)] == straight[at:stop], (algo, at)
            assert selector.T == stop


@pytest.mark.parametrize(
    "algo, S, Ts",
    [
        (STEADY, 64, [0, 1, 1, 63, 64, 1000, 1 << 40]),
        (STRETCHED, 16, [0, 3, 15, 16, 17, 200, 200, 5000, 65534]),
        (TILTED, 16, [0, 3, 15, 16, 17, 200, 200, 5000, 12000]),
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16, list(range(15))),
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16, [0, 2, 2, 9, 14]),
        (STRETCHED, 64, sorted(random.Random(64).sample(range(1 << 16), 12))),
        (TILTED, 64, sorted(random.Random(65).sample(range(1 << 13), 12))),
    ],
    ids=["steady64", "stretched16", "tilted16", "hybrid-every-T", "hybrid-sparse",
         "stretched64-seeded", "tilted64-seeded"],
)
def test_chained_seeks_match_fresh_seeks(algo, S, Ts):
    """One selector seeking through ascending Ts is, at each T, the same
    state as a fresh selector that seeks straight there."""
    from streamsieve.algorithms import Selector

    chained = Selector(algo, S)
    for T in Ts:
        chained.seek(T)
        fresh = Selector(algo, S)
        fresh.seek(T)
        assert _selector_state(chained) == _selector_state(fresh), (algo, T)


def test_seek_refuses_to_go_back():
    from streamsieve import DomainError
    from streamsieve.algorithms import Selector

    for algo, S in ((STEADY, 4), (STRETCHED, 8), (TILTED, 8)):
        selector = Selector(algo, S)
        selector.seek(20)
        with pytest.raises(DomainError):
            selector.seek(19)
        before = _selector_state(selector)
        selector.seek(20)  # the same T is no move
        assert _selector_state(selector) == before


def _gap_walk(curator):
    """(time, gap) for every retained time but the newest, oldest first,
    from the curator's runs; each run is non-empty and holds its front."""
    walk = []
    for gap, front, items in curator.runs:
        assert items and items[0] == front, (gap, front, list(items))
        walk += ((b, gap) for b in items)
    return walk


def _assert_steps_match(curator, scan, steps, label):
    for step in range(steps):
        T = scan.T
        assert curator.step() == scan.step(), (label, T)
        # the runs and the next write kept up step by step give the (time,
        # gap) pairs and the next write of a curator resumed from the
        # ordered walk: up to S=16 after every step past the fill, so after
        # each eviction of the oldest item, of the one before the newest and
        # of the newest, and otherwise after the last
        if curator.S <= 16 and curator.T >= curator.S or step + 1 == steps:
            rebuilt = _GreedyCurator(curator.S, curator.tilted)
            rebuilt.resume(curator.T, curator.times, curator.sites)
            assert _gap_walk(curator) == _gap_walk(rebuilt), (label, T)
            assert curator.next_write == rebuilt.next_write, (label, T)
    assert (curator.times, curator.sites) == (scan.times, scan.sites), label


# (16, 4096) as explode reaches it; (1024, 1792) as ingest-greedy reloads
@pytest.mark.parametrize("S, stop", [(4, 14), (8, 254), (16, 4096), (64, 3000), (1024, 1792)])
def test_tilted_skip_to_matches_stepping(S, stop):
    """Tilted writes every arrival, so skipping to T steps each one: a fresh
    curator that skips to T, and one that skips on from checkpoint to
    checkpoint, end in the state of one stepped T times.  Both run the one
    loop in ``step`` that a per-arrival call runs, over many arrivals."""
    rng = random.Random(S)
    checkpoints = set(range(min(S + 3, stop + 1))) | {stop}
    checkpoints |= {rng.randrange(S, stop) for _ in range(20)}
    stepped, chained = _GreedyCurator(S, True), _GreedyCurator(S, True)
    for T in sorted(checkpoints):
        while stepped.T < T:
            stepped.step()
        state = _curator_state(stepped)
        fresh = _GreedyCurator(S, True)
        fresh.skip_to(T)
        chained.skip_to(T)
        for curator in (fresh, chained):
            assert _curator_state(curator) == state, T


# each to capacity or to 2**12, and S=1024 as ingest-greedy reloads it
TILTED_FROM_0 = [(S, min(2**12, (1 << S) - 2)) for S in (4, 8, 16, 32, 64)] + [(1024, 1792)]


@pytest.mark.parametrize("S, stop", TILTED_FROM_0)
def test_tilted_runs_are_the_gap_buckets(S, stop):
    """Stepped from 0, after each step a tilted curator's runs are its gap
    buckets: each gap's retained times form one run, and gaps fall
    strictly toward the newest.  So a step scores one run per distinct
    gap.  This is observed, not relied on: the scan is exact for any
    split into runs, and resumed and stretched states hold more runs."""
    curator = _GreedyCurator(S, True)
    while curator.T < stop:
        curator.step()
        times = curator.times
        buckets = {}
        for i, b in enumerate(times[:-1]):
            buckets.setdefault(times[i + 1] - (times[i - 1] if i else -1), []).append(b)
        runs = {gap: list(items) for gap, _, items in curator.runs}
        assert len(runs) == len(curator.runs) and runs == buckets, (S, curator.T)
        gaps = [gap for gap, _, _ in curator.runs]
        assert gaps == sorted(gaps, reverse=True), (S, curator.T)


# every tilted score's terms are at most this: T + 1 at the replay cap
TERM_TOP = REPLAY_CAP + 1


def _assert_float_order_is_exact(g1, d1, g2, d2):
    assert (g1 / d1 < g2 / d2) == (g1 * d2 < g2 * d1), (g1, d1, g2, d2)
    assert (g1 / d1 == g2 / d2) == (g1 * d2 == g2 * d1), (g1, d1, g2, d2)


@given(*[st.integers(min_value=1, max_value=TERM_TOP)] * 4)
@example(TERM_TOP - 2, TERM_TOP - 1, TERM_TOP - 1, TERM_TOP)  # (n-1)/n, n/(n+1)
@example(1, 3, 1398101, 4194303)  # 1/3 in other terms
def test_tilted_float_scores_order_as_the_integers_do(g1, d1, g2, d2):
    """The tilted scan compares g / (T - b) as floats; below 2**25 that
    order, ties included, is the cross-multiplication's."""
    _assert_float_order_is_exact(g1, d1, g2, d2)
    _assert_float_order_is_exact(g2, d2, g1, d1)


def test_tilted_float_scores_order_adjacent_and_equal_fractions():
    """The closest distinct fractions near the top of the range, Farey
    neighbours a/b and c/d with |a*d - b*c| = 1, and equal fractions in
    other terms, keep their order and their ties as floats."""
    rng = random.Random(TERM_TOP)
    for _ in range(2000):
        b = rng.randrange(TERM_TOP // 2, TERM_TOP + 1)
        a = rng.randrange(1, b)
        while math.gcd(a, b) != 1:
            a = rng.randrange(1, b)
        d = pow(a, -1, b)  # a * d - b * c = 1; b - d is the other neighbour
        c = (a * d - 1) // b
        for g, w in ((c, d), (a - c, b - d)):
            if g:
                _assert_float_order_is_exact(a, b, g, w)
                _assert_float_order_is_exact(g, w, a, b)
        # p/q in its lowest terms, in the largest ones the range allows,
        # and in the next largest
        p, q = rng.randrange(1, 1 << 12), rng.randrange(1, 1 << 12)
        k = TERM_TOP // max(p, q)
        _assert_float_order_is_exact(p, q, p * k, q * k)
        _assert_float_order_is_exact(p * (k - 1), q * (k - 1), p * k, q * k)


def test_every_tilted_layout_keeps_its_terms_below_2_to_the_25():
    """The float order is exact only below 2**25: every layout with a
    tilted segment, scalar or hybrid, is limited to fewer arrivals."""
    layouts = [(TILTED, 1 << s) for s in range(2, 21)]
    layouts += [
        (hybrid(("steady", 4), ("tilted", 4)), 8),
        (hybrid(("tilted", 1 << 19), ("stretched", 1 << 19)), 1 << 20),
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16),
    ]
    for algo, S in layouts:
        _, _, limit = _layout(algo, S)
        assert limit + 1 < 2**25, (algo, S)


@pytest.mark.parametrize("tilted", [False, True])
def test_gap_bucket_curator_matches_scan(tilted):
    """The bucketed step picks exactly what the O(S) scan picks, every step."""
    for S, count in ((4, 14), (8, 254), (16, 8192), (64, 8192), (256, 8192), (1024, 3072)):
        _assert_steps_match(_GreedyCurator(S, tilted), ScanCurator(S, tilted), count, (S, tilted))


@pytest.mark.parametrize("tilted", [False, True])
def test_a_curator_resumed_in_the_fill_matches_a_straight_one(tilted):
    """Resumed at any T < S, a curator only appends until the arrival that
    fills the buffer, which files it; from there on it is, step by step,
    the curator stepped straight from 0.  Resumed at T = S, ``resume``
    files the full buffer as that arrival does."""
    for S in (1 << s for s in range(2, 13)):
        # past S=64, the start, the filling arrival and the full buffer
        for at in range(S + 1) if S <= 64 else (0, S - 1, S):
            straight = _GreedyCurator(S, tilted)
            for _ in range(at):
                straight.step()
            resumed = _GreedyCurator(S, tilted)
            resumed.resume(at, list(straight.times), list(straight.sites))
            while straight.T < S + 200:
                T = straight.T
                assert resumed.step() == straight.step(), (S, at, T)
                if T + 1 >= S:
                    assert _curator_state(resumed) == _curator_state(straight), (S, at, T)


def _curator_state(c):
    # a tilted curator, or one in the fill, has no winner yet; a stretched
    # one's is the index of a run, named here by its gap and the time it evicts
    winner = getattr(c, "winner", None)
    if winner is not None and winner >= 0:
        winner = c.runs[winner][0], c.runs[winner][2][-1]
    return c.T, c.times, c.sites, _gap_walk(c), c.next_write, winner


def _selector_state(selector):
    return selector.T, [None if c is None else _curator_state(c) for _, _, c in selector._parts]


FILL_HYBRID = hybrid(("tilted", 16), ("stretched", 16), ("steady", 32))


@pytest.mark.parametrize(
    "algo, S",
    [(algo, S) for S in (4, 8, 64, 1024) for algo in (STRETCHED, TILTED)] + [(FILL_HYBRID, 64)],
    ids=[f"{kind}{S}" for S in (4, 8, 64, 1024) for kind in ("stretched", "tilted")] + ["hybrid"],
)
def test_a_seek_takes_the_fill_as_one_step_per_arrival(algo, S):
    """``skip_to`` appends the fill but its last arrival at once, and
    ``Selector.seek`` calls it: from a fresh curator, from mid-fill and
    seek after seek, both end in the state of one ``step`` per arrival,
    at and around each fill's end."""
    sizes = [size for kind, size, _ in _layout(algo, S)[0] if kind != "steady"]
    targets = sorted({0, 1} | {T for n in {S, *sizes} for T in (n - 1, n, n + 1, 2 * n)})

    def stepped(T):
        selector = Selector(algo, S)
        while selector.T < T:
            selector.step()
        return selector

    expected = {T: _selector_state(stepped(T)) for T in targets}
    for start in (0, 1, min(sizes) // 2):
        chained = stepped(start)
        for T in targets:
            if T < start:
                continue
            chained.seek(T)
            assert _selector_state(chained) == expected[T], (start, T, "chained")
            selector = stepped(start)
            selector.seek(T)
            assert _selector_state(selector) == expected[T], (start, T)
            for (_, _, curator), want in zip(selector._parts, expected[T][1]):
                if curator is not None:  # a bare curator, as a reload steps one
                    bare = _GreedyCurator(curator.S, curator.tilted)
                    while bare.T < start:
                        bare.step()
                    bare.skip_to(T)
                    assert _curator_state(bare) == want, (start, T, curator.S)


# seek targets as offsets from S: the fill's last arrival is S - 1, so a
# list near 0 crosses S - 1, S and S + 1 one seek at a time or in jumps
_NEAR_FILL = st.lists(st.one_of(st.integers(-2, 2), st.integers(-64, 192)), max_size=12)


@pytest.mark.parametrize("S", [4, 8, 16, 64])
@pytest.mark.parametrize("tilted", [False, True], ids=["stretched", "tilted"])
@settings(max_examples=40, deadline=None)
@example(offsets=[12, 2])  # tilted S=8: skip_to(20), then skip_to(10)
@example(offsets=[-2, -1, 0, 1, 2, 2, 1])
@example(offsets=[-2, 0, 2, -2])
@example(offsets=[-2, 1])
@example(offsets=[-2, 2])
@example(offsets=[-1, 1])
@example(offsets=[-1, 2])
@example(offsets=[0])
@example(offsets=[1])
@example(offsets=[2])
@given(offsets=_NEAR_FILL)
def test_skip_to_only_goes_forward(tilted, S, offsets):
    """Seeks that repeat and drop back: after each, the curator holds the
    state of a fresh one skipped straight to the furthest T so far."""
    curator = _GreedyCurator(S, tilted)
    furthest = 0
    for offset in offsets:
        T = max(S + offset, 0)
        curator.skip_to(T)
        furthest = max(furthest, T)
        fresh = _GreedyCurator(S, tilted)
        fresh.skip_to(furthest)
        assert _curator_state(curator) == _curator_state(fresh), (T, furthest)


SEEK_HYBRID = hybrid(("stretched", 4), ("steady", 8), ("tilted", 4))


@settings(max_examples=60, deadline=None)
@example(Ts=[2, 3, 4, 5, 5, 4, 14])
@example(Ts=[3, 5, 0])
@given(Ts=st.lists(st.integers(0, 14), max_size=12))
def test_a_hybrid_selector_seeks_only_forward(Ts):
    """Its greedy segments fill at T=4.  A seek forward or in place ends
    where a fresh selector sought there ends; a seek back raises
    DomainError and leaves the selector as it was."""
    selector = Selector(SEEK_HYBRID, 16)
    for T in Ts:
        if T < selector.T:
            before = copy.deepcopy(_selector_state(selector))
            with pytest.raises(DomainError):
                selector.seek(T)
            assert _selector_state(selector) == before, T
            continue
        selector.seek(T)
        fresh = Selector(SEEK_HYBRID, 16)
        fresh.seek(T)
        assert _selector_state(selector) == _selector_state(fresh), T


@pytest.mark.parametrize("T", [2**40, 2**63], ids=["2**40", "2**63"])
def test_gap_bucket_curator_matches_scan_at_depth(T):
    """Resumed deep in the stream, big-integer comparisons still agree.

    No path takes a tilted curator past REPLAY_CAP, and its float scores
    are proven exact only below 2**25; on these seeded states they agree
    with the scan's fractions too."""
    rng = random.Random(T)
    for S in (8, 64, 256):
        for tilted in (False, True):
            # half spread over the whole stream, half packed near T, so both
            # huge and small (often equal) gaps compete
            picked = {rng.randrange(T) for _ in range(S // 2)}
            while len(picked) < S:
                picked.add(T - 1 - rng.randrange(4 * S))
            times = sorted(picked)
            sites = rng.sample(range(S), S)
            curator = _GreedyCurator(S, tilted)
            curator.resume(T, list(times), list(sites))
            scan = ScanCurator(S, tilted)
            scan.T, scan.times, scan.sites = T, list(times), list(sites)
            _assert_steps_match(curator, scan, 500, (S, tilted, T))


@pytest.mark.parametrize(
    "S, count, never", [(4, 14, True), (8, 254, True), (16, 65534, False), (64, 6000, False)]
)
def test_stretched_next_write_matches_scan(S, count, never):
    """Answering discards from the cached next write picks what the scan picks.

    Step by step from T=0; then at seeded T, from a curator resumed from
    the scan's last-writer table and from a fresh Selector that seeks to T.
    At S=4 and S=8 the discard wins for good before capacity, so no next
    write is left.
    """
    from streamsieve.algorithms import _NEVER, Selector

    curator, scan = _GreedyCurator(S, False), ScanCurator(S, False)
    picks = []
    for T in range(count):
        pick = scan.step()
        assert curator.step() == pick, (S, T)
        # no discard is answered past the cached next write
        assert pick is not None or T < curator.next_write, (S, T)
        picks.append(pick)
    rebuilt = _GreedyCurator(S, False)
    rebuilt.resume(count, list(curator.times), list(curator.sites))
    assert curator.next_write == rebuilt.next_write
    assert (curator.next_write == _NEVER) == never
    rng = random.Random(S)
    writers = [None] * S
    T = 0
    for at in sorted(rng.sample(range(count), min(count, 30))):
        for T in range(T, at):
            if picks[T] is not None:
                writers[picks[T]] = T
        T = at
        stop = min(at + 300, count)
        written = sorted((tbar, k) for k, tbar in enumerate(writers) if tbar is not None)
        resumed = _GreedyCurator(S, False)
        resumed.resume(at, [tbar for tbar, _ in written], [k for _, k in written])
        for Tp in range(at, stop):
            pick = resumed.step()
            assert pick == picks[Tp], (S, at, Tp)
            assert pick is not None or Tp < resumed.next_write, (S, at, Tp)
        selector = Selector(STRETCHED, S)
        selector.seek(at)
        expected = [() if pick is None else (pick,) for pick in picks[at:stop]]
        assert [selector.step() for _ in range(at, stop)] == expected, (S, at)


@pytest.mark.parametrize("T2", [2**40, 2**63], ids=["2**40", "2**63"])
@pytest.mark.parametrize("S", [64, 256, 1024])
def test_stretched_skip_ahead_is_consistent_at_depth(S, T2):
    """No oracle reaches this deep: jumping straight to T2 must equal
    stopping at a seeded T1 < T2, resuming from that table and jumping on."""
    straight = _GreedyCurator(S, False)
    straight.skip_to(T2)
    assert straight.T == T2
    table = dict(zip(straight.sites, straight.times))
    assert sorted(table) == list(range(S))
    assert table[0] == 0  # stretched keeps the origin
    assert len(set(straight.times)) == S and max(straight.times) < T2
    rng = random.Random(S * T2)
    for T1 in (rng.randrange(S, T2), T2 // 3, T2 - 1):
        first = _GreedyCurator(S, False)
        first.skip_to(T1)
        resumed = _GreedyCurator(S, False)
        resumed.resume(T1, list(first.times), list(first.sites))
        assert resumed.next_write == first.next_write, T1
        resumed.skip_to(T2)
        assert (resumed.times, resumed.sites) == (straight.times, straight.sites), T1


def test_selection_stream_checks_capacity_up_front():
    with pytest.raises(CapacityError):
        selection_stream(TILTED, 4, 15)
