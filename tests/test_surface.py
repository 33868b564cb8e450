"""Surface state machine and hex interchange tests."""

import random
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    Surface,
    explode_row,
    has_ingest_capacity,
    hybrid,
    pack_slots_hex,
    site_selection,
    stream_capacity,
    unpack_slots_hex,
)
from streamsieve.algorithms import _refuse

# a slot array's typecode holds exactly the width, one byte a slot at 1 bit;
# C names no 4-byte type, so 32 bits takes whichever of 'I' and 'L' is 4 bytes
CODES = {1: "B", 8: "B", 16: "H", 32: "I" if array("I").itemsize == 4 else "L", 64: "Q"}
assert array(CODES[32]).itemsize == 4 and array(CODES[64]).itemsize == 8


def test_constructor_examples():
    s = Surface(STEADY, 64, 8)
    assert s.T == 0 and s.slots.tolist() == [0] * 64 and s.written == [False] * 64
    assert s.slots.typecode == "B"
    with pytest.raises(ConfigurationError):
        Surface(TILTED, 3, 8)
    assert Surface(hybrid(("steady", 4), ("tilted", 4)), 8, 1).S == 8
    with pytest.raises(ConfigurationError):
        Surface(STEADY, 8, 12)


def test_repr():
    s = Surface(hybrid(("steady", 4), ("tilted", 4)), 8, 16)
    s.ingest(7)
    assert repr(s) == "Surface(algo=hybrid(steady:4+tilted:4), S=8, T=1, value_bits=16)"


def test_identity_fill_then_discard():
    s = Surface(STEADY, 4, 8)
    for T in range(4):
        assert s.ingest(10 + T) == {T}
    assert s.slots.tolist() == [10, 11, 12, 13] and s.slots.typecode == "B"
    # T=4 discards: slots untouched, counter still advances
    assert s.ingest(14) == frozenset()
    assert s.slots.tolist() == [10, 11, 12, 13] and s.T == 5 and s.slots.typecode == "B"


def test_steady_eight_ingests_example():
    s = Surface(STEADY, 4, 8)
    for T in range(8):
        s.ingest(T % 256)
    assert s.slots.tolist() == [5, 1, 7, 3] and s.slots.typecode == "B"
    assert s.written == [True] * 4
    assert s.to_hex() == "05010703"


def test_value_domain_checks():
    s = Surface(STEADY, 4, 8)
    s.ingest(255)
    with pytest.raises(DomainError):
        s.ingest(256)
    with pytest.raises(DomainError):
        s.ingest(-1)
    b = Surface(STEADY, 4, 1)
    b.ingest(1)
    with pytest.raises(DomainError):
        b.ingest(2)
    # only type int: pack_slots_hex refuses anything else, so a surface that
    # took an int subclass could not be dumped
    for value in (True, type("Sub", (int,), {})(3)):
        with pytest.raises(DomainError):
            s.ingest(value)
    assert s.to_hex() == "ff000000"


@pytest.mark.parametrize("value_bits", [8.0, True], ids=["float", "bool"])
def test_widths_must_be_int(value_bits):
    """8.0 and True compare equal to legal widths; every entry point refuses them."""
    calls = (
        lambda: Surface(STEADY, 4, value_bits),
        lambda: explode_row("steady", 4, 8, value_bits, "00000000"),
        lambda: pack_slots_hex([0] * 8, value_bits),
        lambda: unpack_slots_hex("00000000", 8, value_bits),
    )
    for call in calls:
        with pytest.raises(ConfigurationError, match="item width"):
            call()


def _refusal(algo, S, count, capacity, bound):
    # the message _refuse, and so every other entry point, gives
    with pytest.raises(StreamSieveError) as info:
        _refuse(algo, S, count, capacity, bound)
    return str(info.value)


def test_capacity_error_leaves_state_alone():
    s = Surface(TILTED, 4, 8)
    for T in range(14):
        s.ingest(T)
    before = (s.T, list(s.slots))
    with pytest.raises(CapacityError) as info:
        s.ingest(99)
    assert str(info.value) == _refusal(TILTED, 4, 15, 14, REPLAY_CAP)
    assert (s.T, list(s.slots)) == before


def test_ingest_never_relocates():
    """Slots may change only at the selected sites, and only to the new value."""
    rng = random.Random(11)
    cases = [(STEADY, 16), (STRETCHED, 8), (TILTED, 8), (hybrid(("steady", 8), ("tilted", 8)), 16)]
    for algo, S in cases:
        s = Surface(algo, S, 16)
        for T in range(200):
            value = rng.randrange(1 << 16)
            before = list(s.slots)
            sel = s.ingest(value)
            assert sel == site_selection(algo, S, T)
            for k in range(S):
                if k in sel:
                    assert s.slots[k] == value
                else:
                    assert s.slots[k] == before[k]


# ---------------------------------------------------------------------------
# hex interchange


def test_hex_examples():
    assert pack_slots_hex([5, 1, 7, 3], 8) == "05010703"
    assert pack_slots_hex([1, 0, 1, 1, 0, 0, 0, 0], 1) == "b0"
    assert pack_slots_hex([0, 0, 0, 0], 32) == "0" * 32
    # no slots are the empty digest, which reads back as no slots
    for value_bits in (8, 1):
        assert pack_slots_hex([], value_bits) == ""
        empty = unpack_slots_hex("", 0, value_bits)
        assert empty.tolist() == [] and empty.typecode == "B"
    # a hex digit is four 1-bit slots: '1f' for five slots before, which no
    # unpack read back
    for count in (1, 2, 3, 5, 6, 7):
        with pytest.raises(ConfigurationError, match=f"^1-bit slots come in fours, got {count}$"):
            pack_slots_hex([1] * count, 1)
        with pytest.raises(ConfigurationError, match=f"^1-bit slots come in fours, got {count}$"):
            unpack_slots_hex("f" * (count // 4), count, 1)


class _Int(int):
    pass


@pytest.mark.parametrize(
    "slots, value_bits, bad",
    [
        ([1, 300], 8, "slot 1 holds 300"),
        ([0, -1], 8, "slot 1 holds -1"),
        ([1, 0, 2, 5], 1, "slot 2 holds 2"),
        ([0, 1 << 64], 64, f"slot 1 holds {1 << 64}"),
        # what Surface.ingest refuses: a bool, a float, a str
        ([True, 2, 0, 0], 8, "slot 0 holds True"),
        ([0, 0, 0, False], 1, "slot 3 holds False"),
        ([1.5, 0, 0, 0], 8, r"slot 0 holds 1\.5"),
        (["7", 0, 0, 0], 8, "slot 0 holds '7'"),
        # array() would take an int subclass as it takes a bool
        ([_Int(1), 0, 0, 0], 8, "slot 0 holds 1"),
        ([0, 0, 1.0, 0], 1, r"slot 2 holds 1\.0"),
        # a 1-bit pack refuses every byte but 0 and 1, and what is no byte
        *(([0, 1, v, 1], 1, f"slot 2 holds {v}") for v in (2, 32, 95, 255, 256, -1)),
        ([0, 1, 0, 10**5000], 64, "slot 3 holds a positive int of 16610 bits"),
        ([0, -(10**5000), 0, 0], 64, "slot 1 holds a negative int of 16610 bits"),
        # two faults, the first named; "0_1 " would read as 1
        ([0, 95, 1, 32], 1, "slot 1 holds 95"),
        # a 1-bit slot array's 'B' takes 2-255: named, not int()'s ValueError
        *((array("B", [0, 1, v, 1]), 1, f"slot 2 holds {v}") for v in (2, 32, 95, 255)),
        # an array of another typecode is type-scanned as a list is
        (array("b", [0, -1]), 8, "slot 1 holds -1"),
        (array("d", [1.5, 0, 0, 0]), 8, r"slot 0 holds 1\.5"),
        (array(CODES[64], [0, 1 << 32]), 32, f"slot 1 holds {1 << 32}"),
    ],
    ids=[
        "too-wide", "negative", "bit", "u64", "bool", "bool-bit", "float", "str", "int-subclass",
        "float-bit", "bit-2", "bit-32", "bit-95", "bit-255", "bit-256", "bit-neg", "u64-huge",
        "u64-huge-neg", "two-faults", "typed-bit-2", "typed-bit-32", "typed-bit-95",
        "typed-bit-255", "signed-array", "float-array", "wide-array",
    ],
)
def test_pack_refuses_values_that_do_not_fit(slots, value_bits, bad):
    # '012c' and '-001' before: the value bled into its neighbour, or a sign;
    # '01020000' for the bool, and a TypeError for the float and the str.
    # At 1 bit a 32 or a 95 must not pack as " " or "_", which int() can read
    with pytest.raises(DomainError, match=f"^{bad}, which does not fit in {value_bits} bits$"):
        pack_slots_hex(slots, value_bits)


def test_unpack_examples():
    slots = unpack_slots_hex("05010703", 4, 8)
    assert slots.tolist() == [5, 1, 7, 3] and slots.typecode == "B"
    slots = unpack_slots_hex("b0", 8, 1)
    assert slots.tolist() == [1, 0, 1, 1, 0, 0, 0, 0] and slots.typecode == "B"
    # each message says what was wrong without repeating the cell
    expected = "expected 8 hex digits for S=4 width=8, got "
    for text, got in (
        ("0501", "4 characters"),  # wrong length
        ("ZZ010703", "non-hex 'Z' at index 0"),
        ("0x010703", "non-hex 'x' at index 1"),  # int() niceties must not leak in
        (None, "NoneType"),
        (b"05010703", "bytes"),
    ):
        with pytest.raises(HexFormatError) as info:
            unpack_slots_hex(text, 4, 8)
        assert str(info.value) == expected + got, text
    # a TypeError or a struct.error before
    for S in ("4", None, 4.0):
        with pytest.raises(ConfigurationError, match="^site count must be an int, got "):
            unpack_slots_hex("05010703", S, 8)
    # a digit count of -8, or -1 at 1 bit, before
    for S, value_bits in ((-4, 8), (-4, 1), (-5, 1), (-1, 64)):
        with pytest.raises(ConfigurationError, match=f"^site count must not be negative, got {S}$"):
            unpack_slots_hex("", S, value_bits)


@given(
    st.sampled_from([4, 8, 16]),
    st.sampled_from([1, 8, 16, 32, 64]),
    st.randoms(use_true_random=False),
)
def test_hex_round_trip(S, value_bits, rng):
    slots = [rng.randrange(1 << value_bits) for _ in range(S)]
    text = pack_slots_hex(slots, value_bits)
    assert len(text) == S * value_bits // 4
    assert text == text.lower()
    got = unpack_slots_hex(text, S, value_bits)
    assert got.tolist() == slots and got.typecode == CODES[value_bits]


def _shift_pack(slots, value_bits):
    # the former quadratic encoder, kept as the oracle for the linear one
    acc = 0
    for v in slots:
        acc = (acc << value_bits) | v
    return format(acc, f"0{len(slots) * value_bits // 4}x")


def _shift_unpack(text, S, value_bits):
    # the former quadratic decoder, kept as the oracle for the linear one
    acc = int(text, 16)
    mask = (1 << value_bits) - 1
    return [(acc >> ((S - 1 - k) * value_bits)) & mask for k in range(S)]


@pytest.mark.parametrize("value_bits", [1, 8, 16, 32, 64])
def test_linear_unpack_matches_the_shift_loop(value_bits):
    rng = random.Random(value_bits)
    for S in (4, 8, 16, 64, 256, 1024, 4096):
        # random values, plus every slot at its extremes
        for slots in (
            [rng.getrandbits(value_bits) for _ in range(S)],
            [0] * S,
            [(1 << value_bits) - 1] * S,
        ):
            text = pack_slots_hex(slots, value_bits)
            got = unpack_slots_hex(text, S, value_bits)
            assert got.tolist() == _shift_unpack(text, S, value_bits) == slots
            assert got.typecode == CODES[value_bits]
            # upper-case digits are hex digits too
            got = unpack_slots_hex(text.upper(), S, value_bits)
            assert got.tolist() == slots and got.typecode == CODES[value_bits]


def test_linear_unpack_of_the_largest_dump():
    S = 1 << 20
    slots = list(random.Random(20).randbytes(S))
    got = unpack_slots_hex(bytes(slots).hex(), S, 8)
    assert got.tolist() == slots and got.typecode == "B"


@pytest.mark.parametrize("value_bits", [1, 8, 16, 32, 64])
def test_linear_pack_matches_the_shift_loop(value_bits):
    rng = random.Random(value_bits)
    for S in (4, 8, 16, 64, 256, 1024, 4096):
        # random values, plus every slot at its extremes
        for slots in (
            [rng.getrandbits(value_bits) for _ in range(S)],
            [0] * S,
            [(1 << value_bits) - 1] * S,
        ):
            assert pack_slots_hex(slots, value_bits) == _shift_pack(slots, value_bits)
    # any sequence of ints packs, not only a list
    slots = tuple(rng.getrandbits(value_bits) for _ in range(64))
    assert pack_slots_hex(slots, value_bits) == _shift_pack(slots, value_bits)


@pytest.mark.parametrize("value_bits", [1, 64])
def test_linear_pack_of_the_largest_dump(value_bits):
    S = 1 << 20
    rng = random.Random(value_bits)
    slots = [rng.getrandbits(value_bits) for _ in range(S)]
    got = unpack_slots_hex(pack_slots_hex(slots, value_bits), S, value_bits)
    assert got.tolist() == slots and got.typecode == CODES[value_bits]


@given(
    st.sampled_from([1, 8, 16, 32, 64]),
    st.integers(0, 16).map(lambda n: 4 * n),
    st.data(),
)
def test_typed_slots_pack_and_unpack_as_a_list_does(value_bits, S, data):
    slots = data.draw(st.lists(st.integers(0, (1 << value_bits) - 1), min_size=S, max_size=S))
    typed = array(CODES[value_bits], slots)
    text = pack_slots_hex(typed, value_bits)
    assert text == pack_slots_hex(slots, value_bits) == (_shift_pack(slots, value_bits) if S else "")
    # the pack byteswaps a copy: the caller's array keeps its values
    assert typed.tolist() == slots and typed.typecode == CODES[value_bits]
    for digits in (text, text.upper()):
        got = unpack_slots_hex(digits, S, value_bits)
        assert got.tolist() == slots and got.typecode == CODES[value_bits]


def _outcome(slots, value_bits):
    try:
        return pack_slots_hex(slots, value_bits)
    except DomainError as exc:
        return DomainError, str(exc)


@given(
    st.sampled_from([1, 8, 16, 32, 64]),
    st.integers(1, 16).map(lambda n: 4 * n),
    # a 1-bit 'B' holds 2-255; any other code is type-scanned as a list is
    st.sampled_from("bBhHiIlLqQd"),
    st.data(),
)
def test_any_array_packs_or_refuses_as_a_list_does(value_bits, S, code, data):
    if code == "d":
        values = st.floats()
    else:
        bits = 8 * array(code).itemsize
        low, high = (0, (1 << bits) - 1) if code.isupper() else (-(1 << bits - 1), (1 << bits - 1) - 1)
        fits = st.integers(0, min(high, (1 << value_bits) - 1))
        values = st.one_of(fits, fits, st.integers(low, high))
    slots = data.draw(st.lists(values, min_size=S, max_size=S))
    typed = array(code, slots)
    assert _outcome(typed, value_bits) == _outcome(typed.tolist(), value_bits)


@pytest.mark.parametrize(
    "text, got",
    [
        ("0501 703", "non-hex ' ' at index 4"),  # bytes.fromhex skips spaces
        ("050107\n3", "non-hex '\\n' at index 6"),
        ("0501_703", "non-hex '_' at index 4"),  # int() skips underscores
        ("\u0665501\u0667703", "non-hex '\u0665' at index 0"),  # int() reads other digits
        ("0501\ud800703", "non-hex '\\ud800' at index 4"),  # a lone surrogate
    ],
)
def test_unpack_keeps_the_strict_charset(text, got):
    for value_bits, S in ((8, 4), (1, 32)):
        with pytest.raises(HexFormatError) as info:
            unpack_slots_hex(text, S, value_bits)
        assert str(info.value) == f"expected 8 hex digits for S={S} width={value_bits}, got {got}"


def test_from_hex_round_trip_with_written_flags():
    r = Surface.from_hex(STEADY, 4, 8, 8, "05010703")
    assert r.slots.tolist() == [5, 1, 7, 3] and r.slots.typecode == "B"
    assert r.written == [True] * 4
    assert r.T == 8
    assert r.to_hex() == "05010703"

    # sites 2 and 3 were never written at T=2
    r2 = Surface.from_hex(STEADY, 4, 2, 8, "0a0b0000")
    assert r2.written == [True, True, False, False]


def test_from_hex_accepts_huge_steady_T():
    r = Surface.from_hex(STEADY, 4, 2**40, 8, "05010703")
    assert all(r.written)


def test_from_hex_refuses_a_negative_T_with_a_library_error():
    with pytest.raises(StreamSieveError):
        Surface.from_hex(TILTED, 8, -1, 8, "00" * 8)


def test_reload_needs_no_lookup_table(monkeypatch):
    """A reload advances a fresh selector to T; it builds no lookup table."""
    from streamsieve import lookup

    def refuse(*args):
        raise AssertionError("a reload must not build a lookup table")

    monkeypatch.setattr(lookup, "last_write_times", refuse)
    monkeypatch.setattr(lookup, "lookup_steady_fast", refuse)
    for algo, S, at, count in (
        (STEADY, 8, 100, 140),
        (STRETCHED, 8, 100, 140),
        (TILTED, 8, 100, 140),
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16, 9, 14),
    ):
        a = Surface(algo, S, 8)
        for T in range(at):
            a.ingest(T % 256)
        b = Surface.from_hex(algo, S, at, 8, a.to_hex())
        for T in range(at, count):
            assert b.ingest(T % 256) == a.ingest(T % 256), (algo, T)
        assert (b.slots, b.T) == (a.slots, a.T), algo


def test_dump_reload_continue_matches_straight_run():
    """dump -> from_hex -> keep ingesting == never dumping at all."""
    cases = [
        # (algo, S, reload points below, at and far past S, stream length)
        (STEADY, 8, (5, 8, 200), 240),
        (STRETCHED, 8, (5, 8, 200), 240),
        (TILTED, 8, (5, 8, 200), 240),
        # the 4-site greedy segments cap this stream at 14 ingests, so the
        # reload points are taken against the segment sizes 4 and 8
        (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16, (3, 4, 8, 12), 14),
    ]
    for algo, S, reloads, count in cases:
        for at in reloads:
            a = Surface(algo, S, 8)
            for T in range(at):
                a.ingest(T % 256)
            b = Surface.from_hex(algo, S, a.T, 8, a.to_hex())
            assert b.T == at
            for T in range(at, count):
                assert b.ingest(T % 256) == a.ingest(T % 256), (algo, at, T)
            assert (a.slots, a.written, a.T) == (b.slots, b.written, b.T), (algo, at)


def test_written_flags_follow_the_lookup_table():
    """Derived written flags equal "some T' < T wrote the site", reloaded too."""
    from streamsieve import last_write_times

    for algo, S in (
        (STEADY, 8),
        (STRETCHED, 8),
        (TILTED, 8),
        (hybrid(("steady", 4), ("tilted", 8), ("stretched", 4)), 16),
    ):
        count = min(300, stream_capacity(algo, S) or 300)
        surface = Surface(algo, S, 8)
        for T in range(count + 1):
            expected = [e is not None for e in last_write_times(algo, S, T)]
            assert surface.written == expected, (algo, T)
            reloaded = Surface.from_hex(algo, S, T, 8, surface.to_hex())
            assert reloaded.written == expected, (algo, T)
            if T < count:
                surface.ingest(T % 256)
    with pytest.raises(AttributeError):
        surface.written = [True] * S


def test_sequential_paths_leave_replay_memo_empty():
    """Greedy ingest and reload step their own selector, not the shared memo."""
    from streamsieve import algorithms

    algorithms._clear_replay_memos()
    for algo, S in ((STRETCHED, 8), (TILTED, 8), (hybrid(("steady", 4), ("tilted", 4)), 8)):
        a = Surface(algo, S, 8)
        for T in range(10):
            a.ingest(T)
        b = Surface.from_hex(algo, S, a.T, 8, a.to_hex())
        b.ingest(10)
    assert algorithms._replay_memos == {}


def test_ingest_stops_at_the_reload_limit():
    """No ingest takes a surface past the T at which its dump reloads.

    Each greedy part is positioned one arrival below the limit from a
    synthetic last-writer table, so no multi-million-step replay runs.
    """
    from streamsieve.algorithms import MAX_STEADY_T

    # capacity alone would let these greedy surfaces run past the replay cap
    assert has_ingest_capacity(TILTED, 32, REPLAY_CAP + 1)
    cases = (
        (STEADY, 8, MAX_STEADY_T),
        (STRETCHED, 32, REPLAY_CAP),
        (TILTED, 32, REPLAY_CAP),
        (hybrid(("steady", 4), ("steady", 4)), 8, MAX_STEADY_T),
        (hybrid(("steady", 32), ("tilted", 32)), 64, REPLAY_CAP),
    )
    for algo, S, limit in cases:
        surface = Surface(algo, S, 8)
        selector = surface._selector
        selector.T = limit - 1
        # distinct writers just below the resume point, in scrambled sites
        writers = [limit - 1 - 3 * ((5 * k) % S) for k in range(S)]
        for offset, size, curator in selector._parts:
            if curator is not None:
                written = sorted((writers[offset + k], k) for k in range(size))
                curator.resume(limit - 1, [t for t, _ in written], [k for _, k in written])
        surface.ingest(1)
        assert surface.T == limit
        before = (list(surface.slots), list(surface.written))
        with pytest.raises(ReplayLimitError) as info:
            surface.ingest(2)
        assert str(info.value) == _refusal(algo, S, limit + 1, selector.capacity, limit)
        assert surface.T == limit, algo
        assert (surface.slots.tolist(), surface.written) == before, algo
        assert surface.slots.typecode == "B", algo


def test_width_is_checked_before_the_sites():
    """A surface checks its arguments in the order ``check_dump`` does."""
    calls = (
        lambda: Surface(STEADY, 6, 7),
        lambda: Surface.from_hex(STEADY, 6, 0, 7, "00"),
    )
    for call in calls:
        with pytest.raises(ConfigurationError, match="item width"):
            call()
