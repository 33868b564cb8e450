import pytest

from streamsieve import CompressingBuffer, ConfigurationError, SequenceError, check_steady_gap


@pytest.mark.parametrize("capacity", [0, 1, 3, 7, -2, True, False, "4", 2.0])
def test_capacity_must_be_even_int(capacity):
    with pytest.raises(ConfigurationError) as info:
        CompressingBuffer(capacity)
    assert type(info.value) is ConfigurationError
    assert str(info.value) == f"capacity must be an even integer >= 2, got {capacity!r}"


def test_repr():
    buf = CompressingBuffer(4)
    for T in range(5):
        buf.ingest(T, T)
    assert repr(buf) == "CompressingBuffer(capacity=4, interval=2, held=3)"


def test_fill_then_first_compression():
    buf = CompressingBuffer(4)
    accepted = [buf.ingest(T, f"v{T}") for T in range(8)]
    # 0..3 fill, 4 triggers the compression that drops 1 and 3, 5 and 7 skip
    assert accepted == [True, True, True, True, True, False, True, False]
    assert buf.retained() == [0, 2, 4, 6]
    assert buf.interval == 2
    assert len(buf) == 4


def test_second_compression():
    buf = CompressingBuffer(4)
    for T in range(9):
        buf.ingest(T, T)
    assert buf.retained() == [0, 4, 8]
    assert buf.interval == 4


def test_thousand_ingests_at_capacity_64():
    buf = CompressingBuffer(64)
    for T in range(1000):
        buf.ingest(T, T)
    assert buf.retained() == list(range(0, 993, 16))
    assert len(buf) == 63
    assert buf.interval == 16


def test_values_ride_along():
    buf = CompressingBuffer(4)
    for T in range(5):
        buf.ingest(T, f"payload-{T}")
    assert buf.items == [(0, "payload-0"), (2, "payload-2"), (4, "payload-4")]


def test_compression_moves_survivors():
    # the survivor for index 2 slides from position 2 to position 1: the
    # in-place relocation the fixed-slot surfaces never perform
    buf = CompressingBuffer(4)
    for T in range(4):
        buf.ingest(T, T)
    assert buf.items.index((2, 2)) == 2
    buf.ingest(4, 4)
    assert buf.items.index((2, 2)) == 1


def test_indices_must_be_dense_and_ordered():
    buf = CompressingBuffer(4)
    buf.ingest(0, "a")
    with pytest.raises(SequenceError):
        buf.ingest(2, "b")
    with pytest.raises(SequenceError):
        buf.ingest(0, "again")
    fresh = CompressingBuffer(4)
    with pytest.raises(SequenceError):
        fresh.ingest(1, "late start")
    # 0.0 and True compare equal to the next index, but are not indices
    exact = CompressingBuffer(4)
    with pytest.raises(SequenceError):
        exact.ingest(0.0, "a")
    exact.ingest(0, "a")
    with pytest.raises(SequenceError):
        exact.ingest(True, "b")
    assert exact.retained() == [0]


def test_skips_still_advance_the_protocol():
    buf = CompressingBuffer(4)
    for T in range(5):
        buf.ingest(T, T)
    assert buf.interval == 2
    assert buf.ingest(5, 5) is False
    assert buf.ingest(6, 6) is True  # the skip at 5 still consumed index 5


def test_retained_is_always_regular():
    buf = CompressingBuffer(8)
    for T in range(2000):
        buf.ingest(T, T)
        retained = buf.retained()
        m = buf.interval
        assert retained == list(range(0, retained[-1] + 1, m)), T


def test_occupancy_band_after_first_fill():
    buf = CompressingBuffer(8)
    for T in range(2000):
        buf.ingest(T, T)
        if T >= 7:
            assert 4 < len(buf) <= 8, T


def test_gap_stays_within_four_T_over_n():
    # 2T/(n/2) == 4T/n, so the steady gap checker at half capacity is the bound
    for capacity in (4, 16, 64):
        buf = CompressingBuffer(capacity)
        for T in range(1500):
            buf.ingest(T, T)
            if T:
                result = check_steady_gap(buf.retained(), capacity // 2, T + 1)
                assert result.passed, (capacity, T, result)


@pytest.mark.parametrize("capacity", range(2, 129, 2))
def test_items_are_every_interval_from_zero(capacity):
    # what compression relies on: item k is k * interval after every ingest,
    # and every compression comes at a multiple of the doubled interval
    buf = CompressingBuffer(capacity)
    for T in range(20_000):
        m, before = buf.interval, buf.items
        stored = buf.ingest(T, -T)
        if buf.interval != m:
            assert buf.interval == 2 * m and T % (2 * m) == 0, T
            assert stored and len(before) == capacity, T
            assert buf.items == before[::2] + [(T, -T)], T
        if stored:
            assert buf.items == [(k * buf.interval, -k * buf.interval) for k in range(len(buf))], T
        else:
            assert buf.items is before and T % m, T
