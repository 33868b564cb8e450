import io

import pytest

from streamsieve import (
    DomainError,
    ReplayLimitError,
    TestVector,
    VectorFormatError,
    check_vectors,
    generate_vectors,
    parse_algorithm,
    read_vectors_csv,
    write_vectors_csv,
)
from streamsieve import algorithms, conformance
from streamsieve.conformance import DEFAULT_SEED

# suppress the collector's "Test*" class warning for the NamedTuple re-export
TestVector.__test__ = False


def test_grid_example_steady_8_16():
    # 2 S-values x 16 T-values, no sampled extras
    vectors = list(generate_vectors(["steady"], 8, 16, steady_extra=0))
    assert len(vectors) == 32
    assert {v.S for v in vectors} == {4, 8}
    assert [v.T for v in vectors if v.S == 4] == list(range(16))
    assert all(v.algo == "steady" for v in vectors)


def test_grid_rows_are_frozen():
    vectors = generate_vectors(["steady"], 8, 16, steady_extra=0)
    buf = io.StringIO()
    write_vectors_csv(buf, vectors)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "algo,S,T,expected_sites"
    assert lines[1:8] == [
        "steady,4,0,0",
        "steady,4,1,1",
        "steady,4,2,2",
        "steady,4,3,3",
        "steady,4,4,",  # discard: empty field
        "steady,4,5,0",
        "steady,4,6,",
    ]
    assert lines[17] == "steady,8,0,0"


def test_capacity_caps_the_grid():
    # stretched at S=4 supports 14 ingests, so max_t=100 is cut down
    vectors = list(generate_vectors(["stretched"], 4, 100, steady_extra=0))
    assert len(vectors) == 14
    assert vectors[-1].T == 13


def test_steady_extra_sampling():
    vectors = list(generate_vectors(["steady"], 4, 16, steady_extra=6))
    assert len(vectors) == 22
    extras = [v.T for v in vectors[16:]]
    assert extras == sorted(extras)
    assert all(16 <= T < 16 + (1 << 48) for T in extras)
    again = list(generate_vectors(["steady"], 4, 16, steady_extra=6))
    assert vectors == again
    reseeded = list(generate_vectors(["steady"], 4, 16, steady_extra=6, seed=DEFAULT_SEED + 1))
    assert [v.T for v in reseeded[16:]] != extras


def test_hybrid_uses_its_own_total():
    vectors = list(generate_vectors(["hybrid(steady:4+tilted:4)"], 8, 8, steady_extra=0))
    assert len(vectors) == 8
    assert all(v.S == 8 for v in vectors)
    assert vectors[0].expected == (0, 4)
    # a hybrid wider than max_s contributes nothing
    assert list(generate_vectors(["hybrid(steady:4+tilted:4)"], 4, 8, steady_extra=0)) == []


@pytest.mark.parametrize(
    "max_t, steady_extra", [(1.0, 0), (4, 2.5), (True, 0)], ids=["float-T", "float-extra", "bool-T"]
)
def test_bounds_must_be_ints(max_t, steady_extra):
    # a TypeError from range(), or one vector for max_t=True, before
    with pytest.raises(DomainError, match="must be an integer"):
        generate_vectors(["steady"], 4, max_t, steady_extra)


def test_a_negative_max_t_is_refused_before_any_row():
    # it drew the large-T rows from [-1, 2**48 - 1) and wrote them, before
    with pytest.raises(DomainError, match="max_t must not be negative"):
        generate_vectors(["steady"], 4, -1, 50)


def test_generation_leaves_the_replay_memo_empty():
    # each layout is walked by its own Selector, not replayed through the memo
    algorithms._clear_replay_memos()
    vectors = list(generate_vectors(
        ["stretched", "tilted", "hybrid(steady:4+stretched:4+tilted:8)"], 16, 300, 4
    ))
    assert len(vectors) == 14 + 254 + 300 + 14 + 254 + 300 + 14
    assert algorithms._replay_memos == {}


def test_a_too_deep_greedy_layout_is_refused_before_its_first_row(monkeypatch):
    # S=4, 8 and 16 stop at their capacity; S=32 is past the replay limit at
    # its last row, T = 2**22, and is refused before any layout builds a row
    built = []

    def row(*fields):
        built.append(fields)
        return TestVector(*fields)

    monkeypatch.setattr(conformance, "TestVector", row)
    refused = "S=32 is capped at 4194304 arrivals, asked for 4194305"
    with pytest.raises(ReplayLimitError, match=refused):
        generate_vectors(["tilted"], 64, 2**22 + 1, 0)
    assert built == []
    # without S=32 the grid is legal, and a row is built only as it is taken
    rows = generate_vectors(["tilted"], 16, 2**22 + 1, 0)
    assert built == []
    assert [next(rows) for _ in range(5)][-1] == ("tilted", 4, 4, (0,))
    assert len(built) == 5


@pytest.mark.parametrize(
    "token, max_s", [("steady", 8), ("hybrid(steady:4+steady:4)", 8)], ids=["steady", "all-steady"]
)
def test_a_grid_past_the_replay_cap_is_refused_before_its_first_row(monkeypatch, token, max_s):
    # an unbounded layout's grid runs to max_t: 10**11 rows, each held
    built = []
    monkeypatch.setattr(conformance, "TestVector", lambda *row: built.append(row))
    S = 4 if token == "steady" else 8
    refused = f"{token} with S={S} is capped at 4194304 arrivals, asked for 100000000000"
    with pytest.raises(ReplayLimitError) as info:
        generate_vectors([token], max_s, 10**11, 0)
    assert str(info.value) == refused
    assert built == []


def test_check_is_reflexive():
    vectors = generate_vectors(
        ["steady", "stretched", "tilted", "hybrid(steady:4+tilted:4)"],
        8,
        32,
        steady_extra=2,
    )
    assert check_vectors(vectors) == []


def test_check_flags_single_corruption():
    vectors = list(generate_vectors(["steady"], 8, 16, steady_extra=0))
    vectors[5] = vectors[5]._replace(expected=(3,))
    messages = check_vectors(vectors)
    assert len(messages) == 1
    assert "vector 5" in messages[0] and "steady" in messages[0]


def test_expected_sites_may_be_a_list():
    vectors = [TestVector("steady", 4, 1, [1]), TestVector("steady", 4, 1, [2])]
    assert check_vectors(vectors) == ["vector 1 (steady S=4 T=1): expected [2], got [1]"]


def test_expected_sites_that_are_not_iterable_are_a_mismatch():
    vectors = [TestVector("steady", 4, 1, None), TestVector("steady", 4, 1, 5)]
    assert check_vectors(vectors) == [
        "vector 0 (steady S=4 T=1): expected None, got [1]",
        "vector 1 (steady S=4 T=1): expected 5, got [1]",
    ]


def test_check_reports_unevaluable_rows():
    vectors = [TestVector("stretched", 4, 200, (0,))]
    messages = check_vectors(vectors)
    assert len(messages) == 1
    assert "vector 0" in messages[0]


def test_check_reports_rows_past_the_replay_cap():
    # an edited row deep in a greedy stream is a mismatch, not a hang
    messages = check_vectors([TestVector("tilted", 64, 2**40, (0,))])
    assert len(messages) == 1
    assert "vector 0" in messages[0] and "capped" in messages[0]


def test_a_bad_token_is_reported_on_each_of_its_rows():
    vectors = [TestVector("sideways", S, T, ()) for S, T in ((4, 0), (8, 1), (16, 2))]
    assert check_vectors(vectors) == [
        "vector 0 (S=4 T=0): unknown algorithm token 'sideways'",
        "vector 1 (S=8 T=1): unknown algorithm token 'sideways'",
        "vector 2 (S=16 T=2): unknown algorithm token 'sideways'",
    ]


@pytest.mark.parametrize("token", [None, []], ids=["none", "list"])
def test_a_token_that_is_not_a_string_is_reported_per_vector(token):
    # a list cannot key the parsed-token dict; it must not raise TypeError
    vectors = [TestVector(token, 4, 0, ()), TestVector("steady", 4, 0, (0,))] * 2
    assert check_vectors(vectors) == [
        f"vector {i} (S=4 T=0): algorithm token must be a string, got {token!r}" for i in (0, 2)
    ]


def test_each_token_is_parsed_once_per_check(monkeypatch):
    vectors = list(generate_vectors(["steady", "tilted", "hybrid(steady:4+tilted:4)"], 8, 16, 2))
    vectors += [TestVector("sideways", 4, 0, ())] * 3 + [TestVector(None, 4, 0, ())] * 2
    calls = []

    def counting(token):
        calls.append(token)
        return parse_algorithm(token)

    monkeypatch.setattr(conformance, "parse_algorithm", counting)
    assert len(check_vectors(vectors)) == 5
    # a str token once, whatever its outcome; None on each of its vectors
    assert calls == ["steady", "tilted", "hybrid(steady:4+tilted:4)", "sideways", None, None]


LONG_TOKEN = "hybrid(steady:4+tilted:" + "9" * 5000 + ")"
CLIPPED = (
    "bad hybrid segment 'tilted:999999999999999999999999... (5009 characters) "
    "in 'hybrid(steady:4+tilted:99999999... (5026 characters)"
)
SITES = "site count must be a power of two in [4, 2**20], got"


def test_a_mixed_file_reports_as_before():
    vectors = [
        TestVector("steady", 4, 5, (0,)),
        TestVector("steady", 4, 5, (1,)),
        TestVector("sideways", 4, 0, (0,)),
        TestVector("tilted", 8, 9, (0,)),
        TestVector("sideways", 8, 1, ()),
        TestVector("hybrid(steady:4+tilted:4)", 8, 0, (0, 4)),
        TestVector("hybrid(steady:4+tilted:4)", 16, 0, (0, 4)),
        TestVector("hybrid(steady:4+tilted:3)", 7, 0, ()),
        TestVector(None, 4, 0, ()),
        TestVector([], 4, 0, ()),
        TestVector("stretched", 4, 200, (0,)),
        TestVector("tilted", 64, 2**40, (0,)),
        TestVector("steady", 6, 0, (0,)),
        TestVector("steady", 4.0, 0, (0,)),
        TestVector("steady", True, 0, (0,)),
        TestVector("steady", 4, -1, ()),
        TestVector(LONG_TOKEN, 8, 0, ()),
        TestVector("sideways", 16, 2, ()),
        TestVector(LONG_TOKEN, 8, 1, ()),
        TestVector("hybrid(steady:4+tilted:4)", 8, 1, (1, 5)),
    ]
    assert check_vectors(vectors) == [
        "vector 1 (steady S=4 T=5): expected [1], got [0]",
        "vector 2 (S=4 T=0): unknown algorithm token 'sideways'",
        "vector 3 (tilted S=8 T=9): expected [0], got [2]",
        "vector 4 (S=8 T=1): unknown algorithm token 'sideways'",
        "vector 6 (hybrid(steady:4+tilted:4) S=16 T=0): hybrid segments cover 8 sites but S=16",
        f"vector 7 (S=7 T=0): {SITES} 3",
        "vector 8 (S=4 T=0): algorithm token must be a string, got None",
        "vector 9 (S=4 T=0): algorithm token must be a string, got []",
        "vector 10 (stretched S=4 T=200): stretched with S=4 supports at most 14 ingests, asked for 201",
        "vector 11 (tilted S=64 T=1099511627776): tilted with S=64 is capped at 4194304 arrivals, "
        "asked for 1099511627777",
        f"vector 12 (steady S=6 T=0): {SITES} 6",
        f"vector 13 (steady S=4.0 T=0): {SITES} 4.0",
        f"vector 14 (steady S=True T=0): {SITES} True",
        "vector 15 (steady S=4 T=-1): ingest counter must be a non-negative integer, got -1",
        f"vector 16 (S=8 T=0): {CLIPPED}",
        "vector 17 (S=16 T=2): unknown algorithm token 'sideways'",
        f"vector 18 (S=8 T=1): {CLIPPED}",
    ]


def test_csv_round_trip_and_determinism():
    vectors = list(generate_vectors(
        ["steady", "tilted", "hybrid(steady:4+steady:4)"], 8, 20, steady_extra=3
    ))
    first = io.StringIO()
    write_vectors_csv(first, vectors)
    second = io.StringIO()
    write_vectors_csv(second, vectors)
    assert first.getvalue() == second.getvalue()
    assert read_vectors_csv(io.StringIO(first.getvalue())) == vectors


def test_read_rejects_malformed_files():
    with pytest.raises(VectorFormatError):
        read_vectors_csv(io.StringIO(""))
    with pytest.raises(VectorFormatError):
        read_vectors_csv(io.StringIO("algo,S,T\nsteady,4,0\n"))
    with pytest.raises(VectorFormatError):
        read_vectors_csv(io.StringIO("algo,S,T,expected_sites\nsteady,4\n"))
    with pytest.raises(VectorFormatError):
        read_vectors_csv(io.StringIO("algo,S,T,expected_sites\nsteady,four,0,0\n"))
    with pytest.raises(VectorFormatError):
        read_vectors_csv(io.StringIO("algo,S,T,expected_sites\nsteady,4,0,a;b\n"))


def test_a_bad_cell_names_its_physical_line():
    # the quoted token spans lines 2 and 3, so the bad T is on line 4
    text = 'algo,S,T,expected_sites\n"stea\ndy",4,0,0\nsteady,4,x,0\n'
    with pytest.raises(VectorFormatError, match="^line 4: expected an integer"):
        read_vectors_csv(io.StringIO(text))
    with pytest.raises(VectorFormatError, match="^line 4: expected 4 fields"):
        read_vectors_csv(io.StringIO(text.replace("x,0", "0")))


def test_empty_expected_round_trips():
    vectors = [TestVector("steady", 4, 4, ())]
    buf = io.StringIO()
    write_vectors_csv(buf, vectors)
    assert read_vectors_csv(io.StringIO(buf.getvalue())) == vectors
