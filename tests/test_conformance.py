import io

import pytest

from streamsieve import (
    DomainError,
    TestVector,
    VectorFormatError,
    check_vectors,
    generate_vectors,
    read_vectors_csv,
    write_vectors_csv,
)
from streamsieve.conformance import DEFAULT_SEED

# suppress the collector's "Test*" class warning for the NamedTuple re-export
TestVector.__test__ = False


def test_grid_example_steady_8_16():
    # 2 S-values x 16 T-values, no sampled extras
    vectors = generate_vectors(["steady"], 8, 16, steady_extra=0)
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
    vectors = generate_vectors(["stretched"], 4, 100, steady_extra=0)
    assert len(vectors) == 14
    assert vectors[-1].T == 13


def test_steady_extra_sampling():
    vectors = generate_vectors(["steady"], 4, 16, steady_extra=6)
    assert len(vectors) == 22
    extras = [v.T for v in vectors[16:]]
    assert extras == sorted(extras)
    assert all(16 <= T < 16 + (1 << 48) for T in extras)
    again = generate_vectors(["steady"], 4, 16, steady_extra=6)
    assert vectors == again
    reseeded = generate_vectors(["steady"], 4, 16, steady_extra=6, seed=DEFAULT_SEED + 1)
    assert [v.T for v in reseeded[16:]] != extras


def test_hybrid_uses_its_own_total():
    vectors = generate_vectors(["hybrid(steady:4+tilted:4)"], 8, 8, steady_extra=0)
    assert len(vectors) == 8
    assert all(v.S == 8 for v in vectors)
    assert vectors[0].expected == (0, 4)
    # a hybrid wider than max_s contributes nothing
    assert generate_vectors(["hybrid(steady:4+tilted:4)"], 4, 8, steady_extra=0) == []


@pytest.mark.parametrize(
    "max_t, steady_extra", [(1.0, 0), (4, 2.5), (True, 0)], ids=["float-T", "float-extra", "bool-T"]
)
def test_bounds_must_be_ints(max_t, steady_extra):
    # a TypeError from range(), or one vector for max_t=True, before
    with pytest.raises(DomainError, match="must be an integer"):
        generate_vectors(["steady"], 4, max_t, steady_extra)


def test_check_is_reflexive():
    vectors = generate_vectors(
        ["steady", "stretched", "tilted", "hybrid(steady:4+tilted:4)"],
        8,
        32,
        steady_extra=2,
    )
    assert check_vectors(vectors) == []


def test_check_flags_single_corruption():
    vectors = generate_vectors(["steady"], 8, 16, steady_extra=0)
    vectors[5] = vectors[5]._replace(expected=(3,))
    messages = check_vectors(vectors)
    assert len(messages) == 1
    assert "vector 5" in messages[0] and "steady" in messages[0]


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


def test_csv_round_trip_and_determinism():
    vectors = generate_vectors(
        ["steady", "tilted", "hybrid(steady:4+steady:4)"], 8, 20, steady_extra=3
    )
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


def test_empty_expected_round_trips():
    vectors = [TestVector("steady", 4, 4, ())]
    buf = io.StringIO()
    write_vectors_csv(buf, vectors)
    assert read_vectors_csv(io.StringIO(buf.getvalue())) == vectors
