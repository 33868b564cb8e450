"""Conformance vectors: freeze selections to a file, re-check them later.

A vector row is (algorithm token, S, T, expected sites).  generate checks
everything first, then walks each layout forward once with a ``Selector``,
yielding rows as it goes: every T of a grid capped at the layout's
capacity, then for steady a seeded sample of large T that the walk seeks
to, exercising the closed form far past the grid.  check recomputes each
row pointwise; output is byte-deterministic for fixed flags.
"""

from __future__ import annotations

import csv
import random
from itertools import chain
from typing import Iterator, NamedTuple

from .algorithms import (
    MIN_SITE_COUNT,
    REPLAY_CAP,
    Selector,
    _refuse,
    parse_algorithm,
    parse_int,
    site_selection,
)
from .errors import DomainError, StreamSieveError, VectorFormatError, _clip

VECTOR_FIELDS = ("algo", "S", "T", "expected_sites")

DEFAULT_SEED = 20270304
LARGE_T_SPAN = 1 << 48


class TestVector(NamedTuple):
    algo: str
    S: int
    T: int
    expected: tuple[int, ...]


def _grid_sizes(algo, max_s: int) -> list[int]:
    if algo.is_hybrid:
        total = algo.total_sites
        return [total] if total <= max_s else []
    sizes = []
    S = MIN_SITE_COUNT
    while S <= max_s:
        sizes.append(S)
        S <<= 1
    return sizes


def generate_vectors(
    algos,
    max_s: int,
    max_t: int,
    steady_extra: int = 6,
    seed: int = DEFAULT_SEED,
) -> Iterator[TestVector]:
    """Exhaustive grid plus sampled large-T steady rows, as an iterator.

    ``algos`` is a sequence of algorithm tokens.  For each algorithm the
    grid covers every power-of-two S in [4, max_s] (a hybrid instead uses
    its own total) and every T in [0, min(max_t, capacity)).
    ``steady_extra`` large-T rows per steady S are drawn from
    [max_t, max_t + 2**48) with the given seed.  Each layout is one
    ``Selector`` walk, refused for its last row, or for a grid of more than
    REPLAY_CAP rows, before any row is built; rows are built as taken.
    DomainError names the first bound that is not an int (1.0 and True are
    not), or a negative max_t.
    """
    for name, bound in (("max_s", max_s), ("max_t", max_t), ("steady_extra", steady_extra)):
        if type(bound) is not int:
            raise DomainError(f"{name} must be an integer, got {_clip(bound)}")
    if max_t < 0:
        raise DomainError("max_t must not be negative")
    rng = random.Random(seed)
    walks = []
    for token in algos:
        algo = parse_algorithm(token)
        for S in _grid_sizes(algo, max_s):
            selector = Selector(algo, S)
            rows = max_t if selector.capacity is None else min(max_t, selector.capacity)
            grid = range(rows)
            draws = steady_extra if algo.kind == "steady" else 0
            extra = sorted(rng.randrange(max_t, max_t + LARGE_T_SPAN) for _ in range(draws))
            last = extra[-1] if extra else grid[-1] if grid else -1
            _refuse(algo, S, last + 1, selector.capacity, selector.reload_limit)
            # a grid is walked no further than replay
            # (len() of a range past 2**63 overflows; its stop does not)
            _refuse(algo, S, rows, None, REPLAY_CAP)
            walks.append((token, S, selector, chain(grid, extra)))
    return _walk(walks)


def _walk(walks) -> Iterator[TestVector]:
    for token, S, selector, Ts in walks:
        for T in Ts:
            selector.seek(T)
            yield TestVector(token, S, T, selector.step())


def check_vectors(vectors) -> list[str]:
    """Recompute every vector; returns one message per mismatch.

    Each distinct token is parsed once per call, and a token that does not
    parse is reported on every vector that carries it.  A token that is not
    a str is parsed on each of its vectors, never kept.
    """
    mismatches = []
    # token -> its Algorithm, or the StreamSieveError parsing it raised
    parsed = {}
    for idx, vec in enumerate(vectors):
        token = vec.algo
        keep = type(token) is str  # a list would not hash
        algo = parsed.get(token) if keep else None
        if algo is None:
            try:
                algo = parse_algorithm(token)
            except StreamSieveError as exc:
                algo = exc
            if keep:
                parsed[token] = algo
        if isinstance(algo, StreamSieveError):
            # the message names the token, cut short; do not repeat it whole
            mismatches.append(f"vector {idx} (S={vec.S} T={vec.T}): {algo}")
            continue
        try:
            got = sorted(site_selection(algo, vec.S, vec.T))
        except StreamSieveError as exc:
            mismatches.append(f"vector {idx} ({vec.algo} S={vec.S} T={vec.T}): {exc}")
            continue
        try:  # a tuple or a list of the right sites matches
            expected = list(vec.expected)
        except TypeError:  # not iterable: never matches, named as it is
            expected = _clip(vec.expected)
        if got != expected:
            mismatches.append(
                f"vector {idx} ({vec.algo} S={vec.S} T={vec.T}): expected {expected}, got {got}"
            )
    return mismatches


def write_vectors_csv(fileobj, vectors) -> int:
    """Write the header, then each vector as it comes; returns the count."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(VECTOR_FIELDS)
    count = 0
    for count, vec in enumerate(vectors, 1):
        writer.writerow(
            [vec.algo, vec.S, vec.T, ";".join(str(k) for k in vec.expected)]
        )
    return count


def read_vectors_csv(fileobj) -> list[TestVector]:
    """Read a vector file.  A VectorFormatError names the physical line that
    a bad row ends on, as csv counts them: a quoted cell may span lines."""
    reader = csv.reader(fileobj)
    vectors = []
    try:
        header = next(reader, None)
        if header is None:
            raise VectorFormatError("empty vector file")
        if tuple(header) != VECTOR_FIELDS:
            raise VectorFormatError(f"expected header {list(VECTOR_FIELDS)}, got {header!r}")
        for row in reader:
            if len(row) != len(VECTOR_FIELDS):
                raise VectorFormatError(f"line {reader.line_num}: expected 4 fields, got {row!r}")
            token, s_text, t_text, sites_text = row
            try:
                S = parse_int(s_text)
                T = parse_int(t_text)
                expected = tuple([parse_int(part) for part in sites_text.split(";") if part])
            except ValueError as exc:
                raise VectorFormatError(f"line {reader.line_num}: {exc}") from None
            vectors.append(TestVector(token, S, T, expected))
    except csv.Error as exc:
        raise VectorFormatError(f"line {reader.line_num}: {exc}") from None
    return vectors
