"""Site-selection algorithms for fixed-capacity stream downsampling.

A downsampling buffer holds S sites indexed 0..S-1.  Items arrive one at a
time; the arrival at step T is either written into exactly one site
(possibly overwriting an older item) or discarded on arrival.  Selection is
a pure function of (algorithm, S, T): identical streams produce identical
buffers on any platform, and the ingest time of every stored item can later
be reconstructed from (algorithm, S, T) alone, with no per-item metadata.

Three scalar retention profiles are provided:

* ``steady``    -- retained items stay evenly spaced across the stream.
* ``stretched`` -- density is thinned proportionally to depth (distance
                   from the stream origin), so old items are favoured.
* ``tilted``    -- density is thinned proportionally to age, so recent
                   items are favoured.

``hybrid`` layouts split one buffer into scalar segments; every segment
curates the full stream independently inside its own slice of sites.

The steady rule is closed form.  With s = log2(S), epoch
t = max(bit_length(T) - s, 0) and h = trailing zeros of T+1: an arrival
discards when h < t, and otherwise goes to site T mod (S+1), in O(1):
site T during epoch 0, later the site of the expired item it takes over
(``steady_assign`` shows why).

The stretched and tilted rules are greedy.  Once the identity fill is over,
each arrival scores every retained item b as (gap left by removing b) over
(weight of b), plus a discard score (tail gap) over (weight of the arrival
itself); the minimum wins.  Weights are depth+1 for stretched and age for
tilted, so the arriving item's tilted weight is zero and tilted never
discards.  Stretched scores are compared by exact integer
cross-multiplication.  A tilted score is one float quotient, whose order is
exact because its terms stay below 2**25: every path holds a tilted layout
to REPLAY_CAP.  Ties prefer discard and then the smallest candidate.
Both profiles are evaluated by stepping this rule forward from T=0
(``_GreedyCurator``), and a step never scans all S items: an interior
item's gap only changes when a neighbour is evicted, and among items
sharing a gap the heaviest one (oldest for tilted, newest for stretched)
always scores strictly lowest, so a write compares one candidate per
distinct gap.  Every write then takes one path: evict, append the arrival,
and refile the evicted item's two neighbours and the previous newest.  One
loop over local state takes any run of arrivals, and a seek hands it all
but the fill's first S - 1: those only append, so a seek appends them at
once.  Tilted writes every arrival.  Stretched writes rarely, and its state
changes only in T between two writes, so one scan of the buckets after each
write finds both the next write time and the item it evicts; a discard
costs one compare, and the loop jumps from write to write.  Every
sequential caller in the package (ingest, reload, lookup, explode, vector
generation) steps a ``Selector``, which validates (algo, S) once and owns
its curators, or a curator of its own.  Only the pointwise
``site_selection``/``*_assign``, and so ``check_vectors``, go through a
lock-guarded per-(profile, S) replay memo.

``_layout(algo, S)`` alone validates (algo, S) and decides how far it
goes: with a greedy segment, capacity 2**size - 2 for the smallest one
and limit REPLAY_CAP, as it is stepped forward to T; with none, no
capacity and limit MAX_STEADY_T, the range of the 64-bit counter other
ports keep.  A scalar layout is resolved once per (kind, S), when first
asked for, into a table of at most 57 entries (3 kinds x 19 sizes); a
hybrid is resolved once, as its ``Algorithm`` is built, and kept on it.
Every path that takes a layout to n arrivals (n = T + 1 for pointwise
selection) refuses through ``_refuse``: the limit (ReplayLimitError),
then capacity (CapacityError).  Only the replay oracle ``lookup_replay``
holds every layout to REPLAY_CAP; the kernels ``steady_assign``, ``epoch``
and ``hanoi_value`` take any T.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from math import inf

from .errors import CapacityError, ConfigurationError, DomainError, ReplayLimitError, _clip

MIN_SITE_COUNT = 4
MAX_SITE_COUNT = 1 << 20

# replay work is O(T); beyond this it stops being a sane thing to do inline
REPLAY_CAP = 1 << 22
# a stretched curator's next_write once no arrival can be written again
_NEVER = inf
# the steady closed-form lookup takes T up to this
MAX_STEADY_T = (1 << 64) - 1

SCALAR_KINDS = ("steady", "stretched", "tilted")


def validate_site_count(S: int) -> None:
    """Reject site counts that are not powers of two in [4, 2**20]."""
    # True and False fail the range check: a bool needs no clause of its own
    if not isinstance(S, int) or S < MIN_SITE_COUNT or S > MAX_SITE_COUNT or S & (S - 1):
        raise ConfigurationError(
            f"site count must be a power of two in [{MIN_SITE_COUNT}, 2**20], got {_clip(S)}"
        )


def _validate_time(T: int) -> None:
    # unlike a site count, True would pass the range check as 1
    if not isinstance(T, int) or isinstance(T, bool) or T < 0:
        raise DomainError(f"ingest counter must be a non-negative integer, got {_clip(T)}")


@dataclass(frozen=True)
class Algorithm:
    """Identifier for a site-selection rule.

    Scalar rules carry just a kind.  Hybrid layouts carry a tuple of
    (kind, size) tuple segments laid out left to right; segment sizes must
    be powers of two >= 4 and there must be at least two segments.  Nested hybrids are not
    representable on purpose.  ``total_sites`` is a hybrid's segment sum
    and None for a scalar rule.
    """

    kind: str
    segments: tuple[tuple[str, int], ...] = ()
    # not fields: a hybrid sets both once, in __post_init__
    total_sites = None
    _resolved = None

    def __post_init__(self):
        # a list would compare unequal to the parsed layout and not hash
        if not isinstance(self.segments, tuple):
            raise ConfigurationError(
                f"segments must be a tuple, got {type(self.segments).__name__}"
            )
        if self.kind in SCALAR_KINDS:
            if self.segments:
                raise ConfigurationError(f"{self.kind} takes no segments")
        elif self.kind == "hybrid":
            if len(self.segments) < 2:
                raise ConfigurationError("hybrid needs at least two segments")
            for seg in self.segments:
                if not (isinstance(seg, tuple) and len(seg) == 2):
                    raise ConfigurationError(f"bad hybrid segment {_clip(seg)}")
                sub_kind, sub_size = seg
                if sub_kind not in SCALAR_KINDS:
                    raise ConfigurationError(
                        f"hybrid segments must be scalar profiles, got {_clip(sub_kind)}"
                    )
                validate_site_count(sub_size)
            # the enclosing surface's S is the segment sum, and S itself
            # must be a legal site count; reject dead layouts up front
            total = sum(size for _, size in self.segments)
            if total & (total - 1) or total > MAX_SITE_COUNT:
                raise ConfigurationError(
                    f"hybrid segments cover {total} sites; the total must be "
                    f"a power of two <= 2**20"
                )
            object.__setattr__(self, "total_sites", total)
            object.__setattr__(self, "_resolved", _resolve(self.segments))
        else:
            raise ConfigurationError(f"unknown algorithm kind {_clip(self.kind)}")

    def __getstate__(self):
        # pickle the fields alone; loading builds the object again
        return {"kind": self.kind, "segments": self.segments}

    def __setstate__(self, state):
        self.__init__(**state)

    @property
    def is_hybrid(self) -> bool:
        return self.kind == "hybrid"

    def segment_layout(self) -> tuple[tuple[str, int, int], ...]:
        """(kind, size, offset) triples, offsets cumulative left to right."""
        return () if self._resolved is None else self._resolved[0]

    def token(self) -> str:
        """Canonical text form, e.g. ``hybrid(steady:4+tilted:4)``."""
        if not self.is_hybrid:
            return self.kind
        inner = "+".join(f"{k}:{n}" for k, n in self.segments)
        return f"hybrid({inner})"

    def __str__(self) -> str:
        return self.token()


STEADY = Algorithm("steady")
STRETCHED = Algorithm("stretched")
TILTED = Algorithm("tilted")


def hybrid(*segments: tuple[str, int]) -> Algorithm:
    """Build a hybrid layout from (kind, size) pairs."""
    return Algorithm("hybrid", tuple(segments))


def parse_int(text: str) -> int:
    """An integer in ASCII digits with at most one leading '-', as ports in
    other languages read CSV cells and hybrid sizes (``int`` also takes
    '+4', '1_0', ' 4 ' and other scripts' digits); else ValueError."""
    try:
        if str.isascii(text) and text.removeprefix("-").isdigit():
            return int(text)
    except (TypeError, ValueError):  # not a string; past the digit limit
        pass
    raise ValueError(f"expected an integer in ASCII digits, got {_clip(text)}")


def parse_algorithm(text: str) -> Algorithm:
    """Parse the canonical token grammar.

    Accepts ``steady``, ``stretched``, ``tilted``, or
    ``hybrid(kind:size+kind:size...)``.  The grammar is comma-free so the
    tokens embed in CSV cells without quoting.  A size is read by
    ``parse_int``, as the CSV cells around the token are.
    """
    if not isinstance(text, str):
        raise ConfigurationError(f"algorithm token must be a string, got {_clip(text)}")
    if text in SCALAR_KINDS:
        return Algorithm(text)
    if text.startswith("hybrid(") and text.endswith(")"):
        inner = text[len("hybrid(") : -1]
        segments = []
        for part in inner.split("+"):
            kind, _, size_text = part.partition(":")
            try:
                segments.append((kind, parse_int(size_text)))
            except ValueError:
                raise ConfigurationError(
                    f"bad hybrid segment {_clip(part)} in {_clip(text)}"
                ) from None
        return Algorithm("hybrid", tuple(segments))
    raise ConfigurationError(f"unknown algorithm token {_clip(text)}")


# ---------------------------------------------------------------------------
# bit kernels


def hanoi_value(T: int) -> int:
    """Number of trailing set bits of T, i.e. trailing zeros of T+1.

    The sequence 0,1,0,2,0,1,0,3,... rules which arrivals are storable in
    each steady epoch.
    """
    _validate_time(T)
    u = T + 1
    return (u & -u).bit_length() - 1


def epoch(S: int, T: int) -> int:
    """Thinning epoch of arrival T for a buffer of S sites.

    max(bit_length(T) - log2(S), 0); epoch 0 is the identity-fill phase.
    """
    validate_site_count(S)
    _validate_time(T)
    t = T.bit_length() - (S.bit_length() - 1)
    return t if t > 0 else 0


# ---------------------------------------------------------------------------
# layout, capacity and limit


def _resolve(segments) -> tuple[tuple[tuple[str, int, int], ...], int | None, int]:
    # the one place the capacity and limit rules are written: a greedy
    # segment supports 2**size - 2 ingests and is stepped forward to T; an
    # all-steady layout is closed form over the 64-bit counter
    laid_out = []
    offset = 0
    smallest = None
    for kind, size in segments:
        laid_out.append((kind, size, offset))
        offset += size
        if kind != "steady" and (smallest is None or size < smallest):
            smallest = size
    if smallest is None:
        return tuple(laid_out), None, MAX_STEADY_T
    return tuple(laid_out), (1 << smallest) - 2, REPLAY_CAP


# (kind, S) -> a scalar rule's resolved layout, filled as layouts are first
# asked for: at most 3 kinds x 19 sizes = 57 entries.  A hybrid keeps its
# own on its Algorithm, so no number of hybrids can grow this.  Two threads
# racing on one key resolve it twice to equal values, so it needs no lock.
_scalar_layouts: dict[tuple[str, int], tuple] = {}


def _layout(algo: Algorithm, S: int) -> tuple[tuple[tuple[str, int, int], ...], int | None, int]:
    """Validate (algo, S) and resolve it: (kind, size, offset) segments,
    capacity (None if unbounded) and limit, the most arrivals it goes to.

    A scalar rule is one segment covering all S sites, resolved once per
    (kind, S) and then looked up.  A hybrid is resolved once, as
    ``Algorithm`` builds it, and then handed back.
    """
    if not isinstance(algo, Algorithm):
        raise ConfigurationError(f"expected an Algorithm, got {_clip(algo)}")
    if algo._resolved is not None:
        validate_site_count(S)
        if algo.total_sites != S:
            raise ConfigurationError(
                f"hybrid segments cover {algo.total_sites} sites but S={S}"
            )
        return algo._resolved
    # only an exact int is looked up: 4.0 and True hash like 4 but are not
    # site counts, and an int subclass is resolved as given
    exact = type(S) is int
    if exact:
        layout = _scalar_layouts.get((algo.kind, S))
        if layout is not None:
            return layout
    validate_site_count(S)
    layout = _resolve(((algo.kind, S),))
    if exact:
        _scalar_layouts[algo.kind, S] = layout
    return layout


def stream_capacity(algo: Algorithm, S: int) -> int | None:
    """Maximum number of ingests the rule supports, or None if unbounded.

    Steady is unbounded.  Stretched and tilted are defined up to 2**S - 2
    items; a hybrid is bounded by its tightest segment.
    """
    return _layout(algo, S)[1]


def has_ingest_capacity(algo: Algorithm, S: int, T: int) -> bool:
    """True when ingesting item T is within the rule's supported range."""
    capacity = _layout(algo, S)[1]
    _validate_time(T)
    return capacity is None or T + 1 <= capacity


def _refuse(algo: Algorithm, S: int, count: int, capacity: int | None, limit: int | None) -> None:
    # the one check on an arrival count: the limit, then capacity
    if limit is not None and count > limit:
        raise ReplayLimitError(
            f"{algo} with S={S} is capped at {limit} arrivals, asked for {_clip(count)}"
        )
    if capacity is not None and count > capacity:
        raise CapacityError(
            f"{algo} with S={S} supports at most {capacity} ingests, asked for {_clip(count)}"
        )


# ---------------------------------------------------------------------------
# steady


def steady_assign(S: int, T: int) -> int | None:
    """Site for arrival T under the steady rule, or None to discard.

    Epoch 0 fills site T directly.  Epoch t >= 1 stores only arrivals whose
    hanoi value reaches t; the i-th of them, T + 1 = (S/2 + 1 + i) * 2**t
    with 0 <= i < S/2, takes over the site of the expired item of hanoi
    value t-1 and matching incidence, X = (2i+1) * 2**(t-1) - 1.  That is
    X = T - (S+1) * 2**(t-1), an item of an earlier epoch.  So, by
    induction on the epoch, a stored arrival sits at a site congruent to T
    mod S+1, and sites lie in [0, S): the site is T mod (S+1).
    """
    validate_site_count(S)
    _validate_time(T)
    return _steady_site(S, T)


def _steady_site(S: int, T: int) -> int | None:
    t = T.bit_length() - (S.bit_length() - 1)
    if t > 0 and (T + 1) & ((1 << t) - 1):
        return None  # hanoi value below epoch: discard
    return T % (S + 1)


# ---------------------------------------------------------------------------
# stretched / tilted (greedy replay)


class _GreedyCurator:
    """Incremental replay state for the weighted-eviction profiles.

    Keeps the retained ingest times sorted alongside the site each one
    occupies, and files every item but the newest in a gap bucket:
    gap -> sorted times, where an item's gap is n = next - prev (prev = -1
    before the oldest).  step() takes the arrivals up to an end, the
    current one alone by default, in one loop over local state, and
    returns the last one's site (None = discard).  The fill only appends,
    so ``skip_to`` appends all of it but its last arrival, and step()
    takes that one and files the full buffer in one slice.

    Why one candidate per bucket is exact.  An interior item b scores n / w,
    where n is fixed until a neighbour is evicted and the weight w is T - b
    (tilted) or b + 1 (stretched).  Items with the same n have distinct
    weights, so the one with the largest weight scores strictly lowest: the
    oldest for tilted, the newest for stretched.  No other member of the
    bucket can win or tie, so comparing one extreme per bucket under the
    tie rule (discard first, then the smallest time) picks exactly what a
    scan of all S items picks.  The newest item's score and the stretched
    discard (T - newest) / (T + 1) depend on T, so they are scored directly;
    a stretched newest item, (T - prev) / (newest + 1), always scores above
    that discard and is skipped.  Stretched compares by exact integer
    cross-multiplication.

    Why one float per tilted candidate is exact.  Tilted scores each
    candidate g / (T - b) as one float (inf at an age of 0, which only a
    resumed state can hold) and keeps the least by <, the smaller time on
    ==.  Its terms are at most T + 1 <= REPLAY_CAP + 1, below 2**25, since
    every path holds a tilted layout to REPLAY_CAP.  CPython divides ints
    below 2**53 with correct rounding, so each quotient is off by at most
    2**-53 of itself.  Two distinct fractions g1 / d1 < g2 / d2 differ by
    at least 1 / (d1 * d2), which is 1 / (d1 * g2) > 2**-50 of the larger:
    their quotients keep their order.  Equal fractions round to the same
    double, so the tie rule sees the ties the integers see.

    An eviction takes one path: the winner leaves its bucket (the newest is
    in none), the lists drop it and append the arrival, and the three items
    whose gaps changed are refiled: the left neighbour, an interior right
    neighbour and the previous newest, now interior and the last of its
    bucket.  A discard changes no bucket.  Stepped from 0, every tilted
    refile checked left its old bucket at the front and joined its new one
    at the back, which _rebucket does without a bisect; nothing rests on
    it, since resumed and stretched states take the bisects.  A step
    therefore costs one comparison per distinct gap (about 2 more per
    doubling of T/S) plus O(log S) bucket edits and one list deletion, not
    an O(S) scan.

    Stretched discards cost one compare, and a write one scan of the
    buckets, in _schedule.  ``next_write`` is a lower bound on the next
    arrival that can be written, 0 while every arrival is (tilted, and any
    profile in the fill), and raised only by _schedule.  Why it is exact.
    Between two writes only T changes: the buckets, the newest time m and
    every interior score g / (b + 1) stay fixed, while the discard score
    (T - m) / (T + 1) rises with T.  Bucket (g, b), b its newest member,
    beats the discard exactly when g * (T + 1) < (T - m) * (b + 1), i.e.
    T * (b + 1 - g) > g + m * (b + 1).  So the bucket with the least
    (g / (b + 1), b), the tie rule's pick, beats it first and wins there:
    _schedule keeps it as ``winner`` and solves its inequality alone.  If
    b + 1 <= g that never holds, and next_write is _NEVER (S=4 and S=8 get
    there).  Otherwise it holds exactly from
    T = floor((g + m * (b + 1)) / (b + 1 - g)) + 1 on; a tie, T equal to
    the floor, goes to the discard.  At T = m + 1 the inequality fails for
    every bucket, since b + 1 <= m < g * (m + 2); so the schedule is
    recomputed after each write, from the buckets as the write left them,
    and always lies past it.  It holds for any retained set, so ``resume``
    computes it too.  A step at or past ``next_write`` evicts the winner,
    unchanged since, without a second scan.
    """

    __slots__ = ("S", "tilted", "T", "times", "sites", "buckets", "next_write", "winner")

    def __init__(self, S: int, tilted: bool):
        self.S = S
        self.tilted = tilted
        self.resume(0, [], [])

    def resume(self, T: int, times: list[int], sites: list[int]) -> None:
        """Adopt a retained set: ascending ingest times and their sites."""
        self.T = T
        self.times = times
        self.sites = sites
        self.buckets = buckets = {}
        prev = -1
        for i in range(len(times) - 1):
            # ascending times, so every bucket comes out sorted
            buckets.setdefault(times[i + 1] - prev, []).append(times[i])
            prev = times[i]
        if self.tilted or T < self.S:
            self.next_write = 0  # every arrival from here writes
        else:
            self._schedule()

    def _schedule(self) -> None:
        # stretched after the fill: the next write evicts from the bucket
        # with the least (g / (b + 1), b), at the first arrival it outscores
        g, w, winner = 1, 0, None  # 1 / 0 scores above every bucket
        for gap, bucket in self.buckets.items():
            weight = bucket[-1] + 1
            x = gap * w
            y = g * weight
            if x <= y and (x < y or weight < w):
                g, w, winner = gap, weight, bucket
        self.winner = g, w - 1, winner
        self.next_write = (g + self.times[-1] * w) // (w - g) + 1 if w > g else _NEVER

    def skip_to(self, T: int) -> None:
        """Advance to arrival T; a T at or behind the curator is a no-op.
        The fill only appends (arrival t to site t), so all of it but its
        last arrival is taken at once; one ``step`` takes the rest."""
        fill = range(self.T, min(T, self.S - 1))
        self.times += fill
        self.sites += fill
        self.T += len(fill)
        if self.T < T:
            self.step(T)

    def step(self, end: int | None = None) -> int | None:
        """Take arrivals T .. end - 1 (T alone by default); the last one's site."""
        T = self.T
        if end is None:
            if T < self.next_write:
                self.T = T + 1
                return None  # stretched, between two writes
            end = T + 1
        S, tilted = self.S, self.tilted
        times, sites, buckets = self.times, self.sites, self.buckets
        last = len(times) - 1
        while T < end:
            if T < self.next_write:  # stretched, between two writes: jump
                T, site = min(self.next_write, end), None
                continue
            if T < S:
                times.append(T)
                sites.append(T)
                site, T, last = T, T + 1, last + 1
                if T == S:  # full: times are 0..S-1, so every interior gap is 2
                    self.buckets = buckets = {2: times[:-1]}
                    if not tilted:
                        self._schedule()
                continue
            # best is the winner's bucket; None while the newest item leads
            if tilted:
                # the arrival's age weight is 0, so tilted never discards; ties
                # go to the smaller time.  A score is one float, exact in order
                # below 2**25 (class docstring); an age of 0 scores inf
                best_b = times[last]
                best_s = (T - times[last - 1]) / (T - best_b) if T > best_b else inf
                best_n = best = None
                for g, bucket in buckets.items():
                    b = bucket[0]
                    s = g / (T - b)
                    if s <= best_s and (s < best_s or b < best_b):
                        best_s, best_n, best_b, best = s, g, b, bucket
            else:
                # T >= next_write, so _schedule's winner beats the discard
                best_n, best_b, best = self.winner
            idx = last if best is None else bisect_left(times, best_b)
            if idx < last:  # the winner leaves its bucket; the newest is in none
                del best[0 if tilted else -1]
                if not best:
                    del buckets[best_n]
            site = sites.pop(idx)
            del times[idx]
            times.append(T)
            sites.append(site)
            # refile, at their new indices, the three items whose gaps changed
            prev = times[idx - 1] if idx else -1
            if idx:  # the left neighbour now reaches to the right one, or to T
                pp = times[idx - 2] if idx > 1 else -1
                _rebucket(buckets, prev, best_b - pp, times[idx] - pp)
            if idx + 1 < last:  # an interior right neighbour now reaches back to prev
                nn = times[idx + 1]
                _rebucket(buckets, times[idx], nn - best_b, nn - prev)
            if idx < last:  # the previous newest is interior now, and newer than all
                buckets.setdefault(T - times[last - 2], []).append(times[last - 1])
            T += 1
            if not tilted:
                self._schedule()
        self.T = T
        return site


def _rebucket(buckets: dict[int, list[int]], b: int, old: int, new: int) -> None:
    # move interior time b from bucket old to bucket new, in time order; the
    # front-out, back-in refiles seen in tilted curators take no bisect
    bucket = buckets[old]
    if len(bucket) == 1:
        del buckets[old]
    else:
        del bucket[0 if bucket[0] == b else bisect_left(bucket, b)]
    bucket = buckets.get(new)
    if bucket is None:
        buckets[new] = [b]
    elif bucket[-1] < b:
        bucket.append(b)
    else:
        insort(bucket, b)


_memo_lock = threading.Lock()
# (kind, S) -> (curator, selections so far; -1 = discard)
_replay_memos: dict[tuple[str, int], tuple[_GreedyCurator, array]] = {}


def _clear_replay_memos() -> None:
    # test hook; never needed for correctness
    with _memo_lock:
        _replay_memos.clear()


def _greedy_selection(kind: str, S: int, T: int) -> int | None:
    # site_selection has refused T past capacity and REPLAY_CAP
    key = (kind, S)
    with _memo_lock:
        memo = _replay_memos.get(key)
        if memo is None:
            memo = _replay_memos[key] = (_GreedyCurator(S, kind == "tilted"), array("i"))
        curator, selections = memo
        if len(selections) <= T:
            step = curator.step
            append = selections.append
            for _ in range(T + 1 - len(selections)):
                site = step()
                append(-1 if site is None else site)
        site = selections[T]
    return None if site < 0 else site


def stretched_assign(S: int, T: int) -> int | None:
    """Site for arrival T under the stretched rule, or None to discard."""
    return next(iter(site_selection(STRETCHED, S, T)), None)


def tilted_assign(S: int, T: int) -> int | None:
    """Site for arrival T under the tilted rule; never None within capacity."""
    return next(iter(site_selection(TILTED, S, T)), None)


# ---------------------------------------------------------------------------
# hybrid and the uniform dispatcher


def hybrid_assign(algo: Algorithm, S: int, T: int) -> frozenset[int]:
    """Union of per-segment selections, offset into the shared buffer.

    Every segment sees the full stream; an arrival may be stored by several
    segments at once, each inside its own slice of sites.
    """
    _layout(algo, S)
    if not algo.is_hybrid:
        raise ConfigurationError(f"hybrid_assign needs a hybrid layout, got {algo}")
    return site_selection(algo, S, T)


def site_selection(algo: Algorithm, S: int, T: int) -> frozenset[int]:
    """Uniform set-valued form of every rule (empty set = discard).

    The T + 1 arrivals up to T are refused past ``_layout``'s bounds.
    """
    segments, capacity, limit = _layout(algo, S)
    _validate_time(T)
    _refuse(algo, S, T + 1, capacity, limit)
    picked = []
    for kind, size, offset in segments:
        site = _steady_site(size, T) if kind == "steady" else _greedy_selection(kind, size, T)
        if site is not None:
            picked.append(offset + site)
    return frozenset(picked)


class Selector:
    """Sequential selection for one (algo, S), validated once.

    Owns one curator per greedy segment (a scalar rule is one segment), so
    it never touches the memo.  step() returns the selection of arrival T
    and advances T; callers check capacity up front.  ``capacity`` and
    ``reload_limit`` are ``_layout``'s: the supported ingest count (None
    if unbounded) and the largest T the layout goes to.
    """

    __slots__ = ("T", "capacity", "reload_limit", "_parts")

    def __init__(self, algo: Algorithm, S: int):
        segments, self.capacity, self.reload_limit = _layout(algo, S)
        self.T = 0
        self._parts = [
            (offset, size, None if kind == "steady" else _GreedyCurator(size, kind == "tilted"))
            for kind, size, offset in segments
        ]

    def step(self) -> tuple[int, ...]:
        T = self.T
        self.T = T + 1
        picked = []
        for offset, size, curator in self._parts:
            site = _steady_site(size, T) if curator is None else curator.step()
            if site is not None:
                picked.append(offset + site)
        return tuple(picked)

    def seek(self, T: int) -> None:
        """Advance to arrival T: steady parts need nothing, and each curator
        skips ahead from where it is.  Seeks chain, so one selector reaches
        ascending Ts for the cost of the deepest; T below the current T
        raises DomainError.  Callers refuse T past the reload limit."""
        if T < self.T:
            raise DomainError(f"a selector at T={self.T} cannot seek back to T={_clip(T)}")
        self.T = T
        for _, _, curator in self._parts:
            if curator is not None:
                curator.skip_to(T)


def selection_stream(algo: Algorithm, S: int, count: int):
    """Yield the selection for each T in [0, count) as a tuple of sites.

    One incremental pass through a private Selector, so greedy profiles
    never re-derive a step.  The count is refused up front, past the
    layout's limit and then its capacity.
    """
    selector = Selector(algo, S)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise DomainError(f"count must be a non-negative integer, got {_clip(count)}")
    _refuse(algo, S, count, selector.capacity, selector.reload_limit)
    step = selector.step
    return (step() for _ in range(count))
