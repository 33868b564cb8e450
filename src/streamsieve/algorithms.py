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
(``_GreedyCurator``), and a step never scans all S items.  The curator
keeps every item but the newest in runs: stretches of consecutive
retained items that share one gap.  An interior item's gap only changes
when a neighbour is evicted, and within a run the heaviest item (the
oldest for tilted, the newest for stretched) always scores strictly
lowest, so a write scores one end of each run.  Every write then takes
one path: evict that end, append the arrival, and move the evicted item's
two neighbours and the previous newest to runs of their new gaps.  Each
move is an edit at a deque's end or in the short list of runs, so a step
costs O(runs) whatever S is.  One loop over local state takes any run of
arrivals, and a seek hands it all but the fill's first S - 1: those only
append, so a seek appends them at once.  Tilted writes every arrival.
Stretched writes rarely, and its state changes only in T between two
writes, so one scan of the runs after each write finds both the next write
time and the item it evicts; a discard costs one compare, and the loop
jumps from write to write.  Every sequential caller in the package
(ingest, reload, lookup, explode, vector
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
from collections import deque
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

    Keeps every retained ingest time but the newest in ``runs``, oldest
    first: each run is [gap, front, items], a deque ``items`` of consecutive
    retained times that all have gap n = next - prev (prev = -1 before the
    oldest), and ``front`` is items[0], kept beside it for the tilted scan.
    The newest time is ``newest``, and ``where`` maps each retained time to
    its site.  ``table()`` reads ``where``; ``times`` and ``sites`` are
    O(S) ordered reads, for ``resume`` and the tests.  step() takes the
    arrivals up to an end in one loop over local state and returns the
    last one's site (None = discard).  The fill only appends, so
    ``skip_to`` appends all of it but its last arrival, and step() takes
    that one.

    Why one end per run is exact, for any retained set.  An interior item b
    scores n / w, where n is fixed until a neighbour is evicted and the
    weight w is T - b (tilted) or b + 1 (stretched).  The items of a run
    share n and have distinct weights, so the one with the largest weight
    scores strictly lowest: the front for tilted, the back for stretched.
    No other member of the run can win or tie, so scoring that end of
    every run under the tie rule (discard first, then the smallest time)
    picks exactly what a scan of all S items picks.  Two runs may share a
    gap; each is scored.  The newest item's score and the stretched discard
    (T - newest) / (T + 1) depend on T, so they are scored directly; a
    stretched newest item, (T - prev) / (newest + 1), always scores above
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

    Why every edit is O(1) or O(runs).  An eviction changes the gaps of
    three items alone: the winner's left neighbour, its right neighbour
    (unless that is the newest) and the previous newest, which becomes
    interior and joins the last run or starts one after it.  The winner
    sits at one end of its run, so each neighbour sits at the end of a run
    next to it.  A neighbour's gap only grows, so it cannot stay among
    items of its old gap: it joins the adjacent run when that run has its
    new gap, and otherwise takes a run of its own, reusing a run the
    eviction emptied where it can, so the usual tilted step makes no new
    deque.  When the newest itself leaves, only its left neighbour's gap
    changes; that neighbour is alone in the last run and stays there
    (step() says why).  Every move is a deque ``pop``, ``popleft``,
    ``append`` or ``appendleft``, or a run's new gap, plus at most a few
    inserts or deletes in the list of runs; the scan that picks the winner
    notes the index of its run, so nothing searches the list.  A discard
    changes nothing.  A moved neighbour is never spliced with a whole run,
    so two adjacent runs can share a gap (stretched states have a few more
    runs than gap buckets); that costs a score, not exactness.  Stepped
    from 0, every tilted state checked had one run per gap bucket, gaps
    falling strictly toward the newest: at most 5 runs at S=1024 by
    T=1792, 20 at S=32 and 19 at S=64 by T=4096.  Stretched stepped from 0
    held 43 runs (42 buckets) at S=64 by T=6000, and 103 (94) at S=1024 by
    T=8000.

    Stretched discards cost one compare, and a write one scan of the runs,
    in _schedule.  ``next_write`` is a lower bound on the next arrival that
    can be written, 0 while every arrival is (tilted, and any profile in
    the fill), and raised only by _schedule.  Why it is exact.  Between
    two writes only T changes: the runs, the newest time m and every
    interior score g / (b + 1) stay fixed, while the discard score
    (T - m) / (T + 1) rises with T.  Run (g, b), b its back, beats the
    discard exactly when g * (T + 1) < (T - m) * (b + 1), i.e.
    T * (b + 1 - g) > g + m * (b + 1).  So the run with the least
    (g / (b + 1), b), the tie rule's pick, beats it first and wins there:
    _schedule keeps its index as ``winner`` and solves its inequality
    alone.  If b + 1 <= g that never holds, and next_write is _NEVER (S=4
    and S=8 get there).  Otherwise it holds exactly from
    T = floor((g + m * (b + 1)) / (b + 1 - g)) + 1 on; a tie, T equal to
    the floor, goes to the discard.  At T = m + 1 the inequality fails for
    every run, since b + 1 <= m < g * (m + 2); so the schedule is
    recomputed after each write, from the runs as the write left them, and
    always lies past it.  It holds for any retained set, so ``resume``
    computes it too.  A step at or past ``next_write`` evicts the back of
    the winner, unchanged since, without a second scan.
    """

    __slots__ = ("S", "tilted", "T", "runs", "newest", "where", "next_write", "winner")

    def __init__(self, S: int, tilted: bool):
        self.S = S
        self.tilted = tilted
        self.resume(0, [], [])

    def resume(self, T: int, times: list[int], sites: list[int]) -> None:
        """Adopt a retained set: ascending ingest times and their sites."""
        self.T = T
        self.where = dict(zip(times, sites))
        self.newest = times[-1] if times else -1
        self.runs = runs = []
        gap, prev = None, -1
        for i in range(len(times) - 1):
            b = times[i]
            if times[i + 1] - prev != gap:
                gap = times[i + 1] - prev
                items = deque()
                runs.append([gap, b, items])
            items.append(b)
            prev = b
        if self.tilted or T < self.S:
            self.next_write = 0  # every arrival from here writes
        else:
            self._schedule()

    @property
    def times(self) -> list[int]:
        """The retained ingest times, ascending, in O(S)."""
        times = [b for _, _, items in self.runs for b in items]
        if self.where:
            times.append(self.newest)
        return times

    @property
    def sites(self) -> list[int]:
        """The site of each retained time, in the order of ``times``."""
        where = self.where
        return [where[b] for b in self.times]

    def _schedule(self) -> None:
        # stretched after the fill: the next write evicts the back of the run
        # with the least (g / (b + 1), b), at the first arrival it outscores
        g, w, winner = 1, 0, -1  # 1 / 0 scores above every run
        i = 0
        for gap, _, items in self.runs:
            weight = items[-1] + 1
            x = gap * w
            y = g * weight
            if x <= y and (x < y or weight < w):
                g, w, winner = gap, weight, i
            i += 1
        self.winner = winner
        self.next_write = (g + self.newest * w) // (w - g) + 1 if w > g else _NEVER

    def skip_to(self, T: int) -> None:
        """Advance to arrival T; a T at or behind the curator is a no-op.
        The fill only appends (arrival t to site t), so all of it but its
        last arrival is taken at once; one ``step`` takes the rest."""
        fill = range(self.T, min(T, self.S - 1))
        if fill:
            self.where.update(zip(fill, fill))
            # every time but the newest is interior, at gap 2
            interior = range(max(fill.start - 1, 0), fill.stop - 1)
            if self.runs:
                self.runs[0][2].extend(interior)
            elif interior:
                self.runs.append([2, 0, deque(interior)])
            self.newest = fill.stop - 1
            self.T = fill.stop
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
        runs, where, m = self.runs, self.where, self.newest
        while T < end:
            if T < self.next_write:  # stretched, between two writes: jump
                T, site = min(self.next_write, end), None
                continue
            if T < S:  # the fill: arrival T goes to site T
                if runs:  # the previous newest is interior, at gap 2
                    runs[0][2].append(m)
                elif T:
                    items = deque()
                    items.append(m)
                    runs.append([2, m, items])
                where[T] = site = m = T
                T += 1
                if T == S and not tilted:
                    self.newest = m
                    self._schedule()
                continue
            # h is the index of the winner's run; -1 while the newest item leads
            if tilted:
                # the arrival's age weight is 0, so tilted never discards; ties
                # go to the smaller time.  A score is one float, exact in order
                # below 2**25 (class docstring); an age of 0 scores inf
                best_b = m
                best_s = (T - runs[-1][2][-1]) / (T - m) if T > m else inf
                h = -1
                i = 0
                for g, b, items in runs:
                    s = g / (T - b)
                    if s <= best_s and (s < best_s or b < best_b):
                        best_s, best_b, h = s, b, i
                    i += 1
            else:
                # T >= next_write, so _schedule's winner beats the discard
                h = self.winner
            if h < 0:
                # the newest leaves, and its left neighbour L now reaches to T.
                # L is alone in the last run and keeps it at its new gap: its
                # own left neighbour p would have won, at (m - p) / (T - p) < 1
                # had it shared L's run, or at 1 had its run had gap T - p,
                # against the newest's (T - L) / (T - m) > 1
                x = m
                runs[-1][0] += T - x
            else:
                # the winner leaves one end of its run.  Its left neighbour
                # ends runs[h - 1] and its right one starts runs[h], or is
                # the newest; both now reach further, so both change runs
                run = runs[h]
                items = run[2]
                if tilted:
                    x = items.popleft()
                    if items:
                        run[1] = items[0]
                else:
                    x = items.pop()
                if not items:
                    del runs[h]
                elif not tilted:
                    h += 1
                left, free = -1, None  # free: an emptied run at h - 1, kept for reuse
                if h:  # the left neighbour now reaches to the right one
                    run = runs[h - 1]
                    g, _, items = run
                    left = items.pop()
                    g += (runs[h][1] if h < len(runs) else m) - x
                    if items:  # older items stay in its run: a run of its own
                        items = deque()
                        items.append(left)
                        runs.insert(h, [g, left, items])
                        h += 1
                    elif h > 1 and runs[h - 2][0] == g:  # it joins the run before
                        runs[h - 2][2].append(left)
                        free = run
                    else:  # alone as it was, at its new gap
                        items.append(left)
                        run[0] = g
                if h < len(runs):  # an interior right neighbour now reaches back to left
                    run = runs[h]
                    g, right, items = run
                    items.popleft()
                    if items:
                        run[1] = items[0]
                    g += x - left
                    before = h - 2 if free else h - 1  # left's run, -1 if none
                    if before >= 0 and runs[before][0] == g:  # it joins left's run
                        runs[before][2].append(right)
                    elif not items and h + 1 < len(runs) and runs[h + 1][0] == g:
                        run = runs[h + 1]  # it joins the run after
                        run[2].appendleft(right)
                        run[1] = right
                    elif free:  # it takes the run left emptied
                        free[0] = g
                        free[1] = right
                        free[2].append(right)
                        free = None
                    elif items:  # a run of its own, before the rest of its old one
                        items = deque()
                        items.append(right)
                        runs.insert(h, [g, right, items])
                    else:  # its emptied run, at its new gap
                        items.append(right)
                        run[0] = g
                    if not items:
                        del runs[h]
                if free:
                    del runs[h - 1]
                # the previous newest is interior now, and newer than all
                run = runs[-1]
                g = T - run[2][-1]
                if run[0] == g:
                    run[2].append(m)
                else:
                    items = deque()
                    items.append(m)
                    runs.append([g, m, items])
            where[T] = site = where.pop(x)
            m = T
            T += 1
            if not tilted:
                self.newest = m
                self._schedule()
        self.T = T
        self.newest = m
        return site

    def table(self) -> list:
        """The ingest time each site holds, None where none is, in O(S)."""
        table: list = [None] * self.S
        for tbar, k in self.where.items():
            table[k] = tbar
        return table


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
