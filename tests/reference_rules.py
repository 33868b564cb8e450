"""Independent re-implementations used as test oracles.

Deliberately written with different machinery than the package: the greedy
scorer uses fractions.Fraction instead of cross-multiplication, a dict
buffer instead of parallel sorted lists, and recomputes everything from
scratch per step.  Slow but obviously faithful to the stated rules.

``ScanCurator`` is the package's former O(S)-per-step greedy curator, kept
verbatim as the step-by-step oracle for the gap-bucket curator that
replaced it.  ``epoch_walk_site`` is the package's former steady kernel,
which follows a stored arrival down one epoch per pass to the epoch-0 site
it inherits, kept verbatim as the oracle for the closed form T mod (S+1).
``epoch_walk_lookup`` is the package's former steady lookup, which walks
every epoch and resolves each arrival with ``epoch_walk_site``, kept
verbatim as the oracle for the lookup that visits only the arrivals that
can still be retained.  Neither uses the package's steady kernel.
"""

from fractions import Fraction

from streamsieve.algorithms import MAX_STEADY_T, epoch, validate_site_count


def greedy_selections(kind: str, S: int, count: int) -> list:
    """Selection per arrival for the stretched/tilted eviction rules."""
    assert kind in ("stretched", "tilted")
    buf = {}  # site -> ingest time
    out = []
    for T in range(count):
        if T < S:
            buf[T] = T
            out.append(T)
            continue
        times = sorted(buf.values())
        site_of = {t: k for k, t in buf.items()}
        best = None  # None = discard the arrival
        if kind == "stretched":
            best_score = Fraction(T - times[-1], T + 1)
        else:
            best_score = None  # the arrival's age weight is 0: discard = +inf
        for j, b in enumerate(times):
            a = times[j - 1] if j else -1
            c = times[j + 1] if j + 1 < len(times) else T
            weight = b + 1 if kind == "stretched" else T - b
            score = Fraction(c - a, weight)
            if best_score is None or score < best_score:
                best, best_score = b, score
        if best is None:
            out.append(None)
        else:
            k = site_of[best]
            buf[k] = T
            out.append(k)
    return out


def greedy_retained(kind: str, S: int, count: int) -> list:
    """Sorted ingest times resident after `count` arrivals."""
    buf = {}
    for T, k in enumerate(greedy_selections(kind, S, count)):
        if k is not None:
            buf[k] = T
    return sorted(buf.values())


def trailing_ones(T: int) -> int:
    """Hanoi value via string inspection, nothing shared with the package."""
    bits = bin(T)[2:]
    return len(bits) - len(bits.rstrip("1")) if T else 0


def replay_last_writers(selections) -> dict:
    """site -> last ingest time, from a selection sequence."""
    out = {}
    for T, sel in enumerate(selections):
        if sel is None:
            continue
        for k in sel if isinstance(sel, (tuple, list, set, frozenset)) else (sel,):
            out[k] = T
    return out


class ScanCurator:
    """Incremental replay state for the weighted-eviction profiles.

    Keeps the retained ingest times sorted alongside the site each one
    occupies.  step() scores the current arrival, applies the outcome, and
    returns the selected site (None = discard).  O(S) per step.
    """

    __slots__ = ("S", "tilted", "T", "times", "sites")

    def __init__(self, S: int, tilted: bool):
        self.S = S
        self.tilted = tilted
        self.T = 0
        self.times: list[int] = []
        self.sites: list[int] = []

    def step(self) -> int | None:
        T = self.T
        if T < self.S:
            self.times.append(T)
            self.sites.append(T)
            self.T = T + 1
            return T
        times = self.times
        last = len(times) - 1
        tilted = self.tilted
        if tilted:
            best_n, best_d = 1, 0  # the arrival's age weight is 0: discard = +inf
        else:
            best_n, best_d = T - times[last], T + 1
        best_idx = -1
        for idx in range(last + 1):
            b = times[idx]
            n = (times[idx + 1] if idx < last else T) - (times[idx - 1] if idx else -1)
            d = (T - b) if tilted else (b + 1)
            # exact n/d < best_n/best_d; candidate d >= 1 always, best_d == 0
            # only while the best is the infinite tilted discard score
            if best_d == 0 or n * best_d < best_n * d:
                best_n, best_d, best_idx = n, d, idx
        self.T = T + 1
        if best_idx < 0:
            return None
        site = self.sites.pop(best_idx)
        times.pop(best_idx)
        times.append(T)
        self.sites.append(site)
        return site


def epoch_walk_site(S: int, T: int) -> int | None:
    """Steady site for arrival T, or None to discard, by walking epochs."""
    s = S.bit_length() - 1
    t = T.bit_length() - s
    if t <= 0:
        return T
    u = T + 1
    if u & ((1 << t) - 1):
        return None  # hanoi value below epoch: discard
    half = S >> 1
    while t > 0:
        i = (u >> t) - half - 1
        u = (2 * i + 1) << (t - 1)  # successor of the expired item
        t = (u - 1).bit_length() - s
    return u - 1


def epoch_walk_lookup(S: int, T: int) -> list:
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
            entries[epoch_walk_site(S, Tp)] = Tp
    return entries
