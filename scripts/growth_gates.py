"""Check that the calls claimed linear in S grow linearly, as a ratio of times.

A wall-clock budget moves with the speed of the box; a ratio taken in one
process does not.  Each gate times one call at S=2**12 and at S=2**16, 16
times the size, interleaved, best of 9.  The small size is timed over 16
calls, so both samples handle as many slots, and the ratio is that of one
call to one call.  A linear call reads about 16x and a quadratic one 256x;
a gate fails above 64x, halfway between the two on a log scale.  The
script prints each gate's times and ratio, and exits 1 when any gate fails.

The gates: pack and unpack at 1, 8 and 64 bits; ``Surface.to_hex`` at the
same widths, from the typed slot array a reload leaves;
``lookup_steady_fast`` at T=2**64-1; and one tilted greedy step past the
fill, with both curators stepped to the same T=2**17 first (about 3 s on a
2-vCPU box), whose list edits are O(S).

The package need only be importable, as from a checkout:

    PYTHONPATH=src python scripts/growth_gates.py
"""

from __future__ import annotations

import random
import sys
import time

from streamsieve import STEADY, Surface, lookup_steady_fast, pack_slots_hex, unpack_slots_hex
from streamsieve.algorithms import _GreedyCurator

SMALL, LARGE = 2**12, 2**16
REPEATS = 9
LIMIT = 64


def _slots(S: int, value_bits: int) -> list[int]:
    rng = random.Random(S)
    return [rng.getrandbits(value_bits) for _ in range(S)]


def _pack(value_bits: int):
    def make(S: int):
        slots = _slots(S, value_bits)
        return lambda: pack_slots_hex(slots, value_bits)
    return make


def _unpack(value_bits: int):
    def make(S: int):
        text = pack_slots_hex(_slots(S, value_bits), value_bits)
        return lambda: unpack_slots_hex(text, S, value_bits)
    return make


def _to_hex(value_bits: int):
    def make(S: int):
        text = pack_slots_hex(_slots(S, value_bits), value_bits)
        return Surface.from_hex(STEADY, S, S, value_bits, text).to_hex
    return make


def _tilted_step(S: int):
    # each call is one more arrival; the 153 timed barely move T past 2**17
    curator = _GreedyCurator(S, True)
    curator.skip_to(2 * LARGE)
    return curator.step


# (the call and its width, a maker that takes S and returns the call on
# fixed inputs of that size)
GATES = [
    *((f"pack_slots_hex {bits}-bit", _pack(bits)) for bits in (1, 8, 64)),
    *((f"unpack_slots_hex {bits}-bit", _unpack(bits)) for bits in (1, 8, 64)),
    *((f"typed to_hex {bits}-bit", _to_hex(bits)) for bits in (1, 8, 64)),
    ("lookup_steady_fast T=2**64-1", lambda S: lambda: lookup_steady_fast(S, 2**64 - 1)),
    ("tilted step at T=2**17", _tilted_step),
]


def _best_of(small, large) -> tuple[float, float]:
    # interleaved, so a slow spell of the box falls on both sizes
    calls = LARGE // SMALL
    best_small = best_large = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            small()
        best_small = min(best_small, (time.perf_counter() - start) / calls)
        start = time.perf_counter()
        large()
        best_large = min(best_large, time.perf_counter() - start)
    return best_small, best_large


def main() -> int:
    failed = 0
    for name, make in GATES:
        small, large = _best_of(make(SMALL), make(LARGE))
        ratio = large / small
        failed += ratio > LIMIT
        verdict = "ok" if ratio <= LIMIT else "FAILED"
        print(f"{name}: S=2**12 {small * 1e3:.3f} ms, S=2**16 {large * 1e3:.3f} ms, "
              f"{ratio:.1f}x of at most {LIMIT}x, {verdict}", flush=True)
    print(f"{len(GATES) - failed} of {len(GATES)} gates within {LIMIT}x")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
