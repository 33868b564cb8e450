"""Check the frozen selection digests of the greedy curator at S=2**16.

For tilted and for stretched at S=2**16, a curator fills the buffer and then
takes STEPS more arrivals.  A digest is the sha256 of one line per arrival
past the fill, its ``expected_sites`` cell (the site, or empty for a
discard) followed by '\\n', as in tests/test_digests.py.  Each profile runs
three times, and every run must give its frozen digest: straight through;
with the second half taken by a fresh curator that ``resume``s from the
first one's retained set at the half-way arrival; and "sought", with the
second half taken by a fresh curator that ``skip_to``s the half-way arrival
(the fill at once, then stretched jumps from write to write).

The digests were computed from the curator whose steps cost O(S) pointer
moves; a faster curator must reproduce them.  They are too slow for the
test suite (the tilted runs take several seconds).  A digest changes only
with a CHANGES.md entry that says why.  Needs the package importable:

    python scripts/large_s_digests.py
"""

from __future__ import annotations

import hashlib
import sys
import time

from streamsieve.algorithms import _GreedyCurator

S = 1 << 16
STEPS = 10**5
FROZEN = {
    "stretched": "750506108e5cc31bc0ce913f87515553a4f922c5d7257d6984ab7469e8747f33",
    "tilted": "428ac16a81b05a389554a91045fb3ac2b91ab3426e86f83f8dae30dbf3a420e4",
}


def _digest(sites) -> str:
    return hashlib.sha256(
        "".join("\n" if site is None else f"{site}\n" for site in sites).encode()
    ).hexdigest()


def _runs(kind: str) -> tuple[list, list, list]:
    # the post-fill selections of a straight run, a resumed one and a sought one
    tilted = kind == "tilted"
    straight = _GreedyCurator(S, tilted)
    for _ in range(S):
        straight.step()
    head = [straight.step() for _ in range(STEPS // 2)]
    resumed = _GreedyCurator(S, tilted)
    resumed.resume(straight.T, list(straight.times), list(straight.sites))
    sought = _GreedyCurator(S, tilted)
    sought.skip_to(S + STEPS // 2)
    tail = STEPS - len(head)
    return (
        head + [straight.step() for _ in range(tail)],
        head + [resumed.step() for _ in range(tail)],
        head + [sought.step() for _ in range(tail)],
    )


def main() -> int:
    failed = 0
    for kind, frozen in FROZEN.items():
        start = time.perf_counter()
        runs = _runs(kind)
        seconds = time.perf_counter() - start
        for name, sites in zip(("straight", "resumed", "sought"), runs):
            digest = _digest(sites)
            ok = digest == frozen
            failed += not ok
            print(f"{kind} S={S} {name}: {digest} {'ok' if ok else 'MISMATCH'}")
        print(f"{kind}: {seconds:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
