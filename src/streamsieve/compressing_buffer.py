"""Compressing circular buffer: periodic decimation instead of site selection.

The contrast case to the fixed-slot surfaces.  A CompressingBuffer keeps
every m-th stream index; when its n slots fill up it compresses in place,
dropping every other retained item (keeping indices divisible by 2m) and
doubling m.  Compression relocates survivors to the front of the store,
which is exactly what the surface algorithms are designed to avoid, but in
exchange the retained set is always the perfectly regular
{0, m, 2m, ...} up to the newest index.

After the first fill, occupancy stays in (n/2, n] and the largest gap
between retained indices is at most 2m <= 4T/n.
"""

from __future__ import annotations

from .errors import ConfigurationError, SequenceError, _clip


class CompressingBuffer:
    """Bounded store over a dense index stream 0, 1, 2, ...

    ingest() must be fed every index in order; most are skipped cheaply
    once the sampling interval has grown.
    """

    __slots__ = ("capacity", "interval", "items", "_next")

    def __init__(self, capacity: int):
        if not isinstance(capacity, int) or capacity < 2 or capacity % 2:
            raise ConfigurationError(
                f"capacity must be an even integer >= 2, got {_clip(capacity)}"
            )
        self.capacity = capacity
        self.interval = 1
        self.items: list[tuple[int, object]] = []
        self._next = 0

    def ingest(self, T: int, value) -> bool:
        """Offer index T with its value; returns True when stored.

        Indices must arrive densely in order (0, 1, 2, ...) as ints; anything
        else, such as 0.0 or False, raises SequenceError.
        """
        if type(T) is not int or T != self._next:
            raise SequenceError(f"expected index {self._next}, got {_clip(T)}")
        self._next += 1
        m = self.interval
        if T % m:
            return False
        if len(self.items) == self.capacity:
            # a full buffer holds 0, m, ..., (n - 1)m with n even, so T = nm
            # is a multiple of 2m: keep every other item and double m
            self.items = self.items[::2]
            self.interval = 2 * m
        self.items.append((T, value))
        return True

    def retained(self) -> list[int]:
        """Stored stream indices, ascending."""
        return [index for index, _ in self.items]

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return (
            f"CompressingBuffer(capacity={self.capacity}, interval={self.interval}, "
            f"held={len(self.items)})"
        )
