"""Fixed-size working buffer plus its hex interchange format.

A Surface is the live object a producer holds: S slots of uniform width
and an ingest counter T.  Ingest never relocates stored values; each
arrival is either written into the sites chosen by the configured algorithm
or dropped.  Because site selection is pure in (algorithm, S, T), a dumped
surface needs no per-item metadata: the hex blob plus T is enough for any
consumer to recover every item's ingest time.

Hex layout: site 0 occupies the most significant bits, each item value is
big-endian inside its field, and the digest is lowercase with exactly
S * value_bits / 4 digits.  T travels separately.
"""

from __future__ import annotations

import string
import sys
from array import array
from contextlib import suppress

from .algorithms import Algorithm, Selector, _layout, _refuse, _validate_time, has_ingest_capacity
from .errors import ConfigurationError, DomainError, HexFormatError, _clip

VALID_VALUE_BITS = (1, 8, 16, 32, 64)

_HEX_BYTES = string.hexdigits.encode("ascii")
# the array typecode whose items are exactly each width, one byte a slot at
# 1 bit; C names no 4-byte type, so 32 bits takes whichever code is 4 bytes
_TYPECODES = {
    1: "B", 8: "B", 16: "H", 32: next(c for c in "IL" if array(c).itemsize == 4), 64: "Q",
}
# an array holds native byte order; the digest is big-endian
_SWAP = sys.byteorder == "little"
# ASCII "0"/"1" <-> 0/1, for a 1-bit dump read or written as a bit string;
# a packed byte of 2-255 becomes "x", which int(..., 2) refuses
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = b"01".ljust(256, b"x")


def validate_value_bits(value_bits: int) -> None:
    # 8.0 and True compare equal to legal widths, but are not widths
    if type(value_bits) is not int or value_bits not in VALID_VALUE_BITS:
        raise ConfigurationError(
            f"item width must be one of {VALID_VALUE_BITS}, got {_clip(value_bits)}"
        )


def hex_digest_length(S: int, value_bits: int) -> int:
    return S * value_bits // 4


def _check_bit_slots(count: int, value_bits: int) -> None:
    # a hex digit holds 4 one-bit slots; any other count has no digest
    if value_bits == 1 and count % 4:
        raise ConfigurationError(f"1-bit slots come in fours, got {_clip(count)}")


def pack_slots_hex(slots, value_bits: int) -> str:
    """Pack slot values into the canonical lowercase hex digest, linear in S.

    ``slots`` is any sequence of ints; an ``array`` of the width's typecode,
    as ``Surface.slots`` is, packs without a scan.  Raises DomainError,
    naming the first such slot, when a value is not of type int (a bool is
    not), is negative or is wider than ``value_bits``: what
    ``Surface.ingest`` refuses.  At 1 bit the slot count must be a multiple
    of 4 (ConfigurationError).  No slots pack to the empty digest.
    """
    validate_value_bits(value_bits)
    _check_bit_slots(len(slots), value_bits)
    if not slots:
        return ""
    code = _TYPECODES[value_bits]
    # a typed array holds only values of its width, but 'B' takes 2-255 at 1 bit.
    # array() takes a bool or an int subclass, so anything else is type-scanned
    # first.  A 32-bit pack of S=1024 takes about 4 us from a typed array and
    # 37 us from a list (2 vCPUs, Python 3.11)
    typed = type(slots) is array and slots.typecode == code
    if not typed and {int}.issuperset(map(type, slots)):
        with suppress(OverflowError):  # a negative or too-wide value
            slots, typed = array(code, slots), True
    if typed and value_bits == 1:
        # 2-255 translate to "x", which int() refuses
        with suppress(ValueError):
            return format(int(slots.tobytes().translate(_BIT_DIGITS), 2), f"0{len(slots) // 4}x")
    elif typed:
        if _SWAP and value_bits > 8:
            slots = slots[:]  # a copy: the caller's array keeps its order
            slots.byteswap()
        return slots.tobytes().hex()
    k = next(k for k, v in enumerate(slots) if type(v) is not int or v < 0 or v >> value_bits)
    raise DomainError(f"slot {k} holds {_clip(slots[k])}, which does not fit in {value_bits} bits")


def unpack_slots_hex(text: str, S: int, value_bits: int) -> array:
    """Inverse of pack_slots_hex; strict about length and charset.

    Returns the S slots as an ``array`` of the width's typecode, the type of
    ``Surface.slots``.  Linear in S: a 1-bit dump is read as one bit string,
    wider ones with ``bytes.fromhex`` straight into the array.  A
    HexFormatError names what was wrong, never the text itself, which may
    be megabytes long.
    """
    validate_value_bits(value_bits)
    if type(S) is not int:
        raise ConfigurationError(f"site count must be an int, got {type(S).__name__}")
    if S < 0:  # before any digit count is made of it
        raise ConfigurationError(f"site count must not be negative, got {_clip(S)}")
    _check_bit_slots(S, value_bits)
    digits = hex_digest_length(S, value_bits)
    code = _TYPECODES[value_bits]
    if not isinstance(text, str):
        got = type(text).__name__
    elif len(text) != digits:
        got = f"{len(text)} characters"
    elif not (text.isascii() and not text.encode("ascii").translate(None, _HEX_BYTES)):
        # translate left a character that is not a hex digit; name the first
        bad = next(i for i, c in enumerate(text) if c not in string.hexdigits)
        got = f"non-hex {text[bad]!r} at index {bad}"
    elif not text:
        return array(code)  # no slots; int('', 16) would not parse
    elif value_bits == 1:
        # one digit is 4 slots, most significant first
        return array(code, format(int(text, 16), f"0{S}b").encode().translate(_BIT_VALUES))
    else:
        # the charset check stands: fromhex would skip whitespace
        slots = array(code, bytes.fromhex(text))
        if _SWAP and value_bits > 8:
            slots.byteswap()
        return slots
    raise HexFormatError(f"expected {_clip(digits)} hex digits for S={_clip(S)} width={value_bits}, got {got}")


def check_dump(algo: Algorithm, S: int, T: int, value_bits: int, text: str) -> array:
    """Check one dump and return its slots.  Every path that takes a dump
    checks it here, so a dump with several faults raises the same error on
    each: the width, the sites, the hex digest, T, the limit, capacity."""
    validate_value_bits(value_bits)
    _, capacity, limit = _layout(algo, S)
    slots = unpack_slots_hex(text, S, value_bits)
    _validate_time(T)
    _refuse(algo, S, T, capacity, limit)
    return slots


class Surface:
    """S fixed slots curated by a site-selection algorithm.

    Attributes mirror the stream vocabulary: ``S`` is the site count and
    ``T`` the number of items ingested so far.  ``slots`` is an ``array``
    whose typecode is exactly the width ('B' at 1 and 8 bits, 'H', a 4-byte
    'I' or 'L', 'Q'), so ``to_hex`` packs it without a scan and
    ``from_hex`` adopts the array that ``unpack_slots_hex`` decodes.
    """

    __slots__ = ("algo", "S", "value_bits", "slots", "_selector")

    def __init__(self, algo: Algorithm, S: int, value_bits: int):
        # the width first, then the sites, as check_dump checks a dump
        validate_value_bits(value_bits)
        self._selector = Selector(algo, S)
        self.algo = algo
        self.S = S
        self.value_bits = value_bits
        self.slots = array(_TYPECODES[value_bits], [0]) * S

    @property
    def T(self) -> int:
        return self._selector.T

    @property
    def written(self) -> list[bool]:
        """Per-site written flags, derived from T.

        Every profile fills site offset + T of each segment while T is below
        the segment's size, so site k of a segment is written once T > k.
        """
        T = self.T
        return [k < T for _, size, _ in self._selector._parts for k in range(size)]

    def ingest(self, value: int) -> frozenset[int]:
        """Store one arriving value; returns the selected sites.

        An empty selection means the arrival was discarded.  The counter
        advances either way.  Raises, before any state change,
        ReplayLimitError when a dump taken after this ingest could not be
        reloaded (T would pass the selector's reload limit), else
        CapacityError when the algorithm's supported stream length is
        exhausted, both with ``_refuse``'s messages; and DomainError when
        the value does not fit the configured width.
        """
        selector = self._selector
        T = selector.T
        if not has_ingest_capacity(self.algo, self.S, T) or T >= selector.reload_limit:
            _refuse(self.algo, self.S, T + 1, selector.capacity, selector.reload_limit)
        if type(value) is not int or value < 0 or value >> self.value_bits:
            raise DomainError(
                f"value {_clip(value)} does not fit in {self.value_bits} bits"
            )
        selection = selector.step()
        for k in selection:
            self.slots[k] = value
        return frozenset(selection)

    def to_hex(self) -> str:
        """Dump the slots as the canonical hex digest (T travels separately)."""
        return pack_slots_hex(self.slots, self.value_bits)

    @classmethod
    def from_hex(
        cls, algo: Algorithm, S: int, T: int, value_bits: int, text: str
    ) -> "Surface":
        """Rebuild a surface from a dump, checked first by ``check_dump``.

        A fresh selector advances to T: steady segments cost nothing, a
        stretched curator jumps from write to write and a tilted one replays.
        """
        slots = check_dump(algo, S, T, value_bits, text)
        surface = cls(algo, S, value_bits)
        surface.slots = slots
        surface._selector.seek(T)
        return surface

    def __repr__(self) -> str:
        return (
            f"Surface(algo={self.algo}, S={self.S}, T={self.T}, "
            f"value_bits={self.value_bits})"
        )
