"""Exception types shared across the package.

Every error raised by the library proper derives from StreamSieveError, so
callers can catch one base class at API boundaries.  All of them also derive
from ValueError: each one signals a value that cannot be honoured.
"""


class StreamSieveError(ValueError):
    """Base class for all streamsieve errors."""


class ConfigurationError(StreamSieveError):
    """Invalid static configuration: site count, item width, or hybrid layout."""


class CapacityError(StreamSieveError):
    """Ingest would push a bounded algorithm past its supported stream length."""


class DomainError(StreamSieveError):
    """A value outside its domain: an item too wide for the item width, or a
    negative, non-integer or out-of-range ingest counter or count."""


class HexFormatError(StreamSieveError):
    """A hex dump cannot be parsed back into buffer slots."""


class ReplayLimitError(StreamSieveError):
    """A replay-based reconstruction exceeds the practicality cap."""


class SequenceError(StreamSieveError):
    """Stream indices fed to a compressing buffer are not dense and ascending."""


class VectorFormatError(StreamSieveError):
    """A conformance vector file is structurally malformed."""


# characters of a rejected value's repr that an error message repeats
_ECHO_LIMIT = 32


def _clip(value) -> str:
    # repr of a rejected value; a bad token may be megabytes long, so a
    # long one is cut to its start and its length.  An int past 100 bits
    # (31 digits) is told by its sign and bit length: past the interpreter's
    # 4 300-digit limit its repr raises ValueError, and short of it costs
    # time quadratic in the digits.  A value whose repr raises, as a tuple
    # or set holding an int past that limit does, is told by its type.
    if isinstance(value, int) and value.bit_length() > 100:
        return f"a {'negative' if value < 0 else 'positive'} int of {value.bit_length()} bits"
    try:
        text = repr(value)
    except ValueError:
        return f"a {type(value).__name__[:_ECHO_LIMIT]} too large to print"
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... ({len(text)} characters)"
