"""streamsieve: fixed-capacity stream downsampling buffers.

Pure site-selection rules (steady, stretched, tilted, hybrid) decide where
each arriving item lands in a fixed block of S slots, so buffers need no
per-item metadata and any dump can be indexed after the fact.  The package
also ships the reverse lookup, quality checkers, a compressing circular
buffer for contrast, and a CLI (``streamsieve``).
"""

from .algorithms import (
    MAX_SITE_COUNT,
    MIN_SITE_COUNT,
    REPLAY_CAP,
    STEADY,
    STRETCHED,
    TILTED,
    Algorithm,
    epoch,
    hanoi_value,
    has_ingest_capacity,
    hybrid,
    hybrid_assign,
    parse_algorithm,
    selection_stream,
    site_selection,
    steady_assign,
    stream_capacity,
    stretched_assign,
    tilted_assign,
    validate_site_count,
)
from .benchmark import BenchResult, run_benchmark
from .compressing_buffer import CompressingBuffer
from .conformance import (
    TestVector,
    check_vectors,
    generate_vectors,
    read_vectors_csv,
    write_vectors_csv,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    HexFormatError,
    ReplayLimitError,
    SequenceError,
    StreamSieveError,
    VectorFormatError,
)
from .lookup import (
    TableCache,
    explode_row,
    last_write_times,
    lookup_replay,
    lookup_steady_fast,
)
from .oracle import (
    GapCheck,
    check_steady_gap,
    density_monotonicity_check,
    needed_set_steady,
    window_coverage_metric,
)
from .surface import (
    VALID_VALUE_BITS,
    Surface,
    pack_slots_hex,
    unpack_slots_hex,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "BenchResult",
    "CapacityError",
    "CompressingBuffer",
    "ConfigurationError",
    "DomainError",
    "GapCheck",
    "HexFormatError",
    "MAX_SITE_COUNT",
    "MIN_SITE_COUNT",
    "REPLAY_CAP",
    "ReplayLimitError",
    "STEADY",
    "STRETCHED",
    "SequenceError",
    "StreamSieveError",
    "Surface",
    "TILTED",
    "TableCache",
    "TestVector",
    "VALID_VALUE_BITS",
    "VectorFormatError",
    "check_steady_gap",
    "check_vectors",
    "density_monotonicity_check",
    "epoch",
    "explode_row",
    "generate_vectors",
    "hanoi_value",
    "has_ingest_capacity",
    "hybrid",
    "hybrid_assign",
    "last_write_times",
    "lookup_replay",
    "lookup_steady_fast",
    "needed_set_steady",
    "pack_slots_hex",
    "parse_algorithm",
    "read_vectors_csv",
    "run_benchmark",
    "selection_stream",
    "site_selection",
    "steady_assign",
    "stream_capacity",
    "stretched_assign",
    "tilted_assign",
    "unpack_slots_hex",
    "validate_site_count",
    "window_coverage_metric",
    "write_vectors_csv",
]
