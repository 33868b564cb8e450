"""Command-line front end.

Subcommands:

* explode   -- turn a CSV of dumped buffers into one row per site
* validate  -- freeze selections to a vector file, or re-check one
* bench     -- time site selection over ingest windows, CSV out
* lookup    -- print the site -> ingest-time table for one buffer

Exit codes follow the usual convention: 0 success, 1 data-level failures
(rejected rows, mismatched vectors, refused lookups), 2 usage errors (bad
flags, tokens or site counts, unreadable inputs, unwritable outputs).  A
subcommand raises a usage error, and ``main`` alone prints it and exits 2;
every file is opened by ``_open``, which turns an ``OSError`` into one.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext, suppress
from operator import itemgetter
from types import SimpleNamespace

from .algorithms import MAX_SITE_COUNT, parse_algorithm, parse_int
from .benchmark import BENCH_FIELDS, run_benchmark
from .conformance import (
    DEFAULT_SEED,
    check_vectors,
    generate_vectors,
    read_vectors_csv,
    write_vectors_csv,
)
from .errors import ConfigurationError, StreamSieveError, VectorFormatError
from .lookup import TableCache, explode_row, last_write_times
from .surface import VALID_VALUE_BITS, hex_digest_length

REQUIRED_INPUT_COLUMNS = ("dstream_algo", "dstream_S", "dstream_T", "dstream_storage_hex")
RECORD_COLUMNS = ("dstream_site", "dstream_Tbar", "dstream_value")

USAGE_ERROR = 2


class _UsageError(Exception):
    """Bad flags or input for a subcommand; ``main`` prints it and exits 2."""


def _open(path: str, mode: str = "r"):
    """Open a CSV file; an OSError is a usage error naming the path."""
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        raise _UsageError(f"cannot {'write' if 'w' in mode else 'read'} {path}: {exc}")


# characters of explode output written at once, about: a line is taken as
# its lead and rest plus what its record fields (a site, a T-bar and a
# value, at most 20 digits each) add
_BLOCK_CHARS = 1 << 16
_FIELD_CHARS = 64


def _cmd_explode(args) -> int:
    # the longest legal dump reads as a cell (a wrong one is a row reject)
    field_limit = csv.field_size_limit(hex_digest_length(MAX_SITE_COUNT, max(VALID_VALUE_BITS)))
    try:
        with _open(args.input) as infile:
            reader = csv.reader(infile)
            fields = next(reader, None)
            if fields is None:
                raise _UsageError(f"{args.input} has no header row")
            missing = [c for c in REQUIRED_INPUT_COLUMNS if c not in fields]
            if missing:
                raise _UsageError(f"{args.input} is missing columns: {', '.join(missing)}")
            rows = [cells for cells in reader if cells]
    except csv.Error as exc:
        raise _UsageError(f"{args.input} line {reader.line_num}: {exc}")
    finally:
        csv.field_size_limit(field_limit)

    width = len(fields)
    # a name's last cell wins, and the record's own columns override the
    # input's, as when each record was a dict of its row
    column = {name: i for i, name in enumerate(fields)}
    algo_at, s_at, t_at, hex_at = (column[c] for c in REQUIRED_INPUT_COLUMNS)
    column.update({name: width + i for i, name in enumerate(("dstream_row", *RECORD_COLUMNS))})
    out_fields = ["dstream_row", *fields, *RECORD_COLUMNS]
    pick = itemgetter(*(column[name] for name in out_fields))
    # the first record cell; the row number comes before it, so the lead is
    # never the lone empty cell that csv writes as ""
    first = min(out_fields.index(name) for name in RECORD_COLUMNS)
    # writerow returns what its file's write returns: here, the encoded line.
    # csv quotes a cell for the characters of its line terminator, so "\r\n"
    # quotes a bare "\r" too; the line then ends in "\n" alone
    crlf_to_lf = SimpleNamespace(write=lambda line: line[:-2] + "\n")
    encode = csv.writer(crlf_to_lf, lineterminator="\r\n").writerow
    # open both outputs before any row is noted: the output may run to GiBs,
    # so an unwritable report fails before it is written.  The report always
    # exists, so downstream scripts can rely on it.
    with _open(args.output, "w") as outfile, _open(args.output + ".rejects", "w") as rejfile:
        # note every row before exploding any, so that each layout with a
        # greedy segment is passed over once; the loop below reports bad rows
        tables = TableCache()
        for cells in rows:
            # a short row's missing cells read as None and write as empty
            cells += [None] * (width - len(cells))
            if len(cells) == width:
                with suppress(ValueError):
                    S, T = parse_int(cells[s_at]), parse_int(cells[t_at])
                    tables.note(cells[algo_at], S, T, args.value_bits, cells[hex_at])
        rejects: list[tuple[int, str]] = []
        outfile.write(encode(out_fields))
        for ordinal, cells in enumerate(rows):
            if len(cells) > width:
                rejects.append((ordinal, f"row has {len(cells)} cells but the header has {width}"))
                continue
            try:
                S, T = parse_int(cells[s_at]), parse_int(cells[t_at])
                triples = explode_row(cells[algo_at], S, T, args.value_bits, cells[hex_at], tables)
            except ValueError as exc:
                rejects.append((ordinal, str(exc)))
                continue
            # a line is the lead, the cells before the first record cell, and
            # the rest, a str.format template with a field for each record
            # cell.  Each is encoded once per row; csv quotes a cell by its
            # own text, so the two encodes join to the row's line, and
            # escaping the rest's braces changes no quoting
            lead = encode(pick((*cells, ordinal, None, None, None))[:first])[:-1] + ","
            head = ["" if cell is None else cell.replace("{", "{{").replace("}", "}}") for cell in cells]
            rest = encode(pick((*head, ordinal, "{0}", "{1}", "{2}"))[first:])
            fill = rest.format
            # a block of lines is lead + rest + lead + rest + ...: one join and
            # one write per block, bounded in characters, since a row's records
            # run to S times its line
            step = max(1, _BLOCK_CHARS // (len(lead) + len(rest) + _FIELD_CHARS))
            for start in range(0, len(triples), step):
                outfile.write(lead + lead.join([
                    fill(site, "" if tbar is None else tbar, "" if value is None else value)
                    for site, tbar, value in triples[start : start + step]
                ]))
        report = csv.writer(rejfile, lineterminator="\n")
        report.writerow(["dstream_row", "error"])
        report.writerows(rejects)

    if rejects:
        print(f"{len(rejects)} of {len(rows)} rows rejected", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    algos = [token for token in args.algos.split(",") if token]
    if args.generate is not None:
        try:
            vectors = generate_vectors(
                algos, args.max_s, args.max_t, args.steady_extra, args.seed
            )
        except StreamSieveError as exc:
            raise _UsageError(exc)
        with _open(args.generate, "w") as fileobj:
            count = write_vectors_csv(fileobj, vectors)
        print(f"wrote {count} vectors to {args.generate}", file=sys.stderr)
        return 0
    try:
        with _open(args.check) as fileobj:
            vectors = read_vectors_csv(fileobj)
    except VectorFormatError as exc:
        raise _UsageError(exc)
    mismatches = check_vectors(vectors)
    for message in mismatches:
        print(message, file=sys.stderr)
    print(
        f"checked {len(vectors)} vectors: {len(mismatches)} mismatches",
        file=sys.stderr,
    )
    return 1 if mismatches else 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [parse_int(part) for part in text.split(",") if part]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_windows(text: str) -> list[tuple[int, int]]:
    windows = []
    for part in text.split(","):
        if not part:
            continue
        lo_text, sep, hi_text = part.partition(":")
        if not sep:
            raise ValueError(f"--depths expects lo:hi windows, got {part!r}")
        windows.append((parse_int(lo_text), parse_int(hi_text)))
    return windows


def _cmd_bench(args) -> int:
    try:
        algo = parse_algorithm(args.algo)
        sizes = _parse_int_list(args.sizes, "--sizes")
        windows = _parse_windows(args.depths)
        results = run_benchmark(algo, sizes, windows, args.replicates)
    except ValueError as exc:
        raise _UsageError(exc)
    with _open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BENCH_FIELDS)
        writer.writerows(row._replace(ns_per_item=f"{row.ns_per_item:.3f}") for row in results)
    return 0


def _cmd_lookup(args) -> int:
    try:
        entries = last_write_times(parse_algorithm(args.algo), args.S, args.T)
    except ConfigurationError as exc:
        raise _UsageError(exc)
    except ValueError as exc:  # refused: the limit, capacity or a bad T
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # one writelines, not a print per line: S=2**20 is 2**20 lines
    sys.stdout.writelines(f"{k}\t{'' if t is None else t}\n" for k, t in enumerate(entries))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamsieve",
        description="Fixed-capacity stream downsampling buffers and tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_explode = sub.add_parser(
        "explode",
        help="expand dumped buffers into one row per site",
        description=(
            "Read a CSV with dstream_algo, dstream_S, dstream_T and "
            "dstream_storage_hex columns and write one output row per site, "
            "adding dstream_site, dstream_Tbar and dstream_value. Other "
            "columns pass through verbatim. Failing rows go to "
            "<output>.rejects and exit status 1."
        ),
    )
    p_explode.add_argument("input", help="input CSV of dumped buffers")
    p_explode.add_argument("output", help="output CSV, one row per site")
    p_explode.add_argument(
        "--value-bits",
        type=parse_int,
        choices=VALID_VALUE_BITS,
        required=True,
        help="item width shared by every row of the file",
    )
    p_explode.set_defaults(func=_cmd_explode)

    p_validate = sub.add_parser(
        "validate",
        help="generate or check conformance vector files",
        description=(
            "Freeze site selections over an exhaustive grid to a CSV vector "
            "file, or recompute an existing file and report mismatches."
        ),
    )
    mode = p_validate.add_mutually_exclusive_group(required=True)
    mode.add_argument("--generate", metavar="PATH", help="write vectors to PATH")
    mode.add_argument("--check", metavar="PATH", help="recheck vectors from PATH")
    p_validate.add_argument(
        "--algos",
        default="steady,stretched,tilted",
        help="comma-separated algorithm tokens (default: %(default)s)",
    )
    p_validate.add_argument("--max-S", dest="max_s", type=parse_int, default=16)
    p_validate.add_argument("--max-T", dest="max_t", type=parse_int, default=256)
    p_validate.add_argument(
        "--steady-extra",
        type=parse_int,
        default=6,
        help="sampled large-T steady vectors per size (default: %(default)s)",
    )
    p_validate.add_argument("--seed", type=parse_int, default=DEFAULT_SEED)
    p_validate.set_defaults(func=_cmd_validate)

    p_bench = sub.add_parser(
        "bench",
        help="time site selection over ingest windows",
        description=(
            "Time selection for each size and half-open depth window, one "
            "CSV row per replicate. Windows may start anywhere; a layout "
            "with a greedy segment is stepped to the window's start untimed."
        ),
    )
    p_bench.add_argument("--algo", default="steady")
    p_bench.add_argument("--sizes", default="64,256,1024")
    p_bench.add_argument("--depths", default="0:65536", help="comma-separated lo:hi windows")
    p_bench.add_argument("--replicates", type=parse_int, default=10)
    p_bench.add_argument("--output", help="write CSV here instead of stdout")
    p_bench.set_defaults(func=_cmd_bench)

    p_lookup = sub.add_parser(
        "lookup",
        help="print the site -> ingest-time table for one buffer",
        description=(
            "Print one line per site, 'site<TAB>ingest_time', with an empty "
            "time for never-written sites."
        ),
    )
    p_lookup.add_argument("--algo", required=True)
    p_lookup.add_argument("--S", type=parse_int, required=True)
    p_lookup.add_argument("--T", type=parse_int, required=True)
    p_lookup.set_defaults(func=_cmd_lookup)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
