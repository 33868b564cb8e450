"""Output checks.  They run in the orchestrator, outside every timed region.

Each check returns a list of problems; an empty list means the output is
correct.  The independent instruments are ``streamsieve.oracle`` (steady
needed set and gap bound) and ``tests/reference_rules.py`` (the greedy
rules re-derived with Fractions), used where they are affordable.  Beyond
that, outputs are held to the program's forward rule: greedy and hybrid
ingest times must equal the last writers of one ``selection_stream`` pass,
and each deep steady ingest time must sit where ``steady_assign`` puts it.
"""

from __future__ import annotations

import csv
import re
import sys
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

MAX_LISTED = 5


def _reference():
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    import reference_rules

    return reference_rules


@lru_cache(maxsize=None)
def _reference_selections(kind: str, S: int, count: int) -> tuple:
    return tuple(_reference().greedy_selections(kind, S, count))


def reference_last_writers(kind: str, S: int, T: int, horizon: int) -> dict:
    """site -> last ingest time < T under tests/reference_rules.py.

    The reference replay is run once per (kind, S, horizon), horizon >= T.
    """
    return _reference().replay_last_writers(_reference_selections(kind, S, horizon)[:T])


def _segments(ss, token: str, S: int):
    algo = ss.parse_algorithm(token)
    if algo.is_hybrid:
        return algo.segment_layout()
    return ((algo.kind, S, 0),)


def steady_problems(ss, S: int, T: int, tbar: dict, label: str) -> list[str]:
    """A steady retained set: oracle needed set and gap bound, forward rule."""
    problems = []
    retained = set(tbar.values())
    if len(retained) != len(tbar):
        problems.append(f"{label}: one ingest time held by two sites")
    if T >= 1:
        missing = ss.needed_set_steady(S, T) - retained
        if missing:
            problems.append(f"{label}: needed ingest times missing, e.g. {min(missing)}")
        gap = ss.check_steady_gap(retained, S, T)
        if not gap.passed:
            problems.append(f"{label}: max gap {gap.max_gap} exceeds 2T/S")
    for k, b in sorted(tbar.items()):
        if ss.steady_assign(S, b) != k:
            problems.append(f"{label}: site {k} holds T={b}, which the rule puts elsewhere")
            break
    return problems


def _slot_problems(triples, T: int, expected_value, written: int, label: str) -> list[str]:
    """Every written slot holds the value sent at its ingest time."""
    problems = []
    got = [(k, b, v) for k, b, v in triples if b is not None]
    if len(got) != written:
        problems.append(f"{label}: {len(got)} sites written, expected {written}")
    bad = [(k, b, v) for k, b, v in got if not 0 <= b < T or v != expected_value(k, b)]
    for k, b, v in bad[:MAX_LISTED]:
        problems.append(f"{label}: site {k} (T={b}) holds {v}, expected {expected_value(k, b)}")
    return problems


# ---------------------------------------------------------------------------
# ingest


def ingest_sample(producer, seed: int) -> list[int]:
    """Checkpoints to round-trip through explode_row: the last, the
    reference point, the first after a seeded resume, and for steady
    producers eight more seeded ones."""
    import random

    rng = random.Random(f"check:{seed}:{producer.name}")
    points = list(producer.checkpoints())
    picked = {points[-1]}
    if producer.reference_at is not None:
        picked.add(producer.reference_at)
    if producer.resume_at:
        resumed = rng.choice(producer.resume_at)
        picked.add(min(T for T in points if T > resumed))
    if producer.token == "steady":
        picked.update(rng.sample(points, 8))
    return sorted(picked)


def last_writer_tables(ss, token: str, S: int, points) -> dict:
    """T -> {site: last ingest time < T} for each T in points, from one
    forward pass of the program's selection_stream."""
    algo = ss.parse_algorithm(token)
    wanted = set(points)
    tables, last = {}, {}
    for T, selection in enumerate(ss.selection_stream(algo, S, max(wanted)), start=1):
        for k in selection:
            last[k] = T - 1
        if T in wanted:
            tables[T] = dict(last)
    return tables


def check_ingest(ss, producers, values: dict, checkpoints, seed: int) -> list[str]:
    """Every checkpoint's slots against the forward rule and the sent values;
    sampled checkpoints also through explode_row, the oracle and reference_rules."""
    problems = []
    by_name = defaultdict(dict)
    for name, T, text in checkpoints:
        by_name[name][T] = text
    for p in producers:
        got = by_name.get(p.name, {})
        if sorted(got) != list(p.checkpoints()):
            problems.append(f"{p.name}: checkpoints at {sorted(got)[:5]}..., expected every {p.dump_every}")
            continue
        stream = values[p.name]
        tables = last_writer_tables(ss, p.token, p.S, p.checkpoints())
        for T, text in sorted(got.items()):
            try:
                slots = ss.unpack_slots_hex(text, p.S, p.value_bits)
            except ValueError as exc:
                problems.append(f"{p.name} checkpoint T={T}: {exc}")
                continue
            table = tables[T]
            wrong = [k for k in range(p.S) if slots[k] != (stream[table[k]] if k in table else 0)]
            if wrong:
                problems.append(f"{p.name} checkpoint T={T}: {len(wrong)} slots hold the wrong value, e.g. site {wrong[0]}")
        for T in ingest_sample(p, seed):
            label = f"{p.name} checkpoint T={T}"
            try:
                triples = ss.explode_row(p.token, p.S, T, p.value_bits, got[T])
            except ValueError as exc:
                problems.append(f"{label}: explode_row raised {exc!r}")
                continue
            written = {k: b for k, b, _ in triples if b is not None}
            if written != tables[T]:
                problems.append(f"{label}: explode_row ingest times differ from the forward rule")
            problems += _slot_problems(triples, T, lambda k, b: stream[b], len(tables[T]), label)
            for kind, size, offset in _segments(ss, p.token, p.S):
                tbar = {k - offset: b for k, b in written.items() if offset <= k < offset + size}
                seg_label = f"{label} segment {kind}:{size}"
                if kind == "steady":
                    problems += steady_problems(ss, size, T, tbar, seg_label)
                elif T == p.reference_at and tbar != reference_last_writers(kind, size, T, T):
                    problems.append(f"{seg_label}: retained set differs from reference_rules")
    return problems


# ---------------------------------------------------------------------------
# explode


def check_explode(ss, rows, out_path: Path, code: int) -> list[str]:
    problems = []
    planted = {i for i, row in enumerate(rows) if row.kind == "planted"}
    if code != (1 if planted else 0):
        problems.append(f"explode exited {code}")
    points: dict = defaultdict(set)
    horizon: dict = defaultdict(int)
    for row in rows:
        if row.kind in ("greedy", "hybrid"):
            points[row.token, row.S].add(row.T)
            for kind, size, _ in _segments(ss, row.token, row.S):
                horizon[kind, size] = max(horizon[kind, size], row.T)
    tables = {key: last_writer_tables(ss, *key, Ts) for key, Ts in points.items()}
    seen = set()
    with open(out_path, newline="") as fileobj:
        reader = csv.reader(fileobj)
        header = next(reader, None)
        expected_header = [
            "dstream_row", "tag", "dstream_algo", "dstream_S", "dstream_T",
            "dstream_storage_hex", "dstream_site", "dstream_Tbar", "dstream_value",
        ]
        if header != expected_header:
            return problems + [f"output header {header!r}"]
        groups = defaultdict(list)
        for record in reader:
            groups[record[0]].append(record)
    for key, records in groups.items():
        ordinal = int(key)
        if not 0 <= ordinal < len(rows) or ordinal in planted:
            problems.append(f"row {ordinal} should not produce records")
            continue
        seen.add(ordinal)
        row = rows[ordinal]
        label = f"row {ordinal} ({row.token} S={row.S} T={row.T})"
        passthrough = [f"r{ordinal}", row.token, str(row.S), str(row.T), row.hex]
        if len(records) != row.S or [r[6] for r in records] != [str(k) for k in range(row.S)]:
            problems.append(f"{label}: {len(records)} records, expected sites 0..{row.S - 1}")
            continue
        if any(r[1:6] != passthrough for r in records):
            problems.append(f"{label}: input columns not passed through")
        try:
            triples = [
                (k, int(r[7]) if r[7] else None, int(r[8]) if r[8] else None)
                for k, r in enumerate(records)
            ]
        except ValueError:
            problems.append(f"{label}: non-integer Tbar or value")
            continue
        problems += _slot_problems(triples, row.T, lambda k, b: row.slots[k], row.S, label)
        if row.kind in ("greedy", "hybrid"):
            if {k: b for k, b, _ in triples} != tables[row.token, row.S][row.T]:
                problems.append(f"{label}: Tbar differs from the forward rule's last writers")
        for kind, size, offset in _segments(ss, row.token, row.S):
            tbar = {k - offset: b for k, b, _ in triples[offset : offset + size] if b is not None}
            seg_label = f"{label} segment {kind}:{size}"
            if kind == "steady":
                problems += steady_problems(ss, size, row.T, tbar, seg_label)
            elif size <= 16 and tbar != reference_last_writers(kind, size, row.T, horizon[kind, size]):
                problems.append(f"{seg_label}: Tbar differs from reference_rules")
    missing = set(range(len(rows))) - planted - seen
    if missing:
        problems.append(f"rows {sorted(missing)[:MAX_LISTED]} produced no records")
    rejects_path = Path(str(out_path) + ".rejects")
    with open(rejects_path, newline="") as fileobj:
        reader = csv.reader(fileobj)
        if next(reader, None) != ["dstream_row", "error"]:
            problems.append("rejects file header")
        rejected = [r for r in reader]
    if sorted(int(r[0]) for r in rejected) != sorted(planted) or not all(r[1] for r in rejected):
        problems.append(
            f"rejects {[r[0] for r in rejected]} differ from planted rows {sorted(planted)}"
        )
    return problems


# ---------------------------------------------------------------------------
# validate

_MISMATCH = re.compile(r"^vector (\d+) \(", re.M)
_SUMMARY = re.compile(r"^checked (\d+) vectors: (\d+) mismatches$", re.M)


def check_validate(code: int, report: str, count: int, planted) -> list[str]:
    problems = []
    reported = sorted(int(m.group(1)) for m in _MISMATCH.finditer(report))
    if reported != sorted(planted):
        problems.append(f"mismatches reported for {reported[:10]}, planted {sorted(planted)[:10]}")
    summary = _SUMMARY.search(report)
    if not summary or (int(summary.group(1)), int(summary.group(2))) != (count, len(planted)):
        problems.append(f"summary line {summary.group(0) if summary else None!r}")
    if code != (1 if planted else 0):
        problems.append(f"validate exited {code}")
    return problems


def check_generated_vectors(body, reference_max_s: int) -> list[str]:
    """Hold generated vectors to rules derived without the package's kernels.

    Steady rows: epoch-0 arrivals fill site T, later arrivals discard exactly
    when their hanoi value is below the epoch.  Greedy rows with
    S <= reference_max_s: equal to tests/reference_rules.py.
    """
    rr = _reference()
    problems = []
    greedy = defaultdict(list)
    for idx, (token, s_text, t_text, sites_text) in enumerate(body):
        S, T = int(s_text), int(t_text)
        sites = tuple(int(part) for part in sites_text.split(";") if part)
        if token == "steady":
            epoch = max(T.bit_length() - (S.bit_length() - 1), 0)
            if epoch == 0:
                ok = sites == (T,)
            elif rr.trailing_ones(T) < epoch:
                ok = sites == ()
            else:
                ok = len(sites) == 1 and 0 <= sites[0] < S
            if not ok:
                problems.append(f"generated vector {idx} (steady S={S} T={T}) is {sites}")
        elif token in ("stretched", "tilted") and S <= reference_max_s:
            greedy[(token, S)].append((idx, T, sites))
    for (kind, S), rows in greedy.items():
        selections = _reference_selections(kind, S, max(T for _, T, _ in rows) + 1)
        for idx, T, sites in rows:
            site = selections[T]
            if sites != (() if site is None else (site,)):
                problems.append(f"generated vector {idx} ({kind} S={S} T={T}) is {sites}")
    return problems[:MAX_LISTED]
