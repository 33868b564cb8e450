"""The four benchmark workloads.

Every workload is a fixed, stratified mix.  The seed changes only the values
inside the mix (item values, hex contents, the low bits of each T, which
vectors get corrupted), never the mix itself, so two seeds do the same
amount of work of the same kinds.

A workload has two sides:

* orchestrator side -- ``make_inputs`` writes the input files of a run and
  ``check`` verifies the full outputs of one unit, outside every timed
  region;
* worker side -- ``prepare`` rebuilds in-memory inputs from the seed (not
  part of setup time), ``build`` creates the program's objects (part of
  setup time) and ``run`` performs one timed unit, returning its samples
  and a digest of every output it produced.

This module imports nothing from ``streamsieve`` at import time, so a
worker can time the package import itself.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import checks

# ---------------------------------------------------------------------------
# ingest


@dataclass(frozen=True)
class Producer:
    """One live surface fed a seeded value stream."""

    name: str
    token: str
    S: int
    value_bits: int
    items: int
    dump_every: int
    resume_at: tuple[int, ...] = ()  # checkpoints reloaded with from_hex
    reference_at: int | None = None  # checkpoint compared with reference_rules

    def checkpoints(self) -> range:
        return range(self.dump_every, self.items + 1, self.dump_every)


# Steady producers: dispatch, validation and packing, no greedy curator.
# Ten dumps at S=4096 per unit against forty at S=1024 puts dump p50 in the
# S=1024 group and p90 in the S=4096 group, so neither sits on a boundary.
STEADY_PRODUCERS = (
    Producer("steady-1024", "steady", 1024, 32, 40000, 1000),
    Producer("steady-4096", "steady", 4096, 32, 40000, 4000),
)

# Greedy producers, each reloaded from checkpoints.  Reference checks are
# placed where tests/reference_rules.py (Fractions, O(T*S)) stays under a
# second.
GREEDY_PRODUCERS = (
    Producer("stretched-64", "stretched", 64, 32, 3000, 500, (1000, 2000), 2000),
    Producer("tilted-1024", "tilted", 1024, 32, 1792, 256, (1280, 1536), 1280),
    Producer("hybrid-256", "hybrid(steady:128+tilted:128)", 256, 32, 2000, 500, (1000, 1500), 1500),
)


# Ingests per timed part.  The ingests between two checkpoints are timed in
# slices this long, so that each part is a few milliseconds at most and its
# fastest repetition over a run's units is steady.
INGEST_SLICE = 32


def producer_values(seed: int, producer: Producer) -> list[int]:
    rng = random.Random(f"ingest:{seed}:{producer.name}")
    return [rng.getrandbits(producer.value_bits) for _ in range(producer.items)]


class IngestWorkload:
    """Producers ingest a seeded stream with a to_hex checkpoint at a fixed cadence."""

    cli_span = None

    def __init__(self, name: str, producers, latency: str):
        self.name = name
        self.producers = tuple(producers)
        self.latency = latency  # "dump" or "resume": the sample behind latency_p50_ms

    def make_inputs(self, seed: int, tmp: Path) -> dict:
        return {}

    def prepare(self, spec: dict) -> dict:
        seed = spec["seed"]
        values = {p.name: producer_values(seed, p) for p in self.producers}
        chunks = {}
        for p in self.producers:
            start, parts = 0, []
            for end in p.checkpoints():
                chunk = values[p.name][start:end]
                parts.append([chunk[i : i + INGEST_SLICE] for i in range(0, len(chunk), INGEST_SLICE)])
                start = end + 1 if end in p.resume_at else end
            chunks[p.name] = parts
        return {"values": values, "chunks": chunks}

    def build(self, ss, prepared: dict) -> dict:
        return {
            p.name: ss.Surface(ss.parse_algorithm(p.token), p.S, p.value_bits)
            for p in self.producers
        }

    def run(self, ss, prepared: dict, surfaces: dict, spec: dict) -> dict:
        from_hex = ss.Surface.from_hex
        items = 0
        chunk_ns: list[int] = []
        dump_ns: list[int] = []
        resume_ns: list[int] = []
        checkpoints: list[tuple[str, int, str]] = []
        for p in self.producers:
            surface = surfaces[p.name]
            algo = surface.algo
            values = prepared["values"][p.name]
            for end, slices in zip(p.checkpoints(), prepared["chunks"][p.name]):
                ingest = surface.ingest
                stamps = [perf_counter_ns()]
                for piece in slices:
                    for value in piece:
                        ingest(value)
                    stamps.append(perf_counter_ns())
                t1 = stamps[-1]
                text = surface.to_hex()
                t2 = perf_counter_ns()
                chunk_ns.extend(b - a for a, b in zip(stamps, stamps[1:]))
                items += sum(map(len, slices))
                dump_ns.append(t2 - t1)
                checkpoints.append((p.name, end, text))
                if end in p.resume_at:
                    t0 = perf_counter_ns()
                    surface = from_hex(algo, p.S, end, p.value_bits, text)
                    surface.ingest(values[end])
                    resume_ns.append(perf_counter_ns() - t0)
            surfaces[p.name] = surface
        digest = hashlib.sha256()
        for name, T, text in checkpoints:
            digest.update(f"{name},{T},{text}\n".encode())
        if spec.get("outputs"):
            Path(spec["outputs"]).write_text(json.dumps(checkpoints))
        return {
            "ops": items + len(dump_ns) + len(resume_ns),
            "elapsed_ns": sum(chunk_ns) + sum(dump_ns) + sum(resume_ns),
            "items": items,
            "chunk_ns": chunk_ns,
            "dump_ns": dump_ns,
            "resume_ns": resume_ns,
            "digest": digest.hexdigest(),
        }

    def check(self, ss, spec: dict, unit: dict) -> list[str]:
        checkpoints = json.loads(Path(spec["outputs"]).read_text())
        values = {p.name: producer_values(spec["seed"], p) for p in self.producers}
        return checks.check_ingest(ss, self.producers, values, checkpoints, spec["seed"])

    def drop(self, state: dict) -> None:
        state.clear()

    def contrast(self, ss, prepared: dict) -> None:
        """Feed each steady stream to a CompressingBuffer of capacity S."""
        for p in self.producers:
            if p.token != "steady":
                continue
            ingest = ss.CompressingBuffer(p.S).ingest
            for T, value in enumerate(prepared["values"][p.name]):
                ingest(T, value)


# ---------------------------------------------------------------------------
# explode

EXPLODE_HEADER = ("tag", "dstream_algo", "dstream_S", "dstream_T", "dstream_storage_hex")
EXPLODE_VALUE_BITS = 8


@dataclass(frozen=True)
class ExplodeMix:
    """Row counts per stratum.  S stays <= 256 because every output row
    repeats its input row's hex, so bytes written grow as S**2.  The counts
    keep one call near 0.6 s, so that a run repeats each row often enough
    for its fastest repetition to be steady."""

    steady: tuple[tuple[int, int], ...] = ((64, 20), (256, 20))  # deep, T < 2**63
    greedy: tuple[tuple[str, int], ...] = (
        ("stretched", 16),
        ("stretched", 64),
        ("tilted", 16),
        ("tilted", 64),
    )
    greedy_rows_per_key: int = 6
    greedy_t_max: int = 4096
    hybrid: tuple[str, int, int] = ("hybrid(steady:32+tilted:32)", 64, 2)
    planted: int = 3


@dataclass(frozen=True)
class ExplodeRow:
    kind: str  # "steady", "greedy", "hybrid" or "planted"
    token: str
    S: int
    T: int
    hex: str
    slots: tuple[int, ...]


def explode_rows(seed: int, mix: ExplodeMix) -> list[ExplodeRow]:
    """The seeded CSV content; the row order is fixed by the mix alone."""
    shapes = []
    for S, count in mix.steady:
        lo = S.bit_length() + 1  # T >= 2*S, so every site has been written
        for j in range(count):
            shapes.append(("steady", "steady", S, lo + j * (63 - lo) // max(count - 1, 1)))
    for kind, S in mix.greedy:
        span = mix.greedy_t_max - S - 64
        for j in range(mix.greedy_rows_per_key):
            shapes.append(("greedy", kind, S, S + j * span // (mix.greedy_rows_per_key - 1)))
    token, S, count = mix.hybrid
    for j in range(count):
        shapes.append(("hybrid", token, S, S + j * (mix.greedy_t_max - S - 64) // max(count - 1, 1)))
    planted = [("planted", "steady", 64, 40), ("planted", "tilted", 64, 200), ("planted", "tilted", 4, 20)]
    shapes.extend(planted[: mix.planted])
    random.Random(0).shuffle(shapes)

    rng = random.Random(f"explode:{seed}")
    rows = []
    for kind, token, S, param in shapes:
        slots = tuple(rng.getrandbits(EXPLODE_VALUE_BITS) for _ in range(S))
        if kind == "steady":  # param is the bit length of T
            T = (1 << (param - 1)) | rng.getrandbits(param - 1)
        elif kind in ("greedy", "hybrid"):  # param is the stratum's lowest T
            T = param + rng.randrange(64)
        else:
            T = param
        text = bytes(slots).hex()
        if kind == "planted":
            if token == "steady":
                text = text[:-1]  # one digit short
            elif S == 64:
                pos = rng.randrange(len(text))
                text = text[:pos] + "g" + text[pos + 1 :]  # not a hex digit
            # tilted S=4 at T=20 is past its capacity of 14 ingests
        rows.append(ExplodeRow(kind, token, S, T, text, slots))
    return rows


@contextlib.contextmanager
def stamping(module, attr: str, make):
    """Replace ``module.attr`` with ``make(original, stamps)`` for one call.

    Yields the list the wrapper appends its clock readings to.  If the
    module has no such name (a later version may drop it), nothing is
    replaced and the call stays one part.
    """
    stamps: list[int] = []
    original = getattr(module, attr, None)
    if original is None:
        yield stamps
        return
    setattr(module, attr, make(original, stamps))
    try:
        yield stamps
    finally:
        setattr(module, attr, original)


def stamp_each_call(original, stamps: list[int]):
    """One stamp as each call starts: explode parts are its input rows."""

    def stamped(*args, **kwargs):
        stamps.append(perf_counter_ns())
        return original(*args, **kwargs)

    return stamped


VECTOR_BLOCK = 500  # vector lines per timed part of validate --check


def stamp_blocks(items, stamps: list[int]):
    """Yield from items, with a stamp as each block of VECTOR_BLOCK starts."""
    items = iter(items)
    for first in items:
        stamps.append(perf_counter_ns())
        yield first
        yield from itertools.islice(items, VECTOR_BLOCK - 1)


class StampedFile:
    """The vector file, stamped every VECTOR_BLOCK lines as it is read."""

    def __init__(self, fileobj, stamps: list[int]):
        self._file = fileobj
        self._stamps = stamps

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __iter__(self):
        return stamp_blocks(self._file, self._stamps)


class StampedVectors(list):
    """The vector list, stamped every VECTOR_BLOCK items as it is iterated."""

    stamps: list[int]

    def __iter__(self):
        return stamp_blocks(super().__iter__(), self.stamps)


def stamp_vector_blocks(original, stamps: list[int]):
    def read(fileobj, *args, **kwargs):
        vectors = StampedVectors(original(StampedFile(fileobj, stamps), *args, **kwargs))
        vectors.stamps = stamps
        return vectors

    return read


class CliWorkload:
    """A workload that times one ``streamsieve`` CLI call per unit.

    The call is cut into parts by clock readings at fixed points inside it:
    before each input row's ``explode_row``, or every VECTOR_BLOCK lines as
    ``read_vectors_csv`` reads the file and every VECTOR_BLOCK vectors as
    ``check_vectors`` walks the list.  A reading costs well under a
    microsecond against milliseconds per part.
    """

    latency = "call"  # latency_p50_ms is the duration of one call
    stamp_at: tuple  # (name in streamsieve.cli, wrapper factory)

    def call(self, main, argv: list[str]) -> tuple[int, int, list[int], str]:
        """Run main(argv); return exit code, call ns, part ns and stderr."""
        from streamsieve import cli

        err = io.StringIO()
        with stamping(cli, *self.stamp_at) as stamps, contextlib.redirect_stderr(err):
            t0 = perf_counter_ns()
            code = main(argv)
            t1 = perf_counter_ns()
        points = [t0, *stamps, t1]
        parts = [b - a for a, b in zip(points, points[1:])]
        return code, t1 - t0, parts, err.getvalue()

    def prepare(self, spec: dict) -> dict:
        return {}

    def build(self, ss, prepared: dict):
        from streamsieve import cli

        return cli.main

    def drop(self, state) -> None:
        pass

    def contrast(self, ss, prepared: dict) -> None:
        pass


class ExplodeWorkload(CliWorkload):
    """One CSV of dumps fed through ``streamsieve explode``."""

    name = "explode-mixed"
    cli_span = "cli.explode"
    stamp_at = ("explode_row", stamp_each_call)

    def __init__(self, mix: ExplodeMix = ExplodeMix()):
        self.mix = mix

    def make_inputs(self, seed: int, tmp: Path) -> dict:
        rows = explode_rows(seed, self.mix)
        path = tmp / "explode_in.csv"
        with open(path, "w", newline="") as fileobj:
            writer = csv.writer(fileobj, lineterminator="\n")
            writer.writerow(EXPLODE_HEADER)
            for ordinal, row in enumerate(rows):
                writer.writerow([f"r{ordinal}", row.token, row.S, row.T, row.hex])
        greedy = [r for r in rows if r.kind == "greedy"]
        keys = [(r.token, r.S) for r in greedy]
        shared = sum(1 for key in keys if keys.count(key) > 1)
        kinds = {k: sum(1 for r in rows if r.kind == k) for k in ("steady", "greedy", "hybrid", "planted")}
        note = (
            f"explode mix: {len(rows)} rows, "
            + ", ".join(f"{k} {n}" for k, n in kinds.items())
            + f"; greedy rows sharing an (algo, S) key: {shared}/{len(greedy)}"
        )
        return {"csv": str(path), "rows": len(rows), "note": note}

    def run(self, ss, prepared: dict, main, spec: dict) -> dict:
        inputs = spec["inputs"]
        out = Path(spec["tmp"]) / f"explode_out_{spec['unit']}.csv"
        argv = ["explode", inputs["csv"], str(out), "--value-bits", str(EXPLODE_VALUE_BITS)]
        code, call_ns, parts_ns, _ = self.call(main, argv)
        rejects = Path(str(out) + ".rejects")
        digest = hashlib.sha256()
        size = 0
        for path in (out, rejects):
            data = path.read_bytes()
            size += len(data)
            digest.update(data)
            digest.update(b"\0")
        if spec.get("outputs"):
            Path(spec["outputs"]).write_text(json.dumps({"csv": str(out), "code": code}))
        else:
            out.unlink()
            rejects.unlink()
        return {
            "ops": inputs["rows"],
            "elapsed_ns": call_ns,
            "rows": inputs["rows"],
            "call_ns": call_ns,
            "parts_ns": parts_ns,
            "bytes_written": size,
            "digest": digest.hexdigest(),
        }

    def check(self, ss, spec: dict, unit: dict) -> list[str]:
        outputs = json.loads(Path(spec["outputs"]).read_text())
        out = Path(outputs["csv"])
        try:
            problems = checks.check_explode(
                ss, explode_rows(spec["seed"], self.mix), out, outputs["code"]
            )
        finally:
            out.unlink(missing_ok=True)
            Path(str(out) + ".rejects").unlink(missing_ok=True)
        return problems

# ---------------------------------------------------------------------------
# validate


@dataclass(frozen=True)
class VectorMix:
    algos: str = "steady,stretched,tilted,hybrid(steady:32+tilted:32)"
    max_s: int = 64
    max_t: int = 4096
    steady_extra: int = 100  # per steady S, so 500 large-T rows at max_s=64
    corrupted: int = 8
    reference_max_s: int = 16  # greedy rows re-derived with reference_rules


def corrupt_vectors(lines: list[list[str]], seed: int, count: int) -> list[int]:
    """Change the expected sites of ``count`` seeded vector rows in place.

    Returns the vector indices changed (0-based, header excluded).
    """
    rng = random.Random(f"vectors:{seed}")
    by_algo: dict[str, list[int]] = {}
    for idx, row in enumerate(lines):
        by_algo.setdefault(row[0], []).append(idx)
    groups = sorted(by_algo)
    picked: set[int] = set()
    while len(picked) < count:
        picked.add(rng.choice(by_algo[groups[len(picked) % len(groups)]]))
    for idx in picked:
        S = int(lines[idx][1])
        sites = [int(part) for part in lines[idx][3].split(";") if part]
        sites = [(sites[0] + 1) % S, *sites[1:]] if sites else [0]
        lines[idx][3] = ";".join(str(k) for k in sites)
    return sorted(picked)


class ValidateWorkload(CliWorkload):
    """``streamsieve validate --check`` on a vector file made in another process."""

    name = "validate-check"
    cli_span = "cli.validate"
    stamp_at = ("read_vectors_csv", stamp_vector_blocks)

    def __init__(self, mix: VectorMix = VectorMix()):
        self.mix = mix

    def make_inputs(self, seed: int, tmp: Path) -> dict:
        path = tmp / "vectors.csv"
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run(
            [
                sys.executable,
                "-m",
                "streamsieve.cli",
                "validate",
                "--generate",
                str(path),
                "--algos",
                self.mix.algos,
                "--max-S",
                str(self.mix.max_s),
                "--max-T",
                str(self.mix.max_t),
                "--steady-extra",
                str(self.mix.steady_extra),
                "--seed",
                str(seed),
            ],
            cwd=root,
            env=env,
            check=True,
            capture_output=True,
            timeout=120,
        )
        with open(path, newline="") as fileobj:
            lines = list(csv.reader(fileobj))
        header, body = lines[0], lines[1:]
        problems = checks.check_generated_vectors(body, self.mix.reference_max_s)
        planted = corrupt_vectors(body, seed, self.mix.corrupted)
        with open(path, "w", newline="") as fileobj:
            writer = csv.writer(fileobj, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(body)
        return {
            "vectors": str(path),
            "count": len(body),
            "planted": planted,
            "problems": problems,
            "note": f"vector file: {len(body)} vectors, {len(planted)} corrupted",
        }

    def run(self, ss, prepared: dict, main, spec: dict) -> dict:
        inputs = spec["inputs"]
        code, call_ns, parts_ns, report = self.call(main, ["validate", "--check", inputs["vectors"]])
        digest = hashlib.sha256(f"{code}\n{report}".encode()).hexdigest()
        return {
            "ops": inputs["count"],
            "elapsed_ns": call_ns,
            "vectors": inputs["count"],
            "call_ns": call_ns,
            "parts_ns": parts_ns,
            "code": code,
            "report": report,
            "digest": digest,
        }

    def check(self, ss, spec: dict, unit: dict) -> list[str]:
        inputs = spec["inputs"]
        return inputs["problems"] + checks.check_validate(
            unit["code"], unit["report"], inputs["count"], inputs["planted"]
        )


WORKLOADS = {
    "ingest-steady": IngestWorkload("ingest-steady", STEADY_PRODUCERS, "dump"),
    "ingest-greedy": IngestWorkload("ingest-greedy", GREEDY_PRODUCERS, "resume"),
    "explode-mixed": ExplodeWorkload(),
    "validate-check": ValidateWorkload(),
}
