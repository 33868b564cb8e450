"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every output check passes on a correct output and fails on a planted
   wrong one (a flipped hex digit, two swapped dstream_Tbar values, a lost
   record, a lost reject, a missed or invented vector mismatch, ...).
2. A one-second run of every workload, untraced and traced, prints every
   metric BENCHMARK.json declares, the names each workload reports them
   under, a digest and failed_ops_ratio, and a well-formed last line.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when all of it holds.  Takes a few minutes.
"""

import sys

sys.dont_write_bytecode = True

import csv
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import ExplodeMix, IngestWorkload, Producer, VectorMix  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, problems: list, wrong: bool) -> None:
    ok = bool(problems) == wrong
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {len(problems)} problem(s)")
    if not ok:
        FAILURES.append(label)
        for problem in problems[:3]:
            print(f"       {problem}")


def flip_digit(text: str, pos: int) -> str:
    digit = "0" if text[pos] != "0" else "1"
    return text[:pos] + digit + text[pos + 1 :]


def ingest_checks(ss, tmp: Path) -> None:
    producers = (
        Producer("t-steady", "steady", 64, 16, 2000, 250),
        Producer("t-tilted", "tilted", 16, 16, 600, 100, (300,), 300),
        Producer("t-hybrid", "hybrid(steady:16+tilted:16)", 32, 16, 600, 100, (200,), 300),
    )
    workload = IngestWorkload("selftest-ingest", producers, "dump")
    spec = {"seed": 7, "outputs": str(tmp / "ingest.json")}
    prepared = workload.prepare(spec)
    unit = workload.run(ss, prepared, workload.build(ss, prepared), spec)
    good = json.loads(Path(spec["outputs"]).read_text())
    values = prepared["values"]

    def check(points):
        return checks.check_ingest(ss, producers, values, points, spec["seed"])

    expect("ingest: correct checkpoints", check(good), False)
    steady_T = checks.ingest_sample(producers[0], spec["seed"])[0]
    bad = [[n, T, flip_digit(h, 5) if (n, T) == ("t-steady", steady_T) else h] for n, T, h in good]
    expect("ingest: one flipped hex digit", check(bad), True)

    def swap_slots(text, width=4):
        return text[width : 2 * width] + text[:width] + text[2 * width :]

    bad = [[n, T, swap_slots(h) if (n, T) == ("t-tilted", 300) else h] for n, T, h in good]
    expect("ingest: two greedy slots swapped", check(bad), True)
    stale = {T: h for n, T, h in good if n == "t-hybrid"}
    bad = [[n, T, stale[T - 100] if (n, T) == ("t-hybrid", 300) else h] for n, T, h in good]
    expect("ingest: a stale checkpoint", check(bad), True)
    expect("ingest: a missing checkpoint", check(good[1:]), True)
    assert unit["ops"] > 0


def explode_checks(ss, tmp: Path) -> None:
    from streamsieve import cli

    mix = ExplodeMix(
        steady=((16, 3), (64, 2)),
        greedy=(("tilted", 16), ("stretched", 16)),
        greedy_rows_per_key=3,
        greedy_t_max=512,
        hybrid=("hybrid(steady:16+tilted:16)", 32, 2),
    )
    workload = workloads.ExplodeWorkload(mix)
    inputs = workload.make_inputs(3, tmp)
    spec = {"seed": 3, "tmp": str(tmp), "inputs": inputs, "unit": 0, "outputs": str(tmp / "explode.json")}
    workload.run(ss, {}, cli.main, spec)
    outputs = json.loads(Path(spec["outputs"]).read_text())
    out = Path(outputs["csv"])
    rows = workloads.explode_rows(3, mix)
    with open(out, newline="") as fileobj:
        good = list(csv.reader(fileobj))
    rejects = Path(str(out) + ".rejects").read_text()

    def check(records, rejects_text=rejects):
        path = tmp / "mutated.csv"
        with open(path, "w", newline="") as fileobj:
            csv.writer(fileobj, lineterminator="\n").writerows(records)
        Path(str(path) + ".rejects").write_text(rejects_text)
        return checks.check_explode(ss, rows, path, outputs["code"])

    expect("explode: correct output", check(good), False)

    def first_row(kind):
        ordinal = next(i for i, r in enumerate(rows) if r.kind == kind)
        return [i for i, rec in enumerate(good) if rec[0] == str(ordinal)]

    for kind in ("steady", "greedy", "hybrid"):
        a, b = first_row(kind)[:2]
        bad = [list(rec) for rec in good]
        bad[a][7], bad[b][7] = bad[b][7], bad[a][7]
        expect(f"explode: two dstream_Tbar values swapped in a {kind} row", check(bad), True)
    a = first_row("steady")[0]
    bad = [list(rec) for rec in good]
    bad[a][8] = str(int(bad[a][8]) ^ 1)
    expect("explode: one value changed", check(bad), True)
    bad = [list(rec) for rec in good]
    bad[a][5] = flip_digit(bad[a][5], 0)
    expect("explode: one flipped hex digit in a passed-through column", check(bad), True)
    expect("explode: one record lost", check(good[:a] + good[a + 1 :]), True)
    lines = rejects.splitlines(keepends=True)
    expect("explode: one reject lost", check(good, "".join(lines[:-1])), True)


def validate_checks(tmp: Path) -> None:
    mix = VectorMix(max_s=8, max_t=64, steady_extra=3, corrupted=3)
    workload = workloads.ValidateWorkload(mix)
    inputs = workload.make_inputs(5, tmp)
    expect("validate: generated vectors agree with the references", inputs["problems"], False)
    from streamsieve import cli

    unit = workload.run(None, {}, cli.main, {"inputs": inputs})
    spec = {"inputs": inputs}
    expect("validate: exactly the planted mismatches", workload.check(None, spec, unit), False)
    lines = unit["report"].splitlines(keepends=True)
    missed = dict(unit, report="".join(lines[1:]))
    expect("validate: one planted mismatch not reported", workload.check(None, spec, missed), True)
    invented = dict(unit, report="vector 0 (steady S=4 T=0): expected [0], got [1]\n" + unit["report"])
    expect("validate: one mismatch invented", workload.check(None, spec, invented), True)
    expect("validate: wrong exit status", workload.check(None, spec, dict(unit, code=0)), True)
    with open(inputs["vectors"], newline="") as fileobj:
        body = list(csv.reader(fileobj))[1:]
    clean = [row for idx, row in enumerate(body) if idx not in inputs["planted"]]
    expect("validate: clean vectors pass the reference check", checks.check_generated_vectors(clean, 8), False)
    steady = next(i for i, row in enumerate(clean) if row[0] == "steady" and int(row[2]) >= 40 and row[3])
    greedy = next(i for i, row in enumerate(clean) if row[0] == "tilted" and int(row[1]) == 8 and int(row[2]) > 20)
    for label, idx, sites in (
        ("steady", steady, ""),
        ("greedy", greedy, str((int(clean[greedy][3]) + 1) % 8)),
    ):
        wrong = [list(row) for row in clean]
        wrong[idx][3] = sites
        expect(f"validate: a wrong generated {label} vector", checks.check_generated_vectors(wrong, 8), True)


WORKLOAD_NAMES = {
    "ingest-steady": ("ingest_items_per_s", "dump_p50_us", "dump_p90_us"),
    "ingest-greedy": ("ingest_items_per_s", "resume_p50_ms"),
    "explode-mixed": ("explode_rows_per_s", "cli.explode_bytes_written"),
    "validate-check": ("check_vectors_per_s",),
}


def run_checks(bench: dict) -> None:
    for name, own_names in WORKLOAD_NAMES.items():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "2",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            label = f"run {name} --trace {trace}"
            out = proc.stdout.strip().splitlines()
            try:
                last = json.loads(out[-1])
            except (IndexError, ValueError):
                expect(label, [f"exit {proc.returncode}, no JSON last line: {proc.stderr[-500:]}"], False)
                continue
            problems = []
            if proc.returncode != 0 or set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"exit {proc.returncode}, keys {sorted(last)}")
            if last.get("correct") is not True or last.get("failed") != 0 or last.get("attempted", 0) < 1:
                problems.append(f"correct={last.get('correct')} failed={last.get('failed')}")
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            if sorted(last["metrics"]) != sorted(m["name"] for m in declared):
                problems.append(f"metrics {sorted(last['metrics'])}")
            for m in declared:
                got = last["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{m['name']}: {got}")
            text = proc.stdout
            wanted = ["digest ", "failed_ops_ratio = "]
            if not trace:
                wanted += [f"{n} = " for n in (*own_names, "peak_rss_mb", "setup_s")]
            else:
                wanted += ["tracing overhead: "]
            problems += [f"output lacks {w!r}" for w in wanted if w not in text]
            expect(label, problems, False)


def bare_directory_check() -> None:
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=base))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ingest-steady", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        problems = [] if proc.returncode != 0 and not proc.stdout.strip() else [f"exit {proc.returncode}"]
        expect("bare directory exits non-zero without a result", problems, False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def main() -> int:
    sys.dont_write_bytecode = False
    import streamsieve as ss

    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        ingest_checks(ss, Path(tmp))
        explode_checks(ss, Path(tmp))
        validate_checks(Path(tmp))
    base.rmdir()
    run_checks(json.loads((ROOT / "BENCHMARK.json").read_text()))
    bare_directory_check()
    print(f"{'FAILED: ' + ', '.join(FAILURES) if FAILURES else 'all self-tests passed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
