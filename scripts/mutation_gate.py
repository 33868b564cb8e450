"""Check that the tests licensing the library's fast paths and fixed check
orders still fail when one of them is broken.

Each mutant is one exact text edit of one file.  For each, ``src/``,
``tests/`` and ``pyproject.toml`` are copied to a temporary directory, the
edit is applied there, and the named tests run under ``pytest -x -q`` in a
subprocess with a timeout.  A mutant is killed when its tests fail or time
out.  The gate fails when a mutant survives, when its old text does not
occur exactly once in its file (so a change that moves mutated code updates
this table with it), or when the named tests fail on the unmutated copy.
The checkout itself is never edited.

The mutants, each killed by tests of its own:

* the greedy curator: both tie rules, each of the three refiles an
  eviction makes, the left neighbour's new gap measured to the evicted
  item instead of to its new right neighbour, an emptied run left in the
  list of runs, a fill bound that takes the filling arrival too, and a
  ``table()`` that pairs times with the wrong sites once evictions reorder
  them (a neighbour that takes a run of its own where it could join the
  next one is not here: it holds one more run and selects the same);
* hex interchange: the pack and the unpack byteswap dropped, the pack
  byteswapping the caller's array in place, and a 1-bit table with its
  digits swapped;
* the steady rule's discard test, relaxed to keep every arrival of epoch 1;
* the explode writer's brace escape dropped;
* the check orders: ``_refuse``'s limit before capacity, and
  ``check_dump``'s hex digest before T.

The script prints one line a mutant and exits 1 on any failure (about a
minute on a 2-vCPU box):

    python scripts/mutation_gate.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300

ALGORITHMS = "src/streamsieve/algorithms.py"
SURFACE = "src/streamsieve/surface.py"
CLI = "src/streamsieve/cli.py"
TESTS = "tests/test_algorithms.py::"
SCAN = TESTS + "test_gap_bucket_curator_matches_scan"
DEPTH = TESTS + "test_gap_bucket_curator_matches_scan_at_depth"
NEXT_WRITE = TESTS + "test_stretched_next_write_matches_scan"
SURFACE_TESTS = "tests/test_surface.py::"
LOOKUP_TESTS = "tests/test_lookup.py::"
SAME_FAULT = LOOKUP_TESTS + "test_every_dump_path_reports_the_same_fault"
PACKED_HEX = "tests/test_digests.py::test_packed_hex_is_frozen"

# (file, exact old text, new text, test ids, why the tests must kill it)
MUTANTS = [
    (ALGORITHMS,
     "if s <= best_s and (s < best_s or b < best_b):",
     "if s <= best_s and (s < best_s or b > best_b):",
     [DEPTH, TESTS + "test_greedy_matches_fraction_oracle"],
     "a tilted tie goes to the smaller time"),
    (ALGORITHMS,
     "if x <= y and (x < y or weight < w):",
     "if x <= y and (x < y or weight > w):",
     [NEXT_WRITE, TESTS + "test_greedy_matches_fraction_oracle"],
     "a stretched tie goes to the smaller time"),
    (ALGORITHMS,
     "if h:  # the left neighbour",
     "if 0:  # the left neighbour",
     [SCAN],
     "the evicted item's left neighbour is refiled"),
    (ALGORITHMS,
     "if h < len(runs):  # an interior right neighbour",
     "if 0:  # an interior right neighbour",
     [SCAN],
     "the evicted item's interior right neighbour is refiled"),
    (ALGORITHMS,
     "if run[0] == g:\n                    run[2].append(m)",
     "if run[0] == g:\n                    pass",
     [SCAN],
     "the previous newest joins the last run"),
    (ALGORITHMS,
     "g += (runs[h][1] if h < len(runs) else m) - x",
     "g += x - x",
     [SCAN],
     "the left neighbour's new gap reaches to its new right neighbour"),
    (ALGORITHMS,
     "if not items:\n                    del runs[h]\n",
     "if False:\n                    del runs[h]\n",
     [SCAN, DEPTH],
     "the winner's run leaves the list of runs once it is empty"),
    (ALGORITHMS,
     "fill = range(self.T, min(T, self.S - 1))",
     "fill = range(self.T, min(T, self.S))",
     [TESTS + "test_a_seek_takes_the_fill_as_one_step_per_arrival"],
     "a seek leaves the filling arrival to step, which schedules a stretched curator"),
    (ALGORITHMS,
     "for tbar, k in self.where.items():",
     "for tbar, k in zip(self.where, sorted(self.where.values())):",
     [LOOKUP_TESTS + "test_a_curator_table_matches_replay"],
     "table() pairs each time with its own site, which evictions reorder"),
    (SURFACE,
     "keeps its order\n            slots.byteswap()",
     "keeps its order",
     [PACKED_HEX, SURFACE_TESTS + "test_linear_pack_matches_the_shift_loop"],
     "a wide pack writes big-endian hex on a little-endian host"),
    (SURFACE,
     "bytes.fromhex(text))\n        if _SWAP and value_bits > 8:",
     "bytes.fromhex(text))\n        if False:",
     [SURFACE_TESTS + "test_linear_unpack_matches_the_shift_loop",
      SURFACE_TESTS + "test_hex_round_trip"],
     "a wide unpack reads big-endian hex on a little-endian host"),
    (SURFACE,
     "slots = slots[:]  # a copy",
     "pass  # a copy",
     [SURFACE_TESTS + "test_typed_slots_pack_and_unpack_as_a_list_does"],
     "the pack byteswaps a copy, so the caller's array keeps its values"),
    (SURFACE,
     '_BIT_DIGITS = b"01"',
     '_BIT_DIGITS = b"10"',
     [SURFACE_TESTS + "test_hex_examples", PACKED_HEX],
     "a 1-bit slot of 1 packs as the bit 1"),
    (CLI,
     'cell.replace("{", "{{").replace("}", "}}")',
     "cell",
     ["tests/test_cli.py::TestExplode::test_output_bytes_are_frozen",
      "tests/test_cli.py::TestExplode::test_matches_one_explode_row_per_row"],
     "a passed-through cell's braces are escaped in the record template"),
    (ALGORITHMS,
     "if t > 0 and (T + 1) & ((1 << t) - 1):",
     "if t > 1 and (T + 1) & ((1 << t) - 1):",
     [LOOKUP_TESTS + "test_lookup_replay_examples",
      "tests/test_conformance.py::test_grid_rows_are_frozen"],
     "steady discards every arrival whose hanoi value is below its epoch, from epoch 1"),
    (ALGORITHMS,
     "if limit is not None and count > limit:",
     "if limit is not None and count > limit and (capacity is None or count <= capacity):",
     [SAME_FAULT, "tests/test_cli.py::TestLookup::test_replay_cap_failure"],
     "past both bounds, the limit is reported before capacity"),
    (SURFACE,
     "    slots = unpack_slots_hex(text, S, value_bits)\n"
     "    _validate_time(T)\n"
     "    _refuse(algo, S, T, capacity, limit)\n",
     "    _validate_time(T)\n"
     "    _refuse(algo, S, T, capacity, limit)\n"
     "    slots = unpack_slots_hex(text, S, value_bits)\n",
     [SAME_FAULT],
     "a dump's hex digest is checked before its T"),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _run_tests(tree: Path, tests: list[str]) -> str:
    # "passed", "failed" or "timed out"
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        every_test = sorted({test for *_, tests, _ in MUTANTS for test in tests})
        outcome = _run_tests(tree, every_test)
        print(f"unmutated: the {len(every_test)} named tests {outcome}", flush=True)
        if outcome != "passed":
            return 1
        for path, old, new, tests, why in MUTANTS:
            target = tree / path
            original = target.read_text()
            count = original.count(old)
            if count != 1:
                failed += 1
                print(f"{path}: {old!r} occurs {count} times, not once: FAILED", flush=True)
                continue
            target.write_text(original.replace(old, new))
            start = time.perf_counter()
            outcome = _run_tests(tree, tests)
            target.write_text(original)
            survived = outcome == "passed"
            failed += survived
            verdict = "SURVIVED" if survived else f"killed ({outcome})"
            print(f"{why}: {old!r} -> {new!r}, {verdict} in "
                  f"{time.perf_counter() - start:.1f} s", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
