"""Check that the tests licensing the greedy curator's fast paths still fail
when one of those paths is broken.

Each mutant is one exact text edit of one file.  For each, ``src/``,
``tests/`` and ``pyproject.toml`` are copied to a temporary directory, the
edit is applied there, and the named tests run under ``pytest -x -q`` in a
subprocess with a timeout.  A mutant is killed when its tests fail or time
out.  The gate fails when a mutant survives, when its old text does not
occur exactly once in its file (so a change that moves mutated code updates
this table with it), or when the named tests fail on the unmutated copy.
The checkout itself is never edited.

The mutants: both tie rules, each of the three refiles an eviction makes,
a fill bound that takes the filling arrival too, and the two bisect-free
cases of ``_rebucket`` taken for every refile, which only resumed and
stretched states tell apart.  The script prints one line a mutant and
exits 1 on any failure (about a minute on a 2-vCPU box):

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
TESTS = "tests/test_algorithms.py::"
SCAN = TESTS + "test_gap_bucket_curator_matches_scan"
DEPTH = TESTS + "test_gap_bucket_curator_matches_scan_at_depth"
NEXT_WRITE = TESTS + "test_stretched_next_write_matches_scan"

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
     "if idx:  # the left neighbour",
     "if 0:  # the left neighbour",
     [SCAN],
     "the evicted item's left neighbour is refiled"),
    (ALGORITHMS,
     "if idx + 1 < last:  # an interior right neighbour",
     "if 0:  # an interior right neighbour",
     [SCAN],
     "the evicted item's interior right neighbour is refiled"),
    (ALGORITHMS,
     "if idx < last:  # the previous newest",
     "if 0:  # the previous newest",
     [SCAN],
     "the previous newest joins a bucket"),
    (ALGORITHMS,
     "fill = range(self.T, min(T, self.S - 1))",
     "fill = range(self.T, min(T, self.S))",
     [TESTS + "test_a_seek_takes_the_fill_as_one_step_per_arrival"],
     "only step takes the arrival that fills the buffer, and files it"),
    (ALGORITHMS,
     "del bucket[0 if bucket[0] == b else bisect_left(bucket, b)]",
     "del bucket[0]",
     [DEPTH, NEXT_WRITE],
     "a refile leaves its bucket at the front only in tilted states stepped from 0"),
    (ALGORITHMS,
     "elif bucket[-1] < b:",
     "elif True:",
     [DEPTH, NEXT_WRITE],
     "a refile joins its bucket at the back only in tilted states stepped from 0"),
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
