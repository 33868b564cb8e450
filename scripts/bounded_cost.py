"""Run the costliest inputs known to finish, each under its own time budget.

Every row is one CLI call, reload or script with the budget, in seconds,
that it must finish in on a shared 2-vCPU CI runner, and the exit status
it must give: 0 unless the row names another, as a refusal does.  A row
that exits otherwise or runs past its budget (it is killed there) fails
the script; every row runs either way, and each prints its time.  Inputs
a row needs are written to a temporary directory first, untimed.

Each CLI row runs ``python -m streamsieve.cli`` with this interpreter, so
the package need only be importable, as from a checkout:

    PYTHONPATH=src python scripts/bounded_cost.py
"""

from __future__ import annotations

import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HEADER = "dstream_algo,dstream_S,dstream_T,dstream_storage_hex\n"
CLI = [sys.executable, "-m", "streamsieve.cli"]


def _reload(code: str) -> list[str]:
    return [sys.executable, "-c", code]


def _tilted_dumps(path: Path) -> None:
    # 256 tilted rows at seeded T < 2**17
    rng = random.Random(256)
    rows = ("tilted,64,%d,%s\n" % (rng.randrange(2**17), "00" * 64) for _ in range(256))
    path.write_text(HEADER + "".join(rows))


def _steady_dumps(path: Path) -> None:
    # two steady S=4096 8-bit rows
    path.write_text(HEADER + "".join("steady,4096,%d,%s\n" % (T, "5a" * 4096) for T in (10**6, 10**9)))


def _vectors(path: Path) -> None:
    # the benchmark's vector mix: 50 188 vectors
    subprocess.run(
        [*CLI, "validate", "--generate", str(path),
         "--algos", "steady,stretched,tilted,hybrid(steady:32+tilted:32)",
         "--max-S", "64", "--max-T", "4096", "--steady-extra", "100"],
        check=True,
    )


# (what the row shows, budget in seconds, command with {dir} for the
# temporary directory, the input it needs as (file name, writer) or None,
# and optionally the exit status it expects, 0 if not given)
ROWS = [
    ("steady lookup", 5, [*CLI, "lookup", "--algo", "steady", "--S", "4", "--T", "8"], None),
    # the deepest reloadable stretched table: skip-ahead takes milliseconds
    ("stretched S=64 lookup at T=2**22", 5,
     [*CLI, "lookup", "--algo", "stretched", "--S", "64", "--T", "4194304"], None),
    # the slowest reload: the deepest legal tilted dump replays 2**22 steps
    ("tilted S=64 reload at T=2**22", 60, _reload(
        "from streamsieve import TILTED, Surface\n"
        "Surface.from_hex(TILTED, 64, 2**22, 8, '00' * 64)"), None),
    # a stretched reload to the same depth jumps from write to write
    ("stretched S=1024 reload at T=2**22", 5, _reload(
        "from streamsieve import STRETCHED, Surface\n"
        "Surface.from_hex(STRETCHED, 1024, 2**22, 8, '00' * 1024)"), None),
    # a stretched write scans the runs once: about 2.6 s on a 2-vCPU box
    ("stretched S=2**16 reload at T=2**22", 15, _reload(
        "from streamsieve import STRETCHED, Surface\n"
        "Surface.from_hex(STRETCHED, 2**16, 2**22, 8, '00' * 2**16)"), None),
    # the largest legal greedy dumps: a step's cost does not grow with S, so
    # about 7.7 s tilted and 2.0 s stretched on a 2-vCPU box (an O(S) step
    # took about 87 min tilted, extrapolated, and minutes stretched)
    ("tilted S=2**20 reload at T=2**22", 30, _reload(
        "from streamsieve import TILTED, Surface\n"
        "Surface.from_hex(TILTED, 2**20, 2**22, 8, '00' * 2**20)"), None),
    ("stretched S=2**20 reload at T=2**22", 10, _reload(
        "from streamsieve import STRETCHED, Surface\n"
        "Surface.from_hex(STRETCHED, 2**20, 2**22, 8, '00' * 2**20)"), None),
    # the largest legal dump, every slot at its widest value: a linear pack
    # (the former shift loop: about 24 min, extrapolated)
    ("to_hex of the largest legal surface", 5, [sys.executable, "-c",
     "from streamsieve import STEADY, Surface\n"
     "s = Surface(STEADY, 2**20, 64)\n"
     "s.slots = [2**64 - 1] * 2**20\n"
     "s.to_hex()"], None),
    # the same surface holding its typed slot array, as a reload leaves it:
    # about 0.15 s on a 2-vCPU box, most of it the 16 MiB of hex both ways
    ("to_hex of the largest legal surface, reloaded", 5, _reload(
        "from streamsieve import STEADY, Surface\n"
        "s = Surface.from_hex(STEADY, 2**20, 2**20, 64, 'f' * 2**24)\n"
        "s.to_hex()"), None),
    # an all-steady hybrid looks up and reloads in closed form at the
    # deepest T the steady rule takes
    ("all-steady hybrid lookup at T=2**64-1", 5,
     [*CLI, "lookup", "--algo", "hybrid(steady:4+steady:4)", "--S", "8",
      "--T", "18446744073709551615"], None),
    # the steady lookup resolves at most 2S arrivals, each in O(1): 2**21 here
    ("steady S=2**20 lookup at T=2**64-1", 5,
     [*CLI, "lookup", "--algo", "steady", "--S", "1048576", "--T", "18446744073709551615"],
     None),
    ("all-steady hybrid reload at T=2**64-1", 5, _reload(
        "from streamsieve import Surface, parse_algorithm\n"
        "Surface.from_hex(parse_algorithm('hybrid(steady:4+steady:4)'), 8, 2**64 - 1, 8, '00' * 8)"),
     None),
    # explode replays the rows' one layout once, to the deepest T
    ("explode 256 tilted S=64 rows", 10,
     [*CLI, "explode", "{dir}/tilted_dumps.csv", "{dir}/tilted_long.csv", "--value-bits", "8"],
     ("tilted_dumps.csv", _tilted_dumps)),
    # 8 192 records, each repeating its row's 8 KiB hex: 64 MiB
    ("explode 2 steady S=4096 rows", 10,
     [*CLI, "explode", "{dir}/steady_dumps.csv", "{dir}/steady_long.csv", "--value-bits", "8"],
     ("steady_dumps.csv", _steady_dumps)),
    # each scalar layout and each token is resolved once per check
    ("validate --check, the benchmark's mix", 30,
     [*CLI, "validate", "--check", "{dir}/vectors.csv"], ("vectors.csv", _vectors)),
    # the greedy curator's frozen selections at S=2**16 (see the script)
    ("greedy digests at S=2**16", 60,
     [sys.executable, str(Path(__file__).with_name("large_s_digests.py"))], None),
    # refused before the first step: a steady window of 2**64 - 1 arrivals
    ("bench refuses a window past the replay cap", 5,
     [*CLI, "bench", "--sizes", "4", "--depths", "0:18446744073709551615", "--replicates", "1"],
     None, 2),
    # refused before the first row: a steady grid of 10**11 rows
    ("validate --generate refuses a grid past the replay cap", 5,
     [*CLI, "validate", "--generate", "{dir}/refused.csv", "--algos", "steady",
      "--max-S", "4", "--max-T", "100000000000", "--steady-extra", "0"], None, 2),
]


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, budget, command, needs, *expect in ROWS:
            expected = expect[0] if expect else 0
            if needs is not None:
                needs[1](Path(tmp) / needs[0])
            argv = [arg.replace("{dir}", tmp) for arg in command]
            start = time.perf_counter()
            try:
                status = subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=budget).returncode
            except subprocess.TimeoutExpired:
                status = "killed at the budget"
            elapsed = time.perf_counter() - start
            failed += status != expected
            verdict = "ok" if status == expected else f"FAILED ({status})"
            print(f"{name}: {elapsed:.2f} s of {budget} s, {verdict}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows within budget")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
