"""streamsieve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ingest-steady, ingest-greedy, explode-mixed, validate-check,
or ``all`` to run the four in turn.  The benchmark measures the package in
``src/`` of the checkout it sits in; it needs no install.

A run makes its inputs from the seed, then starts fresh worker processes
(perfbench/worker.py) one after another, each doing one unit of the
workload, until about S seconds have passed (at least three units).  Each
worker starts with a cold replay memo.  The outputs of the first unit are
checked in full; every later unit must produce outputs with the same
digest.  Checks run outside every timed region.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from a traced unit (alternating with untraced units, whose difference is
the tracing overhead), plus one extra worker for retained memory, the
kernel instruments and the probe.  Metric names and units come from
BENCHMARK.json; perfbench/README.md says what each one means per workload.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of caches

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import tracing  # perfbench modules load before bytecode writing is re-enabled
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_UNITS = 3
MIN_TRACE_PAIRS = 1
RUN_DEADLINE_S = 170  # a whole run, workers included, ends within this
RESERVE_S = 30  # no new unit starts later than this before the deadline


def quantile(values, q: int) -> float:
    """q-th percentile, q in (0, 100), by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spawn(spec: dict, tmp: Path, timeout: float) -> dict:
    path = tmp / f"spec-{spec['unit']}.json"
    path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """One workload, one seed, one mode."""

    def __init__(self, ss, workload, seed: int, seconds: float, trace: bool, tmp: Path):
        self.ss = ss
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.results: list[tuple[str, dict]] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def spec(self, mode: str, unit: int) -> dict:
        return {
            "root": str(ROOT),
            "workload": self.workload.name,
            "seed": self.seed,
            "tmp": str(self.tmp),
            "inputs": self.inputs,
            "mode": mode,
            "unit": unit,
            "outputs": str(self.tmp / "outputs.json") if unit == 0 else None,
        }

    def execute(self) -> None:
        clock = time.monotonic()
        self.inputs = self.workload.make_inputs(self.seed, self.tmp)
        if "note" in self.inputs:
            self.notes.append(self.inputs["note"])
        phases = [("inputs", time.monotonic() - clock)]
        modes = ("time", "trace") if self.trace else ("time",)
        minimum = MIN_TRACE_PAIRS * 2 if self.trace else MIN_UNITS
        start = time.monotonic()
        spawned = 0
        while time.monotonic() < self.deadline - RESERVE_S:
            self.unit(modes[len(self.results) % len(modes)], spawned)
            spawned += 1
            elapsed = time.monotonic() - start
            done = len(self.results)
            if done >= minimum and done % len(modes) == 0:
                if elapsed + elapsed / spawned * len(modes) > self.seconds:
                    break
        phases.append(("units", time.monotonic() - start))
        if self.trace:
            clock = time.monotonic()
            self.unit("extras", spawned)
            phases.append(("extras", time.monotonic() - clock))
        clock = time.monotonic()
        first = self.results[0][1]["unit"]
        found = self.workload.check(self.ss, self.spec("time", 0), first)
        self.problems += found
        self.failed += min(len(found), first["ops"])
        phases.append(("checks", time.monotonic() - clock))
        self.notes.append("wall time: " + ", ".join(f"{name} {secs:.1f} s" for name, secs in phases))

    def unit(self, mode: str, unit: int) -> None:
        try:
            result = spawn(self.spec(mode, unit), self.tmp, max(self.deadline - time.monotonic(), 1))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            self.problems.append(f"unit {unit} ({mode}): {exc}")
            self.attempted += 1
            self.failed += 1
            if not self.results:
                raise
            return
        ops = result["unit"]["ops"]
        self.attempted += ops
        if self.results and result["unit"]["digest"] != self.results[0][1]["unit"]["digest"]:
            self.problems.append(f"unit {unit} ({mode}): output digest differs from unit 0")
            self.failed += ops
        self.results.append((mode, result))

    def of(self, mode: str) -> list[dict]:
        return [r for m, r in self.results if m == mode]

    # -- end to end ------------------------------------------------------

    def end_to_end(self) -> tuple[dict, list[str]]:
        """Generic metrics for BENCHMARK.json, printed under the workload's own names.

        Every timed part of a unit (a slice of ingests, a dump, a resume, a
        few milliseconds of a CLI call) is repeated identically by every
        unit of the run.  Each part is taken at its fastest repetition over
        the units, because interference from outside the process only ever
        slows a part down; rates and latencies are computed from those.
        Medians over units and pooled percentiles are printed beside them.
        """
        timed = self.of("time")
        units = [r["unit"] for r in timed]
        n = len(units)
        lines = []

        def show(name, value, unit, samples):
            lines.append(f"{name} = {value:.6g} {unit} ({samples})")

        def fastest(key):
            """Each part's fastest time over the units, in ns."""
            return [min(part) for part in zip(*(u[key] for u in units))]

        latency_of = self.workload.latency
        if latency_of in ("dump", "resume"):
            items = units[0]["items"]
            dumps = fastest("dump_ns")
            throughput = items / (sum(fastest("chunk_ns")) + sum(dumps)) * 1e9
            latency = statistics.median(dumps if latency_of == "dump" else fastest("resume_ns")) / 1e6
            rate_name, rate_unit = "ingest_items_per_s", "items/s"
            rates = [items / (sum(u["chunk_ns"]) + sum(u["dump_ns"])) * 1e9 for u in units]
            pooled = [d / 1e3 for u in units for d in u["dump_ns"]]
            extra = [
                ("dump_p50_us", statistics.median(pooled), "us", f"n={len(pooled)} dumps, pooled"),
                ("dump_p90_us", quantile(pooled, 90), "us", f"n={len(pooled)} dumps, pooled"),
            ]
            if latency_of == "resume":
                resumes = [d / 1e6 for u in units for d in u["resume_ns"]]
                extra.append(("resume_p50_ms", statistics.median(resumes), "ms", f"n={len(resumes)} resumes, pooled"))
            latency_name = f"median {latency_of}"
        else:
            work = "rows" if "rows" in units[0] else "vectors"
            call = sum(fastest("parts_ns"))
            throughput = units[0][work] / call * 1e9
            latency = call / 1e6
            rate_name = "explode_rows_per_s" if work == "rows" else "check_vectors_per_s"
            rate_unit = f"{work}/s"
            rates = [u[work] / u["call_ns"] * 1e9 for u in units]
            calls = [u["call_ns"] / 1e6 for u in units]
            extra = [("call_p50_ms", statistics.median(calls), "ms", f"median of {n} CLI calls")]
            if work == "rows":
                extra.append(("cli.explode_bytes_written", units[0]["bytes_written"], "bytes", "per call"))
            latency_name = "CLI call"
        metrics = {
            "throughput_per_s": throughput,
            "latency_p50_ms": latency,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            "setup_s": statistics.median(r["setup_s"] for r in timed),
        }
        show("throughput_per_s", throughput, "1/s", f"{rate_name}, parts at their fastest of {n} units")
        show("latency_p50_ms", latency, "ms", f"{latency_name}, parts at their fastest of {n} units")
        show(rate_name, statistics.median(rates), rate_unit, f"median of {n} units")
        for name, value, unit, samples in extra:
            show(name, value, unit, samples)
        show("peak_rss_mb", metrics["peak_rss_mb"], "MiB", f"median of {n} processes")
        show("setup_s", metrics["setup_s"], "s", f"median of {n} processes")
        return metrics, lines

    # -- per layer -------------------------------------------------------

    def per_layer(self, names) -> tuple[dict, list[str]]:
        traced = self.of("trace")
        extras = self.of("extras")[0]
        probe = extras["probe"]
        metrics, lines = {}, []
        for name in names:
            if name in tracing.COUNT_METRICS:
                values = [r["layers"][name] for r in traced]
                if len(set(values)) != 1:
                    self.problems.append(f"count {name} differs between traced units: {values}")
                metrics[name] = values[0]
                continue
            values = [r["layers"].get(name) for r in traced]
            values = [v for v in values if v is not None]
            if values:
                metrics[name] = statistics.median(values)
            elif name in extras:
                metrics[name] = extras[name]
            elif probe.get(name) is not None:
                metrics[name] = probe[name]
                lines.append(f"{name}: not entered by this workload; value from the probe")
        units = [r["unit"] for r in traced]
        metrics["cli.explode_bytes_written"] = units[0].get("bytes_written", 0)
        # units alternate untraced, traced: each pair ran close together in time
        pairs = list(zip(self.of("time"), traced))
        diffs = [t["unit"]["elapsed_ns"] - u["unit"]["elapsed_ns"] for u, t in pairs]
        metrics["trace.overhead_s"] = statistics.median(diffs) / 1e9
        untraced = statistics.median(u["unit"]["elapsed_ns"] for u, _ in pairs) / 1e9
        lines.append(
            f"tracing overhead: {metrics['trace.overhead_s']:.3f} s per unit, median traced minus "
            f"untraced over {len(pairs)} adjacent pairs (untraced unit median {untraced:.3f} s)"
        )
        missing = sorted({m for r in traced for m in r.get("not_instrumented", [])})
        if missing:
            lines.append(f"not instrumented (absent in this version): {', '.join(missing)}")
        return metrics, lines


def run_one(ss, bench: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    run = Run(ss, workloads.WORKLOADS[name], seed, seconds, trace, tmp)
    try:
        run.execute()
        declared = bench["per_layer"] if trace else bench["end_to_end"]
        values, lines = (run.per_layer([m["name"] for m in declared]) if trace else run.end_to_end())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            run.problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    digest = run.results[0][1]["unit"]["digest"]
    print(f"== {name} seed={seed} trace={int(trace)}: {len(run.results)} worker processes")
    for line in run.notes + lines:
        print(f"  {line}")
    print(f"  digest {name} seed={seed} sha256={digest}")
    print(f"  failed_ops_ratio = {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    for problem in run.problems[:20]:
        print(f"  PROBLEM: {problem}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    # on SIGTERM, unwind: subprocess.run kills the running worker and the
    # finally blocks remove the temporary files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "streamsieve" / "__init__.py", ROOT / "tests" / "reference_rules.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a streamsieve checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = False
    import streamsieve

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(streamsieve, bench, name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        for name, result in results.items():
            print(f"{name} {json.dumps(result)}")
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
