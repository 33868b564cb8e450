"""One unit of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the workload, seed, mode and input files.  Modes:

* ``time``   -- untraced unit; reports setup time, samples and peak RSS;
* ``trace``  -- the same unit with spans around every cross-module call;
* ``extras`` -- the unit again, then the bytes streamsieve still holds once
  the workload drops its objects, then the kernel instruments
  (``streamsieve.benchmark.run_benchmark``) and the traced probe.

The result is one JSON object on the last line of stdout.  Every worker
starts with a cold replay memo, as a real producer or consumer process does.
"""

import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of caches

import gc
import json
import os
import resource
import statistics
import tempfile
import time
import types
from pathlib import Path

import tracing
import workloads

KERNEL_REPLICATES = 3


def pin_to_fastest_cpu() -> None:
    """Run on whichever allowed CPU is fastest right now.

    On shared hosts a CPU can run at a fraction of its speed while a
    neighbour keeps its sibling busy.  A few milliseconds of probing per CPU
    keep a unit off the one that is slowed at the moment it starts.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))

    def probe() -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(20000):
            x += (i * i) >> 3
        return time.perf_counter() - t0

    speeds = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        probe()
        speeds.append((min(probe(), probe()), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})


def import_streamsieve(root: Path):
    sys.path.insert(0, str(root / "src"))
    sys.dont_write_bytecode = False
    import streamsieve

    if not Path(streamsieve.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"streamsieve imported from {streamsieve.__file__}, not {root / 'src'}")
    return streamsieve


def kernel_instruments(ss) -> dict:
    """Bare selection cost through run_benchmark, median ns per item.

    steady: S=4096 over a deep window.  greedy: the ingest-greedy producers'
    curators, stretched S=64 and tilted S=1024, each over [0, 4096) and
    [0, 3*S) respectively, fill steps included.
    """
    cases = {
        "algorithms.steady_assign_ns": (ss.STEADY, 4096, (1 << 40, (1 << 40) + 20000)),
        "algorithms.greedy_step_ns.S64": (ss.STRETCHED, 64, (0, 4096)),
        "algorithms.greedy_step_ns.S1024": (ss.TILTED, 1024, (0, 3 * 1024)),
    }
    out = {}
    for metric, (algo, S, window) in cases.items():
        rows = ss.run_benchmark(algo, [S], [window], KERNEL_REPLICATES)
        out[metric] = statistics.median(row.ns_per_item for row in rows)
    return out


def package_bytes() -> int:
    """Bytes reachable from streamsieve's module globals.

    The walk stops at modules, and at classes and functions defined outside
    the package, so it counts what the package itself keeps alive: the
    replay memo and any other process-wide cache.
    """
    roots = [m.__dict__ for n, m in list(sys.modules.items()) if n.split(".")[0] == "streamsieve"]
    seen: set[int] = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, types.ModuleType):
            continue
        if isinstance(obj, (type, types.FunctionType, types.BuiltinFunctionType)):
            if not str(getattr(obj, "__module__", "")).startswith("streamsieve"):
                continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def retained_kib(workload, ss, prepared, state, spec) -> tuple[dict, float]:
    """Run the unit, drop the workload's objects, report what the package holds on to."""
    before = package_bytes()
    unit = workload.run(ss, prepared, state, spec)
    workload.drop(state)
    gc.collect()
    return unit, (package_bytes() - before) / 1024


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    workload = workloads.WORKLOADS[spec["workload"]]
    prepared = workload.prepare(spec)  # input generation: not part of setup
    mode = spec["mode"]
    pin_to_fastest_cpu()

    t0 = time.perf_counter()
    ss = import_streamsieve(root)
    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    state = workload.build(ss, prepared)
    if tracer is not None and workload.cli_span:
        state = tracer.wrap(state, workload.cli_span)
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s}
    if mode == "extras":
        unit, result["algorithms.retained_kib"] = retained_kib(workload, ss, prepared, state, spec)
        result.update(kernel_instruments(ss))
        probe = tracing.Tracer()
        tracing.instrument(probe)
        with tempfile.TemporaryDirectory(dir=spec["tmp"]) as tmp:
            tracing.probe(probe, ss, Path(tmp))
        result["probe"] = tracing.layer_metrics(probe)
    elif mode == "trace":
        unit = workload.run(ss, prepared, state, spec)
        workload.contrast(ss, prepared)
        result["layers"] = tracing.layer_metrics(tracer)
        result["not_instrumented"] = tracer.missing
    else:
        unit = workload.run(ss, prepared, state, spec)
    result["unit"] = unit
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
