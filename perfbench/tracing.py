"""Spans around calls into each streamsieve module, recorded from outside.

Nothing under ``src/`` changes.  ``instrument`` replaces the module-level
names one module uses to call another (``surface.site_selection``,
``cli.explode_row``, ...) and a few methods (``Surface.ingest``,
``Surface.from_hex``, ``CompressingBuffer.ingest``) with wrappers that
record a span: name, start, end, parent.  Spans stay in compact arrays in
memory until ``summary`` reduces them at the end of the unit.  Self time
is a span's duration minus the durations of its direct children.

``selection_stream`` returns a generator, so its cost is the time spent
inside ``next`` on it, summed per item rather than recorded as spans.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        nid = self._id(name)
        stack = self._stack
        names, parents, starts, ends, raised = self.name, self.parent, self.start, self.end, self.raised
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            raised.append(1)
            stack.append(idx)
            t0 = perf_counter_ns()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
                raised[idx] = 0
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span of the given name."""
        return self.wrap(fn, name)(*args)

    def wrap_stream(self, fn, name: str):
        counts = self.counts

        def timed(gen):
            step = gen.__next__
            ns = items = 0
            try:
                while True:
                    t0 = perf_counter_ns()
                    try:
                        item = step()
                    except StopIteration:
                        ns += perf_counter_ns() - t0
                        return
                    ns += perf_counter_ns() - t0
                    items += 1
                    yield item
            finally:
                counts[name + ".ns"] += ns
                counts[name + ".items"] += items

        def traced(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, observe=None, stream=False):
        """Replace owner.attr with a traced wrapper; note it if owner lacks attr."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, observe)))
        elif stream:
            setattr(owner, attr, self.wrap_stream(raw, name))
        else:
            setattr(owner, attr, self.wrap(raw, name, observe))

    def summary(self) -> dict:
        """name -> {calls, total_ns, self_ns, raised}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "raised": 0} for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["total_ns"] += dur[i]
            agg["self_ns"] += dur[i] - child[i]
            agg["raised"] += self.raised[i]
        return out


def _count_discards(counts, args, result):
    counts["surface.ingests"] += 1
    if not result:
        counts["surface.discards"] += 1


def _count_replay_steps(counts, args, result):
    counts["lookup.replay_steps"] += args[2]


def _count_vectors(counts, args, result):
    counts["conformance.vectors"] += len(args[0])


def instrument(tracer: Tracer) -> None:
    """Trace every cross-module call the workloads make into streamsieve."""
    from streamsieve import cli, compressing_buffer, conformance, lookup, surface

    tracer.patch(surface, "has_ingest_capacity", "algorithms.has_ingest_capacity")
    tracer.patch(surface, "site_selection", "algorithms.site_selection")
    tracer.patch(conformance, "site_selection", "algorithms.site_selection")
    tracer.patch(lookup, "selection_stream", "algorithms.selection_stream", stream=True)
    tracer.patch(surface.Surface, "ingest", "surface.ingest", _count_discards)
    tracer.patch(surface.Surface, "from_hex", "surface.from_hex")
    tracer.patch(surface, "pack_slots_hex", "surface.pack_slots_hex")
    tracer.patch(surface, "unpack_slots_hex", "surface.unpack_slots_hex")
    tracer.patch(lookup, "unpack_slots_hex", "surface.unpack_slots_hex")
    tracer.patch(lookup, "last_write_times", "lookup.last_write_times")
    tracer.patch(lookup, "lookup_steady_fast", "lookup.lookup_steady_fast")
    tracer.patch(lookup, "lookup_replay", "lookup.lookup_replay", _count_replay_steps)
    tracer.patch(cli, "explode_row", "lookup.explode_row")
    tracer.patch(cli, "read_vectors_csv", "conformance.read_vectors_csv")
    tracer.patch(cli, "check_vectors", "conformance.check_vectors", _count_vectors)
    tracer.patch(compressing_buffer.CompressingBuffer, "ingest", "compressing_buffer.ingest")


# (metric, span, statistic, scale): statistic is "total" or "self" time per
# call, or per item for the generator and per vector for check_vectors.
SPAN_METRICS = (
    ("algorithms.site_selection_ns", "algorithms.site_selection", "total", 1),
    ("algorithms.has_ingest_capacity_ns", "algorithms.has_ingest_capacity", "total", 1),
    ("surface.ingest_self_ns", "surface.ingest", "self", 1),
    ("surface.pack_slots_hex_us", "surface.pack_slots_hex", "total", 1e-3),
    ("surface.unpack_slots_hex_us", "surface.unpack_slots_hex", "total", 1e-3),
    ("surface.from_hex_ms", "surface.from_hex", "total", 1e-6),
    ("lookup.lookup_steady_fast_ms", "lookup.lookup_steady_fast", "total", 1e-6),
    ("lookup.lookup_replay_ms", "lookup.lookup_replay", "total", 1e-6),
    ("lookup.explode_row_ms", "lookup.explode_row", "total", 1e-6),
    ("cli.explode_self_s", "cli.explode", "self", 1e-9),
    ("cli.validate_self_s", "cli.validate", "self", 1e-9),
    ("conformance.read_vectors_csv_s", "conformance.read_vectors_csv", "total", 1e-9),
    ("compressing_buffer.ingest_ns", "compressing_buffer.ingest", "total", 1),
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced unit.

    A time metric whose span was never entered is None; the caller fills it
    from the probe.  Counts are exact and are never filled in.
    """
    spans = tracer.summary()
    counts = tracer.counts
    out = {}
    for metric, span, stat, scale in SPAN_METRICS:
        agg = spans.get(span)
        if agg and agg["calls"]:
            out[metric] = agg[stat + "_ns"] / agg["calls"] * scale
        else:
            out[metric] = None
    items = counts["algorithms.selection_stream.items"]
    out["algorithms.selection_stream_ns"] = (
        counts["algorithms.selection_stream.ns"] / items if items else None
    )
    check = spans.get("conformance.check_vectors")
    vectors = counts["conformance.vectors"]
    out["conformance.check_vectors_us"] = (
        check["total_ns"] / vectors * 1e-3 if check and vectors else None
    )
    ingests = counts["surface.ingests"]
    out["surface.discard_ratio"] = counts["surface.discards"] / ingests if ingests else 0.0
    out["lookup.replay_steps"] = counts["lookup.replay_steps"]
    explode = spans.get("lookup.explode_row")
    out["lookup.rejects"] = explode["raised"] if explode else 0
    return out


COUNT_METRICS = ("surface.discard_ratio", "lookup.replay_steps", "lookup.rejects")


def probe(tracer: Tracer, ss, tmp) -> None:
    """A fixed, small call of every traced function.

    Used only for time metrics of layers the workload never enters, so that
    every per-layer metric reads as measured.
    """
    import contextlib
    import io

    from streamsieve import cli

    surface = ss.Surface(ss.STEADY, 64, 8)
    for T in range(3000):
        surface.ingest(T & 255)
    text = surface.to_hex()
    for _ in range(5):
        ss.Surface.from_hex(ss.STEADY, 64, 3000, 8, text)
    buffer = ss.CompressingBuffer(64)
    for T in range(3000):
        buffer.ingest(T, T)
    dumps = tmp / "probe_dumps.csv"
    dumps.write_text(
        "dstream_algo,dstream_S,dstream_T,dstream_storage_hex\n"
        f"steady,64,{1 << 40},{'ab' * 64}\n"
        f"tilted,16,300,{'cd' * 16}\n"
        f"steady,64,100,{'ab' * 63}\n"
    )
    vectors = tmp / "probe_vectors.csv"
    with open(vectors, "w", newline="") as fileobj:
        ss.write_vectors_csv(fileobj, ss.generate_vectors(["steady", "tilted"], 16, 256))
    with contextlib.redirect_stderr(io.StringIO()):
        tracer.span("cli.explode", cli.main, ["explode", str(dumps), str(tmp / "probe_out.csv"), "--value-bits", "8"])
        tracer.span("cli.validate", cli.main, ["validate", "--check", str(vectors)])
