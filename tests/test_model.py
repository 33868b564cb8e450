"""A stateful model test of the public surface.

One hypothesis state machine drives a ``Surface`` of a scalar or hybrid
layout with S <= 16 through ingests, reloads from its own dump, lookups,
explodes and pointwise selections at earlier arrivals.  The model is built
from ``tests/reference_rules`` alone: the greedy selections by exact
fractions over the whole retained set, the steady ones by the epoch walk.
It keeps each site's last write time and value, and every public answer
must agree with it after every rule.
"""

from functools import lru_cache

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from streamsieve import (
    STEADY,
    STRETCHED,
    TILTED,
    VALID_VALUE_BITS,
    CapacityError,
    Surface,
    explode_row,
    hybrid,
    last_write_times,
    lookup_replay,
    pack_slots_hex,
    site_selection,
    stream_capacity,
)
from streamsieve.algorithms import _layout

from reference_rules import epoch_walk_site, greedy_selections

# the deepest T a machine goes to; S=4 greedy layouts stop at capacity (14)
DEPTH = 600

LAYOUTS = [
    (STEADY, 4),
    (STEADY, 16),
    (STRETCHED, 4),
    (STRETCHED, 8),
    (STRETCHED, 16),
    (TILTED, 4),
    (TILTED, 8),
    (TILTED, 16),
    (hybrid(("stretched", 4), ("steady", 8), ("tilted", 4)), 16),
    (hybrid(("tilted", 8), ("stretched", 8)), 16),
    (hybrid(("steady", 4), ("tilted", 4)), 8),
]


@lru_cache(maxsize=None)
def _greedy(kind: str, size: int) -> tuple:
    # a greedy segment's selections to DEPTH or its capacity
    return tuple(greedy_selections(kind, size, min(DEPTH, (1 << size) - 2)))


def _selection(algo, S: int, T: int) -> frozenset:
    # the model's sites for arrival T: each segment's pick, offset
    picked = set()
    for kind, size, offset in _layout(algo, S)[0]:
        site = epoch_walk_site(size, T) if kind == "steady" else _greedy(kind, size)[T]
        if site is not None:
            picked.add(offset + site)
    return frozenset(picked)


class SurfaceModel(RuleBasedStateMachine):
    @initialize(layout=st.sampled_from(LAYOUTS), value_bits=st.sampled_from(VALID_VALUE_BITS))
    def start(self, layout, value_bits):
        self.algo, self.S = layout
        self.value_bits = value_bits
        capacity = stream_capacity(self.algo, self.S)
        self.limit = DEPTH if capacity is None else min(DEPTH, capacity)
        self.surface = Surface(self.algo, self.S, value_bits)
        self.times = [None] * self.S  # each site's last write time
        self.values = [0] * self.S  # and the value it holds

    @property
    def T(self) -> int:
        return self.surface.T

    def _text(self) -> str:
        return pack_slots_hex(self.values, self.value_bits)

    @rule(data=st.data(), count=st.integers(1, 40))
    def ingest(self, data, count):
        value = st.integers(0, (1 << self.value_bits) - 1)
        for v in data.draw(st.lists(value, min_size=count, max_size=count)):
            T = self.T
            if T == self.limit:
                if T == stream_capacity(self.algo, self.S):
                    try:
                        self.surface.ingest(v)
                    except CapacityError:
                        pass
                    else:
                        raise AssertionError(f"ingest past capacity at T={T}")
                    assert self.T == T
                return
            picked = self.surface.ingest(v)
            assert picked == _selection(self.algo, self.S, T), T
            for k in picked:
                self.times[k] = T
                self.values[k] = v

    @rule()
    def reload(self):
        before = self.surface.slots.tolist()
        text = self.surface.to_hex()
        # a dump leaves the surface's own slots as they were
        assert self.surface.slots.tolist() == before
        assert self.surface.to_hex() == text
        self.surface = Surface.from_hex(self.algo, self.S, self.T, self.value_bits, text)
        assert self.surface.slots.tolist() == before

    @rule()
    def last_writes(self):
        assert last_write_times(self.algo, self.S, self.T) == self.times

    @rule()
    def replay(self):
        assert lookup_replay(self.algo, self.S, self.T) == self.times

    @rule()
    def explode(self):
        values = self.values
        expected = [(k, t, None if t is None else values[k]) for k, t in enumerate(self.times)]
        assert explode_row(self.algo, self.S, self.T, self.value_bits, self._text()) == expected

    @precondition(lambda self: self.T > 0)
    @rule(data=st.data())
    def earlier_selection(self, data):
        T = data.draw(st.integers(0, self.T - 1))
        assert site_selection(self.algo, self.S, T) == _selection(self.algo, self.S, T), T

    @invariant()
    def dumps_the_model(self):
        before = self.surface.slots.tolist()
        assert self.surface.to_hex() == self._text()
        assert self.surface.slots.tolist() == before == self.values

    @invariant()
    def written_sites_are_the_models(self):
        assert self.surface.written == [tbar is not None for tbar in self.times]


SurfaceModel.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestSurfaceModel = SurfaceModel.TestCase
