"""Stateful fuzzing of a whole deployment.

A hypothesis state machine drives a PDCSystem through random interleaved
operations — imports, overwrites and lockstep appends in both
maintenance modes, rejected appends, index compaction, index/replica
builds and drops, tier migrations, server failures/recoveries, cache
drops, and queries under every strategy — while holding the system to
its core invariants:

* every query answer equals a numpy model kept alongside;
* simulated clocks never go backwards;
* derived state (region min/max) always matches the model data;
* an indexed object has one bitmap per region, and its index file holds
  exactly those bitmaps' bytes.

This is the net for cross-feature interactions the unit suites don't
enumerate (e.g. update → failed server → sorted query).
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.pdc import PDCConfig, PDCSystem
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.storage.device import DeviceKind
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

N = 1 << 11
N_SERVERS = 3


class PDCStateMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**31))
    def setup(self, seed):
        self.rng = np.random.default_rng(seed)
        self.system = PDCSystem(
            PDCConfig(n_servers=N_SERVERS, region_size_bytes=1 << 10)
        )
        self.engine = QueryEngine(self.system)
        self.model = {}  # name -> numpy array (ground truth)
        self.failed = set()
        self.last_elapsed = 0.0
        # Two starting objects so queries always have targets.
        for name in ("a", "b"):
            data = self.rng.gamma(2.0, 0.7, N).astype(np.float32)
            self.system.create_object(name, data)
            self.model[name] = data.copy()

    # ------------------------------------------------------------- mutations
    @rule(
        name=st.sampled_from(["a", "b"]),
        offset=st.integers(0, N - 64),
        value=st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32),
        length=st.integers(1, 64),
    )
    def update_region(self, name, offset, value, length):
        payload = np.full(length, value, dtype=np.float32)
        self.system.update_object_region(name, offset, payload)
        self.model[name][offset : offset + length] = payload

    @rule(
        name=st.sampled_from(["a", "b"]),
        offset=st.integers(0, N - 64),
        length=st.integers(1, 64),
    )
    def overwrite_delta(self, name, offset, length):
        payload = self.rng.gamma(2.0, 0.7, length).astype(np.float32)
        self.system.update_object_region(name, offset, payload, maintenance="delta")
        self.model[name][offset : offset + length] = payload

    @rule(
        length=st.integers(1, 400),
        maintenance=st.sampled_from(["rebuild", "delta"]),
    )
    def append_both(self, length, maintenance):
        # Lockstep, so joint queries keep operands of equal length.
        for name in ("a", "b"):
            payload = self.rng.gamma(2.0, 0.7, length).astype(np.float32)
            self.system.append_to_object(name, payload, maintenance=maintenance)
            self.model[name] = np.concatenate([self.model[name], payload])

    @rule(
        name=st.sampled_from(["a", "b"]),
        maintenance=st.sampled_from(["rebuild", "delta"]),
    )
    def rejected_nan_append(self, name, maintenance):
        # 300 elements always open a region (256 per region), and the
        # NaN lands in it: its histogram cannot be built.
        payload = np.ones(300, dtype=np.float32)
        payload[-1] = np.nan
        with pytest.raises(ValueError):
            self.system.append_to_object(name, payload, maintenance=maintenance)
        assert self.system.get_object(name).n_elements == self.model[name].size

    @rule(name=st.sampled_from(["a", "b"]))
    def compact(self, name):
        obj = self.system.get_object(name)
        if obj.indexes is not None and obj.index_delta_counts is not None:
            due = np.flatnonzero(obj.index_delta_counts)
            if due.size:
                self.system.compact_region_index(name, due)
                assert not obj.index_delta_counts.any()

    @rule(name=st.sampled_from(["a", "b"]))
    def build_index(self, name):
        self.system.build_index(name)

    @rule()
    def build_replica(self):
        if "a" not in self.system.replicas:
            self.system.build_sorted_replica("a", ["b"])

    @rule(
        name=st.sampled_from(["a", "b"]),
        rid=st.integers(0, 1),
        tier=st.sampled_from([DeviceKind.NVRAM, DeviceKind.DISK, DeviceKind.MEMORY]),
    )
    def migrate(self, name, rid, tier):
        self.system.migrate_regions(name, [rid], tier)

    @rule(sid=st.integers(0, N_SERVERS - 1))
    def fail_server(self, sid):
        if sid not in self.failed and len(self.failed) < N_SERVERS - 1:
            self.system.fail_server(sid)
            self.failed.add(sid)

    @rule(sid=st.integers(0, N_SERVERS - 1))
    def recover_server(self, sid):
        if sid in self.failed:
            self.system.recover_server(sid)
            self.failed.discard(sid)

    @rule()
    def drop_caches(self):
        self.system.drop_all_caches()

    # --------------------------------------------------------------- queries
    @rule(
        name=st.sampled_from(["a", "b"]),
        op=st.sampled_from([">", ">=", "<", "<="]),
        v=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        strategy=st.sampled_from(list(Strategy)),
    )
    def query_single(self, name, op, v, strategy):
        node = Condition(name, QueryOp(op), PDCType.FLOAT, v)
        res = self.engine.execute(node, want_selection=True, strategy=strategy)
        truth = np.flatnonzero(QueryOp(op).apply(self.model[name], np.float32(v)))
        assert res.nhits == truth.size
        assert np.array_equal(res.selection.coords, truth)

    @rule(
        va=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        vb=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        strategy=st.sampled_from(list(Strategy)),
    )
    def query_joint(self, va, vb, strategy):
        node = combine_and(
            Condition("a", QueryOp.GT, PDCType.FLOAT, va),
            Condition("b", QueryOp.LT, PDCType.FLOAT, vb),
        )
        res = self.engine.execute(node, strategy=strategy)
        truth = int(
            ((self.model["a"] > np.float32(va)) & (self.model["b"] < np.float32(vb))).sum()
        )
        assert res.nhits == truth

    # ------------------------------------------------------------- invariants
    @invariant()
    def clocks_monotonic(self):
        if not hasattr(self, "system"):
            return
        t = max(c.now for c in self.system.all_clocks())
        assert t >= self.last_elapsed
        self.last_elapsed = t

    @invariant()
    def region_minmax_matches_model(self):
        if not hasattr(self, "system"):
            return
        for name, data in self.model.items():
            obj = self.system.get_object(name)
            for rid in range(obj.n_regions):
                seg = data[obj.offsets[rid] : obj.offsets[rid] + obj.counts[rid]]
                assert obj.rmin[rid] == seg.min()
                assert obj.rmax[rid] == seg.max()

    @invariant()
    def index_file_matches_bitmaps(self):
        if not hasattr(self, "system"):
            return
        for name in self.model:
            obj = self.system.get_object(name)
            if obj.indexes is None:
                continue
            assert len(obj.indexes) == len(obj.meta.regions) == obj.n_regions
            on_file = self.system.pfs.read(f"/pdc/index/{name}")
            expect = np.concatenate([i.to_bytes() for i in obj.indexes])
            assert np.array_equal(on_file, expect)

    @invariant()
    def alive_count_consistent(self):
        if not hasattr(self, "system"):
            return
        assert len(self.system.alive_servers) == N_SERVERS - len(self.failed)


PDCStateMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
TestPDCStateMachine = PDCStateMachine.TestCase
