"""Object updates with derived-state maintenance (histograms, indexes,
replicas, caches)."""

import numpy as np
import pytest

from repro.errors import PDCError
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def cond(name, op, value):
    return Condition(object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value)


@pytest.fixture
def env(rng):
    sysm = make_system(region_size_bytes=1 << 11)  # 512 f32/region
    data = rng.random(1 << 12).astype(np.float32)
    sysm.create_object("obj", data)
    return sysm, data


class TestBasicUpdate:
    def test_data_written_through(self, env, rng):
        sysm, _ = env
        new = np.full(100, 7.5, dtype=np.float32)
        sysm.update_object_region("obj", 600, new)
        obj = sysm.get_object("obj")
        assert np.array_equal(obj.data[600:700], new)
        # PFS file shares the same payload.
        assert np.array_equal(sysm.pfs.read("/pdc/data/obj", 600, 700), new)

    def test_affected_regions_reported(self, env):
        sysm, _ = env
        affected = sysm.update_object_region(
            "obj", 500, np.zeros(100, dtype=np.float32)
        )
        assert affected == [0, 1]  # spans the 512-element boundary

    def test_bounds_checked(self, env):
        sysm, _ = env
        with pytest.raises(PDCError):
            sysm.update_object_region("obj", -1, np.zeros(10, dtype=np.float32))
        with pytest.raises(PDCError):
            sysm.update_object_region("obj", 4000, np.zeros(200, dtype=np.float32))
        with pytest.raises(PDCError):
            sysm.update_object_region("obj", 0, np.zeros(0, dtype=np.float32))


class TestDerivedStateMaintenance:
    def test_histograms_and_minmax_refreshed(self, env):
        sysm, _ = env
        sysm.update_object_region("obj", 0, np.full(512, 99.0, dtype=np.float32))
        obj = sysm.get_object("obj")
        assert obj.rmin[0] == 99.0 and obj.rmax[0] == 99.0
        assert obj.meta.global_histogram.merged.data_max == 99.0

    def test_queries_correct_after_update(self, env):
        sysm, _ = env
        engine = QueryEngine(sysm)
        before = engine.execute(cond("obj", ">", 50.0)).nhits
        assert before == 0
        sysm.update_object_region("obj", 100, np.full(50, 99.0, dtype=np.float32))
        after = engine.execute(cond("obj", ">", 50.0))
        assert after.nhits == 50
        truth = np.flatnonzero(sysm.get_object("obj").data > 50.0)
        assert np.array_equal(after.selection.coords, truth)

    def test_index_rebuilt_and_consistent(self, env):
        sysm, _ = env
        sysm.build_index("obj")
        sysm.update_object_region("obj", 0, np.full(512, 42.0, dtype=np.float32))
        engine = QueryEngine(sysm)
        res = engine.execute(cond("obj", "=", 42.0), strategy=Strategy.HIST_INDEX)
        assert res.nhits == 512
        obj = sysm.get_object("obj")
        # The region's rebuilt index has one occupied bin.
        assert obj.indexes[0].n_occupied_bins == 1
        assert sysm.pfs.exists("/pdc/index/obj")

    def test_replica_dropped_on_update(self, env, rng):
        sysm, _ = env
        sysm.create_object("companion", rng.random(1 << 12).astype(np.float32))
        sysm.build_sorted_replica("obj", ["companion"])
        assert "obj" in sysm.replicas
        sysm.update_object_region("obj", 0, np.zeros(10, dtype=np.float32))
        assert "obj" not in sysm.replicas
        assert not sysm.pfs.exists("/pdc/sorted/obj/key")
        assert sysm.get_object("obj").meta.sorted_by is None

    def test_update_of_companion_drops_replica_too(self, env, rng):
        sysm, _ = env
        sysm.create_object("companion", rng.random(1 << 12).astype(np.float32))
        sysm.build_sorted_replica("obj", ["companion"])
        sysm.update_object_region("companion", 0, np.zeros(10, dtype=np.float32))
        assert "obj" not in sysm.replicas

    def test_sorted_strategy_falls_back_after_drop(self, env, rng):
        """SORT_HIST on a dropped replica degrades gracefully to the
        histogram path with exact answers."""
        sysm, _ = env
        sysm.build_sorted_replica("obj")
        sysm.update_object_region("obj", 0, np.full(20, 5.0, dtype=np.float32))
        res = QueryEngine(sysm).execute(cond("obj", ">", 4.0), strategy=Strategy.SORT_HIST)
        assert res.nhits == 20

    def test_stale_caches_invalidated(self, env):
        sysm, _ = env
        engine = QueryEngine(sysm)
        engine.execute(cond("obj", ">", 0.5))  # warm caches
        sysm.update_object_region("obj", 0, np.full(512, 0.9, dtype=np.float32))
        res = engine.execute(cond("obj", ">", 0.5))
        # Region 0 was invalidated: it must be re-read, not served stale.
        assert res.regions_read >= 1

    def test_write_cost_charged(self, env):
        sysm, _ = env
        before = max(s.clock.now for s in sysm.servers)
        sysm.update_object_region("obj", 0, np.zeros(512, dtype=np.float32))
        assert max(s.clock.now for s in sysm.servers) > before

    def test_drop_replica_idempotent(self, env):
        sysm, _ = env
        sysm.build_sorted_replica("obj")
        sysm.drop_sorted_replica("obj")
        sysm.drop_sorted_replica("obj")  # no error
        assert "obj" not in sysm.replicas


class TestAtomicCommit:
    def test_mid_write_failure_rolls_back_and_charges_nothing(
        self, env, monkeypatch
    ):
        """A failure while refreshing the *second* affected region must
        leave the system exactly as before the write: payload restored,
        derived state untouched, and no simulated time charged."""
        from repro.histogram.mergeable import MergeableHistogram

        sysm, _ = env
        sysm.build_index("obj")
        obj = sysm.get_object("obj")
        before_data = obj.data.copy()
        before_rmin = obj.rmin.copy()
        before_rmax = obj.rmax.copy()
        before_hists = [r.histogram for r in obj.meta.regions]
        before_clocks = {
            c.name: (c.now, dict(c.breakdown())) for c in sysm.all_clocks()
        }

        real = MergeableHistogram.from_data.__func__
        calls = {"n": 0}

        def boom(cls, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("simulated maintenance failure")
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(
            MergeableHistogram, "from_data", classmethod(boom)
        )
        # Spans the 512-element region boundary: regions 0 and 1.
        with pytest.raises(RuntimeError, match="simulated maintenance"):
            sysm.update_object_region(
                "obj", 500, np.full(100, 123.0, dtype=np.float32)
            )
        assert calls["n"] == 2  # region 0 refreshed, region 1 blew up

        assert np.array_equal(obj.data, before_data)
        assert np.array_equal(obj.rmin, before_rmin)
        assert np.array_equal(obj.rmax, before_rmax)
        for r, h in zip(obj.meta.regions, before_hists):
            assert r.histogram is h  # not even region 0 was committed
        after_clocks = {
            c.name: (c.now, dict(c.breakdown())) for c in sysm.all_clocks()
        }
        assert after_clocks == before_clocks

        # The system is fully usable afterwards: the same write succeeds
        # once the fault clears, and queries see it.
        monkeypatch.undo()
        affected = sysm.update_object_region(
            "obj", 500, np.full(100, 123.0, dtype=np.float32)
        )
        assert affected == [0, 1]
        res = QueryEngine(sysm).execute(cond("obj", ">", 100.0))
        assert res.nhits == 100

    @staticmethod
    def snapshot(sysm, name):
        """Everything a failed write must leave untouched, by value for
        arrays and file bytes and by identity for derived objects."""
        obj = sysm.get_object(name)
        arrays = ("data", "offsets", "counts", "rmin", "rmax", "index_nbytes",
                  "index_words", "index_delta_counts", "hist_dirty_elements")
        return {
            "arrays": {
                a: None if getattr(obj, a) is None else getattr(obj, a).tobytes()
                for a in arrays
            },
            "n_elements": obj.meta.n_elements,
            "regions": [
                (r.region_id, r.offset, r.n_elements, id(r.histogram), r.index_path)
                for r in obj.meta.regions
            ],
            "global": id(obj.meta.global_histogram),
            "indexes": [id(i) for i in obj.indexes],
            "files": {
                p: sysm.pfs.read(p).tobytes()
                for p in (obj.file_path, obj.hdf5_path, f"/pdc/index/{name}")
            },
            "caches": [
                (s.cache.entries(), s.cache.used_bytes, dict(vars(s.cache.stats)))
                for s in sysm.servers
            ],
            "clocks": {
                c.name: (c.now, dict(c.breakdown())) for c in sysm.all_clocks()
            },
            "last_write_stats": dict(sysm.last_write_stats),
        }

    @staticmethod
    def assert_matches_numpy(sysm, name):
        engine = QueryEngine(sysm)
        data = sysm.get_object(name).data
        for strategy in Strategy:
            for op, v in ((">", 0.7), ("<", 0.2)):
                res = engine.execute(cond(name, op, v), strategy=strategy)
                truth = np.flatnonzero(QueryOp(op).apply(data, np.float32(v)))
                assert np.array_equal(res.selection.coords, truth), strategy

    def warmed(self, env, maintenance):
        sysm, _ = env
        sysm.build_index("obj")
        sysm.build_sorted_replica("obj")
        # Warm data and index caches, and leave one write's stats behind.
        self.assert_matches_numpy(sysm, "obj")
        sysm.update_object_region(
            "obj", 10, np.full(4, 0.5, dtype=np.float32), maintenance=maintenance
        )
        QueryEngine(sysm).execute(cond("obj", ">", 0.9), strategy=Strategy.HIST_INDEX)
        return sysm

    @pytest.mark.parametrize("maintenance", ["rebuild", "delta"])
    def test_nan_append_changes_nothing(self, env, maintenance):
        """A payload the histogram rule rejects (NaN in the last new
        region) must leave the indexed object exactly as it was."""
        sysm = self.warmed(env, maintenance)
        before = self.snapshot(sysm, "obj")
        values = np.random.default_rng(3).random(3000).astype(np.float32)
        values[-1] = np.nan
        with pytest.raises(ValueError):
            sysm.append_to_object("obj", values, maintenance=maintenance)
        assert self.snapshot(sysm, "obj") == before
        assert sysm.get_object("obj").n_regions == 8
        self.assert_matches_numpy(sysm, "obj")

    @pytest.mark.parametrize("maintenance", ["rebuild", "delta"])
    def test_failure_on_second_new_region_changes_nothing(
        self, env, monkeypatch, maintenance
    ):
        from repro.histogram.mergeable import MergeableHistogram

        sysm = self.warmed(env, maintenance)
        before = self.snapshot(sysm, "obj")
        real = MergeableHistogram.from_data.__func__
        calls = {"n": 0}

        def boom(cls, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("simulated maintenance failure")
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(MergeableHistogram, "from_data", classmethod(boom))
        # The 8-region object has a full tail: 1200 elements open regions
        # 8, 9 and 10, and region 9's histogram fails.
        values = np.full(1200, 0.75, dtype=np.float32)
        with pytest.raises(RuntimeError, match="simulated maintenance"):
            sysm.append_to_object("obj", values, maintenance=maintenance)
        assert calls["n"] == 2
        assert self.snapshot(sysm, "obj") == before

        monkeypatch.undo()
        self.assert_matches_numpy(sysm, "obj")
        assert sysm.append_to_object("obj", values, maintenance=maintenance) == [8, 9, 10]
        self.assert_matches_numpy(sysm, "obj")


class TestIndexFile:
    @staticmethod
    def file_bytes(sysm, name):
        return sysm.pfs.read(f"/pdc/index/{name}").tobytes()

    @staticmethod
    def concatenated(sysm, name):
        obj = sysm.get_object(name)
        return np.concatenate([i.to_bytes() for i in obj.indexes]).tobytes()

    def test_delta_tail_append_writes_no_index_file(self, env):
        """A delta append that only grows the tail changes no bitmap, so
        the index file is not rewritten: the only bytes written are the
        recreated data and HDF5 payload files.  A delta overwrite writes
        nothing at all."""
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        sysm = make_system(region_size_bytes=1 << 11, metrics=reg)
        sysm.create_object("obj", np.random.default_rng(4).random(3000).astype(np.float32))
        sysm.build_index("obj")
        obj = sysm.get_object("obj")
        index_file = sysm.pfs._files["/pdc/index/obj"]

        def written():
            metric = reg.counter("pdc_pfs_bytes_written_virtual_total", "")
            return sysm.pfs.bytes_written, metric.value

        before = written()
        sysm.update_object_region(
            "obj", 100, np.full(20, 0.5, dtype=np.float32), maintenance="delta"
        )
        assert written() == before
        # The tail region holds 3000 - 5 * 512 = 440 elements.
        affected = sysm.append_to_object(
            "obj", np.full(50, 0.25, dtype=np.float32), maintenance="delta"
        )
        assert affected == [5] and obj.index_delta_counts[5] == 50
        payload = 2 * sysm.cost.virtual_bytes(obj.data.nbytes)
        assert written() == (before[0] + payload, before[1] + payload)
        assert sysm.pfs._files["/pdc/index/obj"] is index_file
        assert self.file_bytes(sysm, "obj") == self.concatenated(sysm, "obj")

    def test_index_file_tracks_every_bitmap_change(self, env):
        sysm, _ = env
        sysm.build_index("obj")
        assert self.file_bytes(sysm, "obj") == self.concatenated(sysm, "obj")
        clocks = {c.name: c.now for c in sysm.all_clocks()}
        sysm.update_object_region("obj", 700, np.full(600, 0.1, dtype=np.float32))
        assert self.file_bytes(sysm, "obj") == self.concatenated(sysm, "obj")
        sysm.append_to_object("obj", np.full(900, 0.9, dtype=np.float32))
        assert self.file_bytes(sysm, "obj") == self.concatenated(sysm, "obj")
        sysm.update_object_region(
            "obj", 0, np.full(64, 0.3, dtype=np.float32), maintenance="delta"
        )
        sysm.update_object_region(
            "obj", 1100, np.full(64, 0.3, dtype=np.float32), maintenance="delta"
        )
        sysm.append_to_object(
            "obj", np.full(700, 0.6, dtype=np.float32), maintenance="delta"
        )
        obj = sysm.get_object("obj")
        folded = sysm.compact_region_index("obj", [0, 2])
        assert folded == 128 and not obj.index_delta_counts[[0, 2]].any()
        assert self.file_bytes(sysm, "obj") == self.concatenated(sysm, "obj")
        # The file writes themselves are unclocked: only the writes'
        # own charges moved the clocks.
        for c in sysm.all_clocks():
            assert set(c.breakdown()) <= {"pfs_write", "ingest_maint", "compaction"}
        assert any(c.now > clocks[c.name] for c in sysm.all_clocks())


class TestHistogramLessObjects:
    @pytest.mark.parametrize("maintenance", ["rebuild", "delta"])
    @pytest.mark.parametrize("indexed", [False, True])
    def test_writes_keep_object_histogram_less(self, rng, maintenance, indexed):
        sysm = make_system(region_size_bytes=1 << 11)
        sysm.create_object(
            "obj", rng.random(3000).astype(np.float32), build_histograms=False
        )
        if indexed:
            sysm.build_index("obj")
        writes = [
            (100, rng.random(40).astype(np.float32) * 2.0),
            (None, rng.random(30).astype(np.float32)),
            (500, np.full(600, 0.05, dtype=np.float32)),
            (None, rng.random(1500).astype(np.float32) + 1.0),
            (2990, rng.random(20).astype(np.float32)),
        ]
        obj = sysm.get_object("obj")
        for offset, values in writes:
            if offset is None:
                sysm.append_to_object("obj", values, maintenance=maintenance)
            else:
                sysm.update_object_region("obj", offset, values, maintenance=maintenance)
            assert sysm.last_write_stats["hist_rebuilds"] == 0
            assert sysm.last_write_stats["hist_merges"] == 0
            assert obj.meta.global_histogram is None
            assert all(r.histogram is None for r in obj.meta.regions)
            for rid in range(obj.n_regions):
                seg = obj.region_data(rid)
                assert obj.rmin[rid] == seg.min() and obj.rmax[rid] == seg.max()
        assert obj.n_regions == 9
        TestAtomicCommit.assert_matches_numpy(sysm, "obj")
