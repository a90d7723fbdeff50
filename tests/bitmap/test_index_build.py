"""The one-pass index build against the per-bin reference build.

``RegionBitmapIndex.build`` sorts a region by bin once, scatters every
bin's bits into one dense group stack and encodes all rows with one
``wah.encode_groups`` call.  These tests keep the straightforward build —
one ``wah.compress`` of a full-region mask per occupied bin — as the
reference and require the serialized index to match it byte for byte.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bitmap import index as index_mod
from repro.bitmap import wah
from repro.bitmap.binning import assign_bins, sig_digit_edges
from repro.bitmap.index import RegionBitmapIndex
from repro.errors import IndexError_
from repro.pdc import PDCConfig, PDCSystem
from repro.workloads.vpic import VPICConfig, generate_vpic


def reference_bytes(data, precision=2):
    """Index file bytes of the per-bin build: one mask, one
    ``wah.compress`` and one min/max per occupied bin."""
    values = np.asarray(data).astype(np.float64, copy=False)
    edges = sig_digit_edges(float(values.min()), float(values.max()), precision)
    bin_idx = assign_bins(values, edges)
    occupied = np.unique(bin_idx)
    streams, bin_min, bin_max = [], [], []
    for b in occupied:
        member = bin_idx == b
        streams.append(wah.compress(member)[0])
        bin_min.append(values[member].min())
        bin_max.append(values[member].max())
    sections = [
        edges.astype(np.float64),
        occupied.astype(np.int64),
        np.array(bin_min, dtype=np.float64),
        np.array(bin_max, dtype=np.float64),
        np.array([w.size for w in streams], dtype=np.int64),
        np.concatenate(streams).astype(np.uint64),
        np.array([values.size], dtype=np.int64),
    ]
    header = np.array([s.size for s in sections], dtype=np.int64)
    return np.concatenate([header.view(np.uint8)] + [s.view(np.uint8) for s in sections])


def assert_matches_reference(data):
    idx = RegionBitmapIndex.build(data)
    want = reference_bytes(data)
    assert np.array_equal(idx.to_bytes(), want)
    # Derived per-bin arrays agree with the bitmaps they summarize.
    streams = [idx.bitmaps[b] for b in idx.bin_ids.tolist()]
    assert idx.bin_words.tolist() == [w.size for w in streams]
    assert idx.bin_counts.tolist() == [wah.count_set_bits(w) for w in streams]
    assert int(idx.bin_counts.sum()) == idx.n_elements
    assert idx.total_words() == sum(w.size for w in streams)
    # The file is the whole index: loading it back derives the same arrays.
    back = RegionBitmapIndex.from_bytes(want)
    assert np.array_equal(back.bin_counts, idx.bin_counts)
    assert np.array_equal(back.bin_words, idx.bin_words)
    assert back.nbytes == idx.nbytes


finite32 = st.floats(-1e6, 1e6, width=32, allow_nan=False, allow_infinity=False)
finite64 = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)

region_data = st.one_of(
    hnp.arrays(np.float32, st.integers(1, 400), elements=finite32),
    hnp.arrays(np.float64, st.integers(1, 400), elements=finite64),
    hnp.arrays(np.int64, st.integers(1, 400), elements=st.integers(-10**6, 10**6)),
    # Few distinct values: long runs, all-ones groups and wide bins.
    hnp.arrays(
        np.float32, st.integers(1, 400), elements=st.sampled_from([-2.5, -0.0, 0.0, 0.5, 7.0])
    ),
)


class TestMatchesPerBinBuild:
    @given(region_data)
    @settings(max_examples=150, deadline=None)
    def test_random_regions(self, data):
        assert_matches_reference(data)

    def test_single_element(self):
        assert_matches_reference(np.array([3.25], dtype=np.float32))

    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_group_boundary_sizes(self, k, extra, rng):
        n = wah.GROUP_BITS * k + extra
        assert_matches_reference(rng.gamma(2.0, 0.7, n).astype(np.float32))

    def test_all_ones_groups(self, rng):
        # Sorted data puts each bin in one contiguous stretch that spans
        # whole 63-bit groups.
        assert_matches_reference(np.sort(rng.random(2000) * 3.0))

    def test_constant_data(self):
        assert_matches_reference(np.full(500, 4.2, dtype=np.float32))
        assert_matches_reference(np.zeros(130))

    def test_negative_zero_and_mixed_sign(self, rng):
        assert_matches_reference(-rng.random(300) * 50.0)
        mixed = rng.normal(0.0, 10.0, 700)
        mixed[::7] = 0.0
        mixed[3::11] = -0.0
        assert_matches_reference(mixed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, np.int64])
    def test_dtypes(self, dtype, rng):
        assert_matches_reference((rng.normal(0.0, 1000.0, 1024)).astype(dtype))

    def test_vpic_regions(self):
        ds = generate_vpic(VPICConfig(n_particles=1 << 13, seed=2020))
        for name in ("Energy", "x", "y", "z"):
            a = ds.arrays[name]
            for off in range(0, a.size, 1024):
                assert_matches_reference(a[off : off + 1024])

    def test_row_blocks_match_one_block(self, rng, monkeypatch):
        """A region whose dense stack exceeds the block cap is encoded in
        several calls; the bytes must not change."""
        data = rng.gamma(2.0, 0.7, 5000).astype(np.float32)
        one = RegionBitmapIndex.build(data).to_bytes()
        monkeypatch.setattr(index_mod, "_STACK_WORDS", 100)
        calls = []
        real = wah.encode_groups
        monkeypatch.setattr(wah, "encode_groups", lambda g: calls.append(1) or real(g))
        assert np.array_equal(RegionBitmapIndex.build(data).to_bytes(), one)
        assert len(calls) > 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        data = np.array([1.0, 2.0, bad, 3.0])
        with pytest.raises(IndexError_):
            RegionBitmapIndex.build(data)
        with pytest.raises(IndexError_):
            reference_bytes(data)


class TestEncodeGroupStack:
    @given(
        st.integers(1, 6),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_one_dimensional_encode(self, n_rows, n_groups, seed):
        rng = np.random.default_rng(seed)
        stack = rng.integers(0, 2**63, (n_rows, n_groups), dtype=np.uint64)
        pick = rng.random((n_rows, n_groups))
        p_zero, p_ones = rng.random(2) * 0.5
        stack[pick < p_zero] = 0
        stack[(pick >= p_zero) & (pick < p_zero + p_ones)] = (1 << 63) - 1
        rows = wah.encode_groups(stack)
        assert len(rows) == n_rows
        for i in range(n_rows):
            assert np.array_equal(rows[i], wah.encode_groups(stack[i]))

    def test_fills_do_not_cross_rows(self):
        stack = np.zeros((3, 4), dtype=np.uint64)
        rows = wah.encode_groups(stack)
        assert [w.size for w in rows] == [1, 1, 1]
        assert all(int(w[0] & wah._LEN_MASK) == 4 for w in rows)

    def test_empty_rows(self):
        assert wah.encode_groups(np.zeros((0, 5), dtype=np.uint64)) == []
        rows = wah.encode_groups(np.zeros((2, 0), dtype=np.uint64))
        assert [w.size for w in rows] == [0, 0]


#: sha256 of ``/pdc/index/<name>`` for 16 Ki seeded VPIC particles on
#: 4 servers with 8 KiB regions, as written by the per-bin build.
PINNED_INDEX_FILES = {
    "Energy": "45eefd2071145c93eed63c632eab168fe96b5b0a3425412577a654ab7519ce2e",
    "z": "88fb4a8f074c4e2a663bca75b1cfa5af401ec94a1a9a59ea448aae2502fc83bf",
}


class TestBuildIndexPerRegion:
    """``PDCSystem.build_index`` encodes each region with exactly one
    ``encode_groups`` call (the per-bin build made one per occupied bin)
    and writes the same index file as before."""

    @pytest.mark.parametrize("name", sorted(PINNED_INDEX_FILES))
    def test_one_encode_per_region_and_pinned_file(self, name, monkeypatch):
        ds = generate_vpic(VPICConfig(n_particles=1 << 14, seed=2020))
        system = PDCSystem(PDCConfig(n_servers=4, region_size_bytes=1 << 13))
        system.create_object(name, ds.arrays[name])
        calls = []
        real = wah.encode_groups
        monkeypatch.setattr(wah, "encode_groups", lambda g: calls.append(1) or real(g))
        system.build_index(name)
        assert len(calls) == system.get_object(name).n_regions == 8
        payload = system.pfs.stat(f"/pdc/index/{name}").data
        assert hashlib.sha256(payload.tobytes()).hexdigest() == PINNED_INDEX_FILES[name]
