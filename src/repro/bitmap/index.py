"""Per-region binned bitmap indexes (FastBit-equivalent).

§III-D4: *"We construct a bitmap for each region"*; querying reads and
reconstructs the index instead of the region's data.  A
:class:`RegionBitmapIndex` holds one WAH-compressed bitmap per occupied bin
of the significant-digit grid; a range query ORs the bitmaps of
fully-covered bins and (only when endpoints fall off the grid) flags
boundary bins for a raw-data candidate check.

:meth:`RegionBitmapIndex.build` makes every bin's bitmap in one vectorized
pass, with no Python loop over bins or runs: one stable argsort by bin
groups each bin's positions (ascending) and gives per-bin counts and
exact min/max via ``reduceat``; one scatter ORs bit ``pos % 63`` of every
member into its bin's row of a dense ``(occupied bins × groups)`` stack;
one :func:`wah.encode_groups` call encodes all rows, each exactly as a
one-row call would.  Every index build — ``build_index``, ingest rebuild,
appended regions and compaction — goes through it.  Per-bin member and
word counts are kept beside the bitmaps, so probe costs and counts are
masked array sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import IndexError_
from ..interval import Interval
from . import wah
from .binning import assign_bins, sig_digit_edges

__all__ = ["RegionBitmapIndex", "BitmapQueryResult"]


@dataclass
class BitmapQueryResult:
    """Outcome of an index probe on one region.

    ``sure_positions`` are definite hits (elements of fully-covered bins).
    ``candidate_positions`` may or may not match and must be verified
    against the raw values — empty for on-grid query endpoints.
    ``words_scanned`` is the number of compressed words touched (feeds the
    cost model).
    """

    sure_positions: np.ndarray
    candidate_positions: np.ndarray
    words_scanned: int

    @property
    def needs_candidate_check(self) -> bool:
        return self.candidate_positions.size > 0


@dataclass(frozen=True)
class IndexProbeCost:
    """I/O and scan footprint of one index probe (see ``query_cost``)."""

    words_touched: int
    bytes_touched: int
    header_bytes: int
    n_bins_touched: int
    candidates: int


#: Largest dense group stack (uint64 words) handed to one encode call.  A
#: region whose occupied bins × groups exceed it is encoded in row blocks,
#: which bounds build memory for large regions; small regions take one call.
_STACK_WORDS = 1 << 20


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in ``a``."""
    head = np.empty(a.size, dtype=bool)
    head[0] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return np.flatnonzero(head)


@dataclass
class RegionBitmapIndex:
    """Binned, WAH-compressed bitmap index of one region's values.

    Besides the per-bin bitmaps, the index records each occupied bin's true
    content min/max.  A bin is then *fully covered* by a query interval iff
    its content range lies inside the interval — exact even for open
    endpoints that coincide with bin edges (the plain edge-based test would
    send such bins to a raw-data candidate check unnecessarily).
    """

    edges: np.ndarray
    #: Occupied bin ids, ascending.
    bin_ids: np.ndarray
    #: True content minimum/maximum per occupied bin (aligned to bin_ids).
    bin_min: np.ndarray
    bin_max: np.ndarray
    #: Members per occupied bin (its bitmap's popcount) and its compressed
    #: word count, aligned to bin_ids: probe costs and counts sum these.
    bin_counts: np.ndarray
    bin_words: np.ndarray
    #: bin id → compressed WAH words (only bins with members are present).
    bitmaps: Dict[int, np.ndarray]
    n_elements: int

    # ------------------------------------------------------------ construction
    @classmethod
    def build(cls, data: np.ndarray, precision: int = 2) -> "RegionBitmapIndex":
        """Index a region's raw values with ``precision``-significant-digit
        binning (paper default: 2), all bins in one vectorized pass."""
        data = np.asarray(data)
        if data.ndim != 1 or data.size == 0:
            raise IndexError_("bitmap index needs non-empty 1-D data")
        values = data.astype(np.float64, copy=False)
        edges = sig_digit_edges(float(values.min()), float(values.max()), precision)
        bin_idx = assign_bins(values, edges)
        n = values.size

        # One stable sort lists each bin's positions together, ascending.
        order = np.argsort(bin_idx, kind="stable")
        sorted_bins = bin_idx[order]
        starts = _run_starts(sorted_bins)
        n_occupied = starts.size
        bin_counts = np.diff(np.append(starts, n))
        sorted_values = values[order]
        bin_min = np.minimum.reduceat(sorted_values, starts)
        bin_max = np.maximum.reduceat(sorted_values, starts)

        # Element ``pos`` of bin row ``r`` sets bit ``pos % 63`` of group
        # ``pos // 63``.  The (row, group) keys come out of the sort
        # ascending, so one reduceat ORs every group's bits.
        n_groups = -(-n // wah.GROUP_BITS)
        key = np.repeat(np.arange(n_occupied) * n_groups, bin_counts)
        key += order // wah.GROUP_BITS
        bits = np.uint64(1) << (order % wah.GROUP_BITS).astype(np.uint64)
        heads = _run_starts(key)
        group_key = key[heads]
        group_bits = np.bitwise_or.reduceat(bits, heads)

        # Scatter into the dense (rows × groups) stack and encode every row
        # in one call (one per row block for very large regions).
        rows_per_block = max(1, _STACK_WORDS // n_groups)
        row_cuts = list(range(0, n_occupied, rows_per_block)) + [n_occupied]
        key_cuts = np.searchsorted(group_key, np.array(row_cuts) * n_groups).tolist()
        words = []
        for r0, r1, k0, k1 in zip(row_cuts, row_cuts[1:], key_cuts, key_cuts[1:]):
            stack = np.zeros((r1 - r0) * n_groups, dtype=np.uint64)
            stack[group_key[k0:k1] - r0 * n_groups] = group_bits[k0:k1]
            words += wah.encode_groups(stack.reshape(r1 - r0, n_groups))

        bin_ids = sorted_bins[starts]
        return cls(
            edges=edges,
            bin_ids=bin_ids,
            bin_min=bin_min,
            bin_max=bin_max,
            bin_counts=bin_counts,
            bin_words=np.fromiter(map(len, words), dtype=np.int64, count=n_occupied),
            bitmaps=dict(zip(bin_ids.tolist(), words)),
            n_elements=int(n),
        )

    # -------------------------------------------------------------- inspection
    @property
    def n_bins(self) -> int:
        return int(self.edges.size - 1)

    @property
    def n_occupied_bins(self) -> int:
        return int(self.bin_ids.size)

    @property
    def nbytes(self) -> int:
        """Serialized index size: all compressed bitmaps + the edge array +
        per-bitmap headers.  This is what lands in the index file (the paper
        reports 15–17 % of data size for the VPIC objects)."""
        return (
            self.total_words() * 8
            + self.edges.size * 8
            + self.n_occupied_bins * 16  # bin id + word count
            + self.n_occupied_bins * 16  # content min/max
        )

    def total_words(self) -> int:
        return int(self.bin_words.sum())

    # ------------------------------------------------------------------ query
    def _classify_occupied(self, interval: Interval) -> Tuple[np.ndarray, np.ndarray]:
        """(fully-covered, partial) masks over the occupied bins for
        ``interval``, classified against true per-bin content ranges."""
        overlap = interval.overlaps_range_arrays(self.bin_min, self.bin_max)
        full = overlap & interval.contains_range_arrays(self.bin_min, self.bin_max)
        return full, overlap & ~full

    def _or_positions(self, mask: np.ndarray) -> np.ndarray:
        """Positions set in the OR of the masked bins' bitmaps, combined on
        the compressed form."""
        acc: Optional[np.ndarray] = None
        for b in self.bin_ids[mask].tolist():
            words = self.bitmaps[b]
            acc = words if acc is None else wah.logical_or(acc, words)
        if acc is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(wah.decompress(acc, self.n_elements)).astype(np.int64)

    def query(self, interval: Interval) -> BitmapQueryResult:
        """Probe the index for an interval condition.

        ORs the fully-covered bins' bitmaps on the compressed form; partial
        (boundary) bins become candidates.
        """
        full, partial = self._classify_occupied(interval)
        return BitmapQueryResult(
            sure_positions=self._or_positions(full),
            candidate_positions=self._or_positions(partial),
            words_scanned=int(self.bin_words[full | partial].sum()),
        )

    def count_range(self, interval: Interval) -> Tuple[int, int]:
        """(sure_hits, candidates) counts without materializing positions —
        the get-nhits fast path when no candidate check is needed."""
        full, partial = self._classify_occupied(interval)
        return int(self.bin_counts[full].sum()), int(self.bin_counts[partial].sum())

    def query_cost(self, interval: Interval) -> "IndexProbeCost":
        """What a FastBit-style probe of this index touches for an interval.

        FastBit seeks to and reads only the bitmaps of bins overlapping the
        condition (plus the small bin directory), so query-time index I/O is
        proportional to the touched bins, not the whole index file.
        """
        full, partial = self._classify_occupied(interval)
        touched = full | partial
        words = int(self.bin_words[touched].sum())
        # Directory: edges + per-bin (id, offset, minmax) records.
        header_bytes = self.edges.size * 8 + self.n_occupied_bins * 32
        return IndexProbeCost(
            words_touched=words,
            bytes_touched=words * 8,
            header_bytes=int(header_bytes),
            n_bins_touched=int(touched.sum()),
            candidates=int(self.bin_counts[partial].sum()),
        )

    # ---------------------------------------------------------- serialization
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten to arrays for storage as one index file."""
        streams = [self.bitmaps[b] for b in self.bin_ids.tolist()]
        payload = np.concatenate(streams) if streams else np.zeros(0, dtype=np.uint64)
        return {
            "edges": self.edges,
            "bin_ids": self.bin_ids,
            "bin_min": self.bin_min,
            "bin_max": self.bin_max,
            "lengths": self.bin_words,
            "payload": payload,
            "meta": np.array([self.n_elements], dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "RegionBitmapIndex":
        bin_ids = np.asarray(arrays["bin_ids"], dtype=np.int64)
        lengths = np.asarray(arrays["lengths"], dtype=np.int64)
        payload = np.asarray(arrays["payload"], dtype=np.uint64)
        offsets = [0] + np.cumsum(lengths).tolist()
        return cls(
            edges=np.asarray(arrays["edges"], dtype=np.float64),
            bin_ids=bin_ids,
            bin_min=np.asarray(arrays["bin_min"], dtype=np.float64),
            bin_max=np.asarray(arrays["bin_max"], dtype=np.float64),
            bin_counts=wah.stream_bit_counts(payload, lengths),
            bin_words=lengths,
            bitmaps={
                b: payload[a:c]
                for b, a, c in zip(bin_ids.tolist(), offsets, offsets[1:])
            },
            n_elements=int(arrays["meta"][0]),
        )

    def to_bytes(self) -> np.ndarray:
        """Flat uint8 buffer (the on-storage index-file format):
        a length header followed by the five payload sections."""
        a = self.to_arrays()
        sections = [
            a["edges"].astype(np.float64),
            a["bin_ids"].astype(np.int64),
            a["bin_min"].astype(np.float64),
            a["bin_max"].astype(np.float64),
            a["lengths"].astype(np.int64),
            a["payload"].astype(np.uint64),
            a["meta"].astype(np.int64),
        ]
        header = np.array([s.size for s in sections], dtype=np.int64)
        return np.concatenate(
            [header.view(np.uint8)] + [s.view(np.uint8) for s in sections]
        )

    @classmethod
    def from_bytes(cls, buf: np.ndarray) -> "RegionBitmapIndex":
        """Inverse of :meth:`to_bytes`."""
        buf = np.ascontiguousarray(np.asarray(buf, dtype=np.uint8))
        n_sections = 7
        header = buf[: n_sections * 8].view(np.int64)
        dtypes = [np.float64, np.int64, np.float64, np.float64, np.int64, np.uint64, np.int64]
        names = ["edges", "bin_ids", "bin_min", "bin_max", "lengths", "payload", "meta"]
        arrays: Dict[str, np.ndarray] = {}
        off = n_sections * 8
        for name, dt, count in zip(names, dtypes, header):
            nbytes = int(count) * np.dtype(dt).itemsize
            arrays[name] = buf[off : off + nbytes].view(dt)
            off += nbytes
        if off != buf.size:
            raise IndexError_(f"index file corrupt: {buf.size - off} trailing bytes")
        return cls.from_arrays(arrays)
