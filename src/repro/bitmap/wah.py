"""Word-Aligned Hybrid (WAH) bitmap compression on 64-bit words.

§III-D4: *"The Word-Aligned Hybrid compression (WAH) method is used to
reduce the index file size in Fastbit."*  This is a from-scratch
implementation of the classic WAH encoding (Wu et al.), vectorized with
numpy:

* the bit vector is split into 63-bit **groups**;
* a group that is neither all-0 nor all-1 is stored as a **literal word**
  (MSB = 0, low 63 bits = payload, LSB-first);
* maximal runs of identical all-0/all-1 groups are stored as **fill words**
  (MSB = 1, bit 62 = fill value, low 62 bits = run length in groups).

Encoding is array-only (:func:`_encode`): run heads, run lengths and one
``np.repeat`` emit every word, with no Python loop per run; a 2-D stack of
group rows is encoded in the same single pass, one word array per row.
Logical operations decode to the *group* representation (one uint64 payload
per 63-bit group — still word-aligned, which is exactly the property WAH is
named for), combine with vectorized bitwise ops, and re-encode.  Bit counts
come straight off the compressed form: popcount of literals plus 63× the
one-fill run lengths.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import IndexError_

__all__ = [
    "GROUP_BITS",
    "compress",
    "decompress",
    "bits_to_groups",
    "groups_to_bits",
    "encode_groups",
    "decode_groups",
    "logical_and",
    "logical_or",
    "logical_not",
    "count_set_bits",
    "stream_bit_counts",
    "compressed_nbytes",
]

#: Payload bits per WAH word.
GROUP_BITS = 63

_FILL_FLAG = np.uint64(1) << np.uint64(63)
_FILL_VALUE = np.uint64(1) << np.uint64(62)
_LEN_MASK = _FILL_VALUE - np.uint64(1)
_PAYLOAD_MASK = (np.uint64(1) << np.uint64(GROUP_BITS)) - np.uint64(1)
#: Weights packing LSB-first group bits into a uint64 payload.
_BIT_WEIGHTS = (np.uint64(1) << np.arange(GROUP_BITS, dtype=np.uint64)).astype(np.uint64)

# ``np.bitwise_count`` only exists on NumPy >= 2.0; select a portable
# popcount once at import time so NumPy 1.26 keeps working.
if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:
    _POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(a: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.uint64)
        bytes_ = a.view(np.uint8).reshape(a.shape + (8,))
        return _POPCOUNT_TABLE[bytes_].sum(axis=-1, dtype=np.uint64)


# --------------------------------------------------------------------- groups
def bits_to_groups(bits: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack a 1-D boolean vector into 63-bit group payloads.

    Returns ``(groups, n_bits)`` where ``groups`` is uint64 with one entry
    per (zero-padded) 63-bit group.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 1:
        raise IndexError_("WAH input must be a 1-D bit vector")
    n_bits = bits.size
    n_groups = (n_bits + GROUP_BITS - 1) // GROUP_BITS
    if n_groups == 0:
        return np.zeros(0, dtype=np.uint64), 0
    padded = np.zeros(n_groups * GROUP_BITS, dtype=bool)
    padded[:n_bits] = bits
    groups = padded.reshape(n_groups, GROUP_BITS).astype(np.uint64) @ _BIT_WEIGHTS
    return groups.astype(np.uint64), n_bits


def groups_to_bits(groups: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`bits_to_groups`."""
    groups = np.asarray(groups, dtype=np.uint64)
    expanded = (groups[:, None] >> np.arange(GROUP_BITS, dtype=np.uint64)) & np.uint64(1)
    return expanded.reshape(-1).astype(bool)[:n_bits]


# ----------------------------------------------------------------- encode/decode
def _encode(
    values: np.ndarray, lengths: Optional[np.ndarray], row_len: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical WAH words for run-length input, in array operations only.

    ``values[i]`` repeats ``lengths[i]`` times (``None``: once each).  A
    *run* is either one literal entry or a maximal stretch of same-valued
    fill entries; each literal run emits its value ``length`` times and
    each fill run emits ``ceil(L / cap)`` fill words (``cap`` is the
    62-bit length field), all through one ``np.repeat``.  With
    ``row_len > 0`` the input is a stack of rows of ``row_len`` entries
    and runs never cross a row.

    Returns ``(words, run_starts, run_ends)``: the words, the entry index
    where each run starts and the word offset where each run ends.
    """
    n = values.size
    # 0 = literal, 1 = zero fill, 2 = one fill.
    sig = (values == 0).view(np.int8) + 2 * (values == _PAYLOAD_MASK).view(np.int8)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(sig[1:], sig[:-1], out=head[1:])
    head[1:] |= sig[1:] == 0
    if row_len:
        head[::row_len] = True
    run_starts = np.flatnonzero(head)
    run_sig = sig[run_starts]
    if lengths is None:
        run_len = np.diff(np.append(run_starts, n))
    else:
        run_len = np.add.reduceat(lengths, run_starts)
    fill = run_sig != 0
    cap = int(_LEN_MASK)
    run_words = np.where(fill, -(-run_len // cap), run_len)
    base = np.where(
        fill,
        _FILL_FLAG | np.where(run_sig == 2, _FILL_VALUE, np.uint64(0)),
        values[run_starts],
    )
    words = np.repeat(base, run_words)
    # Every fill word but a run's last holds ``cap`` groups; the last holds
    # the remainder.
    fill_len = np.repeat(np.where(fill, cap, 0), run_words)
    run_ends = np.cumsum(run_words)
    last = fill & (run_words > 0)
    fill_len[run_ends[last] - 1] = run_len[last] - (run_words[last] - 1) * cap
    words |= fill_len.astype(np.uint64)
    return words, run_starts, run_ends


def encode_groups(groups: np.ndarray) -> Union[np.ndarray, List[np.ndarray]]:
    """Run-length encode group payloads into WAH words.

    A 1-D ``groups`` gives one word array.  A 2-D ``(rows, n_groups)``
    stack gives a list with one word array per row, each equal to
    ``encode_groups(groups[i])`` and all of them slices of one buffer:
    every row is encoded in the same vectorized pass.
    """
    groups = np.asarray(groups, dtype=np.uint64)
    if groups.ndim == 1:
        if groups.size == 0:
            return np.zeros(0, dtype=np.uint64)
        return _encode(groups, None)[0]
    n_rows, row_len = groups.shape
    if groups.size == 0:
        return [np.zeros(0, dtype=np.uint64) for _ in range(n_rows)]
    words, run_starts, run_ends = _encode(groups.reshape(-1), None, row_len)
    # Each row starts a run, so its words start where the previous run ends.
    first_run = np.searchsorted(run_starts, np.arange(n_rows) * row_len)
    offsets = np.concatenate(([0], run_ends))[first_run].tolist() + [words.size]
    return [words[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def decode_groups(words: np.ndarray) -> np.ndarray:
    """Expand WAH words back into one uint64 payload per group."""
    words = np.asarray(words, dtype=np.uint64)
    if words.size == 0:
        return np.zeros(0, dtype=np.uint64)
    is_fill = (words & _FILL_FLAG) != 0
    # Each literal contributes 1 group; each fill contributes its run length.
    lengths = np.where(is_fill, (words & _LEN_MASK).astype(np.int64), 1)
    values = np.where(
        is_fill,
        np.where((words & _FILL_VALUE) != 0, _PAYLOAD_MASK, np.uint64(0)),
        words & _PAYLOAD_MASK,
    )
    return np.repeat(values, lengths)


# ------------------------------------------------------------------ public api
def compress(bits: np.ndarray) -> Tuple[np.ndarray, int]:
    """Compress a boolean vector; returns ``(words, n_bits)``."""
    groups, n_bits = bits_to_groups(bits)
    return encode_groups(groups), n_bits


def decompress(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Decompress WAH words back to a boolean vector of ``n_bits``."""
    groups = decode_groups(words)
    if groups.size * GROUP_BITS < n_bits:
        raise IndexError_(
            f"compressed stream covers {groups.size * GROUP_BITS} bits, need {n_bits}"
        )
    return groups_to_bits(groups, n_bits)


def _decode_runs(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """WAH words → run-length form ``(values, lengths)``: one entry per
    word (literals are length-1 runs), *without* expanding fills."""
    words = np.asarray(words, dtype=np.uint64)
    if words.size == 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    is_fill = (words & _FILL_FLAG) != 0
    lengths = np.where(is_fill, (words & _LEN_MASK).astype(np.int64), 1)
    values = np.where(
        is_fill,
        np.where((words & _FILL_VALUE) != 0, _PAYLOAD_MASK, np.uint64(0)),
        words & _PAYLOAD_MASK,
    )
    keep = lengths > 0  # defensive: a zero-length fill encodes nothing
    if not keep.all():
        values, lengths = values[keep], lengths[keep]
    return values, lengths


def _encode_runs(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`encode_groups` on run-length input without expanding it.

    Produces the canonical encoding — adjacent same-value fillable runs
    merge into maximal fills (split at the max run length), literal runs
    pass through — so the output is byte-identical to
    ``encode_groups(np.repeat(values, lengths))``.
    """
    if values.size == 0:
        return np.zeros(0, dtype=np.uint64)
    return _encode(
        np.asarray(values, dtype=np.uint64), np.asarray(lengths, dtype=np.int64)
    )[0]


def _binary_op(w1: np.ndarray, w2: np.ndarray, op) -> np.ndarray:
    """Combine two compressed streams run-by-run.

    The previous implementation expanded both streams to one payload per
    group (``np.repeat``) before combining — O(total groups) work and
    memory even when the streams are a handful of giant fills.  This
    merge walks the *runs*: segment boundaries are the union of both
    streams' cumulative run ends, each segment takes one vectorized
    ``op``, and the canonical re-encode above restores maximal fills.
    Work is O(runs₁ + runs₂), independent of fill lengths, and the output
    is byte-identical to the expand-op-encode reference.
    """
    v1, l1 = _decode_runs(w1)
    v2, l2 = _decode_runs(w2)
    n1 = int(l1.sum())
    n2 = int(l2.sum())
    if n1 != n2:
        # Align by zero-padding the shorter stream (same bit-vector length,
        # different trailing-fill omission is not produced by compress, so
        # a size mismatch means caller error).
        raise IndexError_(f"bitmap group counts differ: {n1} vs {n2}")
    if n1 == 0:
        return np.zeros(0, dtype=np.uint64)
    c1 = np.cumsum(l1)
    c2 = np.cumsum(l2)
    bounds = np.union1d(c1, c2)  # sorted segment end positions
    i1 = np.searchsorted(c1, bounds, side="left")  # covering run per segment
    i2 = np.searchsorted(c2, bounds, side="left")
    seg_vals = op(v1[i1], v2[i2])
    seg_lens = np.diff(bounds, prepend=0)
    return _encode_runs(seg_vals, seg_lens)


def logical_and(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """AND of two compressed bitmaps over the same domain."""
    return _binary_op(w1, w2, np.bitwise_and)


def logical_or(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """OR of two compressed bitmaps over the same domain."""
    return _binary_op(w1, w2, np.bitwise_or)


def logical_not(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Complement within an ``n_bits`` domain (padding bits stay 0)."""
    if n_bits < 0:
        raise IndexError_(f"n_bits must be non-negative, got {n_bits}")
    groups = np.bitwise_xor(decode_groups(words), _PAYLOAD_MASK)
    if groups.size * GROUP_BITS < n_bits:
        raise IndexError_(
            f"compressed stream covers {groups.size * GROUP_BITS} bits, need {n_bits}"
        )
    # Truncate to the domain's groups (a longer stream would otherwise leak
    # complemented padding as set bits) and clear the final group's padding
    # so counts stay correct.  The old tail computation went negative for
    # short n_bits, wrapping the uint64 shift into a garbage mask.
    n_groups = (n_bits + GROUP_BITS - 1) // GROUP_BITS
    groups = groups[:n_groups]
    if n_groups:
        tail_bits = n_bits - (n_groups - 1) * GROUP_BITS
        tail_mask = (np.uint64(1) << np.uint64(tail_bits)) - np.uint64(1)
        groups[-1] &= tail_mask
    return encode_groups(groups)


def count_set_bits(words: np.ndarray) -> int:
    """Population count directly on the compressed stream."""
    words = np.asarray(words, dtype=np.uint64)
    return int(stream_bit_counts(words, [words.size])[0])


def stream_bit_counts(payload: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Set bits of each stream in a concatenation of compressed streams,
    stream ``i`` being the next ``lengths[i]`` words of ``payload``: one
    vectorized popcount over all words, then per-stream segment sums."""
    words = np.asarray(payload, dtype=np.uint64)
    is_fill = (words & _FILL_FLAG) != 0
    one_fill = is_fill & ((words & _FILL_VALUE) != 0)
    per_word = np.where(
        is_fill,
        np.where(one_fill, (words & _LEN_MASK).astype(np.int64) * GROUP_BITS, 0),
        _popcount(words & _PAYLOAD_MASK).astype(np.int64),
    )
    cum = np.concatenate(([0], np.cumsum(per_word)))
    bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    return cum[bounds[1:]] - cum[bounds[:-1]]


def compressed_nbytes(words: np.ndarray) -> int:
    """Storage footprint of a compressed stream."""
    return int(np.asarray(words).size) * 8
