"""The numpy kernels behind the array-backed solver loops.

This is the *only* module in :mod:`repro.vec` that imports numpy; the
RPL002 layering table names ``vec`` a leaf and polices which layers may
import it, so every numpy-accelerated hot path is reachable from one
greppable choke point. Every kernel here is exact (integer arithmetic,
comparisons and first-max scans only; no float accumulation), so the
array-backed loops reproduce their scalar reference functions bit for
bit.
"""

from __future__ import annotations

from array import array

import numpy as np


def as_int64(values: array) -> np.ndarray:
    """Zero-copy int64 view of a stdlib ``array('q')`` buffer."""
    if values:
        return np.frombuffer(values, dtype=np.int64)
    return np.empty(0, dtype=np.int64)


def as_float64(values: array) -> np.ndarray:
    """Zero-copy float64 view of a stdlib ``array('d')`` buffer."""
    if values:
        return np.frombuffer(values, dtype=np.float64)
    return np.empty(0, dtype=np.float64)


def segment_counts(
    offsets: np.ndarray, members: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Per-segment count of set ``mask`` bits, for a CSR membership table.

    ``offsets`` has one more entry than there are segments; segment ``k``
    owns ``members[offsets[k]:offsets[k+1]]``. Implemented with a
    cumulative sum rather than ``np.add.reduceat`` because reduceat
    mis-handles empty segments. Integer-exact.
    """
    if members.size == 0:
        return np.zeros(max(offsets.size - 1, 0), dtype=np.int64)
    running = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(mask[members].astype(np.int64), out=running[1:])
    return running[offsets[1:]] - running[offsets[:-1]]


def first_argmax(values: np.ndarray) -> int:
    """Index of the first maximum — numpy's tie rule matches the scalar
    ``value > best`` scan, so the array loops and their scalar references
    break ties identically."""
    return int(values.argmax())


def subtract_at(counts: np.ndarray, indices: np.ndarray) -> None:
    """``counts[i] -= multiplicity of i in indices``, in place. Exact."""
    np.subtract.at(counts, indices, 1)


def gather_segments(
    offsets: np.ndarray, data: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Concatenate ``data[offsets[k]:offsets[k+1]]`` for each key, in order.

    The vectorized equivalent of a per-key slice-and-concatenate loop:
    segment contents keep their internal order and segments appear in
    ``keys`` order.
    """
    starts = offsets[keys]
    counts = offsets[keys + 1] - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    # Output position p inside key i's run reads
    # data[starts[i] + p - (ends[i] - counts[i])].
    shift = (starts - ends + counts).repeat(counts)
    return data[shift + np.arange(total, dtype=np.int64)]


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    Keys are narrowed to ``uint8``/``uint16`` so numpy takes its radix
    sort; up to ``2**32`` it runs two LSD passes, the low 16 bits first,
    then the high 16 bits of the keys in that order. A stable sort's
    permutation is unique, so the result equals the comparison sort's.
    """
    if bound <= 1 << 8:
        return np.argsort(keys.astype(np.uint8), kind="stable")
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if bound > 1 << 32:
        return np.argsort(keys, kind="stable")
    low = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys[low] >> 16).astype(np.uint16)
    return low[np.argsort(high, kind="stable")]


def lexsort_by_key(
    values: np.ndarray, keys: np.ndarray, bound: int
) -> np.ndarray:
    """``np.lexsort((values, keys))`` for integer ``keys`` in ``[0,
    bound)``: a stable sort by value, then a :func:`stable_argsort` pass
    by key. Both passes are stable, so the permutation is lexsort's."""
    by_value = np.argsort(values, kind="stable")
    return by_value[stable_argsort(keys[by_value], bound)]


def invert_csr(
    offsets: np.ndarray, members: np.ndarray, n_values: int
) -> tuple[np.ndarray, np.ndarray]:
    """Invert a CSR table: member value → segment indices (ascending).

    Returns ``(inv_offsets, inv_segments)`` where value ``v`` maps to
    ``inv_segments[inv_offsets[v]:inv_offsets[v+1]]`` — the segments that
    contain ``v``, in ascending segment order (members are listed
    segment by segment and :func:`stable_argsort` keeps that order among
    equal values).
    """
    counts = np.bincount(members, minlength=n_values).astype(np.int64)
    inv_offsets = np.zeros(n_values + 1, dtype=np.int64)
    np.cumsum(counts, out=inv_offsets[1:])
    n_segments = max(offsets.size - 1, 0)
    segment_of = np.repeat(
        np.arange(n_segments, dtype=np.int64), np.diff(offsets)
    )
    inv_segments = segment_of[stable_argsort(members, n_values)]
    return inv_offsets, inv_segments
