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


def invert_csr(
    offsets: np.ndarray, members: np.ndarray, n_values: int
) -> tuple[np.ndarray, np.ndarray]:
    """Invert a CSR table: member value → segment indices (ascending).

    Returns ``(inv_offsets, inv_segments)`` where value ``v`` maps to
    ``inv_segments[inv_offsets[v]:inv_offsets[v+1]]`` — the segments that
    contain ``v``, in ascending segment order (the scatter below walks
    segments in order, so per-value lists come out sorted).
    """
    counts = np.bincount(members, minlength=n_values).astype(np.int64)
    inv_offsets = np.zeros(n_values + 1, dtype=np.int64)
    np.cumsum(counts, out=inv_offsets[1:])
    n_segments = max(offsets.size - 1, 0)
    segment_of = np.repeat(
        np.arange(n_segments, dtype=np.int64), np.diff(offsets)
    )
    order = np.argsort(members, kind="stable")
    inv_segments = segment_of[order]
    return inv_offsets, inv_segments
