"""Rank-frequency profiles and share tables.

Figure 2 of the paper ranks autonomous systems by the share of transfers
and of IP addresses they command, and tabulates transfer shares by country;
Figure 7 ranks clients by their transfer and session counts (the *client
interest profile*).  All reduce to counting by key and sorting descending.
"""

from __future__ import annotations

import numpy as np

from .._typing import ArrayLike, FloatArray
from ..errors import AnalysisError


def group_counts(keys: ArrayLike) -> tuple[np.ndarray, FloatArray]:
    """Count occurrences per distinct key.

    Returns ``(unique_keys, counts)`` with counts as floats for downstream
    arithmetic.  Keys may be any NumPy-comparable dtype (ints, strings).
    """
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise AnalysisError(f"keys must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise AnalysisError("group_counts requires a non-empty key array")
    unique, counts = np.unique(arr, return_counts=True)
    return unique, counts.astype(np.float64)


def rank_frequency(counts: ArrayLike, *, normalize: bool = True
                   ) -> tuple[FloatArray, FloatArray]:
    """Sort counts descending into a rank-frequency profile.

    Returns ``(ranks, frequencies)`` where ``ranks`` starts at 1.  With
    ``normalize`` the frequencies are fractions of the total, matching the
    paper's "% of transfers" axes.
    """
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise AnalysisError("counts must be a non-empty one-dimensional array")
    arr = arr[arr > 0]
    if arr.size == 0:
        raise AnalysisError("counts must contain at least one positive entry")
    freq = np.sort(arr)[::-1]
    if normalize:
        freq = freq / freq.sum()
    ranks = np.arange(1, freq.size + 1, dtype=np.float64)
    return ranks, freq


def share_by_key(keys: ArrayLike, *, top: int | None = None
                 ) -> list[tuple[str, float]]:
    """Fraction of observations per key, sorted descending.

    Returns up to ``top`` ``(key, share)`` pairs — the Figure 2 (right)
    country table with string keys.
    """
    unique, counts = group_counts(keys)
    return shares_of_counts(unique, counts, top=top)


def shares_of_counts(keys: np.ndarray, counts: FloatArray, *,
                     top: int | None = None) -> list[tuple[str, float]]:
    """:func:`share_by_key` over keys already counted.

    ``keys`` are the sorted distinct keys and ``counts[i]`` the number
    of observations of ``keys[i]`` (as :func:`group_counts` returns
    them); ties keep :func:`share_by_key`'s order.
    """
    shares = counts / counts.sum()
    order = np.argsort(shares, kind="stable")[::-1]
    if top is not None:
        if top < 1:
            raise AnalysisError(f"top must be positive, got {top}")
        order = order[:top]
    return [(str(keys[i]), float(shares[i])) for i in order]
