"""Segmented array operations.

The workload generators produce *per-session* quantities (transfer counts)
and *per-transfer* quantities (durations, interarrival gaps) and need to
combine them without Python-level loops over hundreds of thousands of
sessions.  These helpers implement the required segmented primitives: a
cumulative sum that restarts at each segment boundary, and expansion of
per-segment values to per-element ones.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

from ._typing import FloatArray, IntArray


def segment_starts(lengths: npt.ArrayLike) -> IntArray:
    """Start index of each segment in the flattened element array.

    ``lengths`` holds the element count of each segment; the result has the
    same length, with ``result[0] == 0``.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    if lens.ndim != 1:
        raise ValueError("lengths must be one-dimensional")
    if lens.size and lens.min() < 0:
        raise ValueError("segment lengths must be non-negative")
    starts = np.zeros(lens.size, dtype=np.int64)
    if lens.size > 1:
        np.cumsum(lens[:-1], out=starts[1:])
    return starts


def expand_by_segment(per_segment: npt.ArrayLike,
                      lengths: npt.ArrayLike) -> npt.NDArray[Any]:
    """Repeat each per-segment value by its segment length.

    Equivalent to ``np.repeat(per_segment, lengths)`` with shape checking.
    """
    seg = np.asarray(per_segment)
    lens = np.asarray(lengths, dtype=np.int64)
    if seg.shape[0] != lens.size:
        raise ValueError(
            f"per_segment has {seg.shape[0]} entries, "
            f"expected {lens.size}")
    return np.repeat(seg, lens)


def segmented_cumsum(values: npt.ArrayLike, lengths: npt.ArrayLike, *,
                     exclusive: bool = False) -> FloatArray:
    """Cumulative sum restarting at every segment boundary.

    Parameters
    ----------
    values:
        Flattened per-element values; total length must equal
        ``lengths.sum()``.
    lengths:
        Element count per segment (non-negative; zeros allowed).
    exclusive:
        When True each element gets the sum of the *preceding* elements in
        its segment (first element of each segment is 0); when False the sum
        includes the element itself.

    Examples
    --------
    >>> segmented_cumsum([1, 2, 3, 4, 5], [2, 3]).tolist()
    [1.0, 3.0, 3.0, 7.0, 12.0]
    >>> segmented_cumsum([1, 2, 3, 4, 5], [2, 3], exclusive=True).tolist()
    [0.0, 1.0, 0.0, 3.0, 7.0]
    """
    vals = np.asarray(values, dtype=np.float64)
    lens = np.asarray(lengths, dtype=np.int64)
    if vals.ndim != 1 or lens.ndim != 1:
        raise ValueError("values and lengths must be one-dimensional")
    if lens.size and lens.min() < 0:
        raise ValueError("segment lengths must be non-negative")
    total = int(lens.sum()) if lens.size else 0
    if vals.size != total:
        raise ValueError(
            f"values length ({vals.size}) must equal lengths.sum() ({total})")
    if vals.size == 0:
        return np.empty(0, dtype=np.float64)
    running = np.cumsum(vals)
    nonempty = lens > 0
    starts = segment_starts(lens)[nonempty]
    # Total accumulated before each (non-empty) segment begins.
    base_per_segment = running[starts] - vals[starts]
    base = np.repeat(base_per_segment, lens[nonempty])
    inclusive: FloatArray = running - base
    if exclusive:
        return inclusive - vals
    return inclusive


def segmented_running_max(values: npt.ArrayLike,
                          lengths: npt.ArrayLike) -> FloatArray:
    """Running maximum restarting at every segment boundary.

    The segmented counterpart of ``np.maximum.accumulate``: element ``i``
    of the result is the maximum of its segment's values up to and
    including position ``i``.  This is the primitive behind the
    sessionizer's silence-gap computation, where each client's transfers
    form one segment and the running maximum tracks the latest transfer
    end seen so far (transfers overlap, so the previous end is not the
    latest end).

    Implemented as an index-compacted Hillis–Steele doubling scan:
    ``ceil(log2(L))`` passes for a longest segment of ``L`` elements,
    where pass ``k`` only touches the elements at least ``2^k`` deep in
    their segment (a rapidly shrinking set when most segments are short).
    Each pass only combines values from within the same segment, so the
    result is bit-for-bit the same float as one of the inputs — no offset
    arithmetic that could perturb it.

    Parameters
    ----------
    values:
        Flattened per-element values; total length must equal
        ``lengths.sum()``.
    lengths:
        Element count per segment (non-negative; zeros allowed).

    Examples
    --------
    >>> segmented_running_max([1, 3, 2, 5, 4], [3, 2]).tolist()
    [1.0, 3.0, 3.0, 5.0, 5.0]
    """
    vals = np.asarray(values, dtype=np.float64)
    lens = np.asarray(lengths, dtype=np.int64)
    if vals.ndim != 1 or lens.ndim != 1:
        raise ValueError("values and lengths must be one-dimensional")
    if lens.size and lens.min() < 0:
        raise ValueError("segment lengths must be non-negative")
    total = int(lens.sum()) if lens.size else 0
    if vals.size != total:
        raise ValueError(
            f"values length ({vals.size}) must equal lengths.sum() ({total})")
    if vals.size == 0:
        return np.empty(0, dtype=np.float64)
    return _scan_running_max(vals, segment_starts(lens)[lens > 0])


def _scan_running_max(values: FloatArray, first_positions: IntArray, *,
                      overwrite: bool = False) -> FloatArray:
    """Doubling-scan core of :func:`segmented_running_max`.

    ``first_positions`` holds the index of each non-empty segment's first
    element (``values`` is the flattened segment concatenation).  Shared
    with :func:`silence_gaps_sorted`, whose callers already have the
    first positions from their client grouping.  With ``overwrite=True``
    the scan runs in place, consuming ``values``.

    After k passes ``out[i]`` holds ``max(values[i-2^k+1 .. i] ∩
    segment)``; elements shallower than ``2^k`` in their segment are
    final.  Pass 1 is a single unguarded contiguous maximum against a
    snapshot whose segment-crossing sources are poisoned to ``-inf``
    (``max(x, -inf) == x``, so first-of-segment elements pass through
    bit-for-bit).  Later passes work on the surviving index set only —
    the elements at least ``shift = 2^k`` deep, tracked by the boolean
    membership array ``deep``, which doubles along with the window:
    ``offset[i] >= 2*shift`` ⇔ ``deep[i] and deep[i - shift]``.  Depth
    ≥ shift also guarantees ``i - shift`` is in the same segment, and
    the right-hand gathers complete before the scatter, giving the
    synchronous (snapshot) scan step despite the in-place update.
    """
    vals = np.asarray(values, dtype=np.float64)
    # A dtype-converting asarray already produced a private buffer.
    out = vals if (overwrite or vals is not values) else vals.copy()
    if out.size < 2:
        return out
    deep = np.ones(out.size, dtype=bool)
    deep[first_positions] = False
    snapshot = out.copy()
    inner = first_positions[first_positions > 0]
    snapshot[inner - 1] = -np.inf
    np.maximum(out[1:], snapshot[:-1], out=out[1:])
    # deep2[i] ⇔ offset[i] >= 2 ⇔ both i and i-1 are non-first.
    deep2 = np.zeros(out.size, dtype=bool)
    np.logical_and(deep[1:], deep[:-1], out=deep2[1:])
    deep = deep2
    idx = np.flatnonzero(deep)
    shift = 2
    while idx.size:
        out[idx] = np.maximum(out[idx], out[idx - shift])
        deeper = deep[idx - shift]
        shift <<= 1
        idx = idx[deeper]
        if idx.size:
            deep = np.zeros(out.size, dtype=bool)
            deep[idx] = True
    return out


def stable_client_order(client: IntArray, n_clients: int) -> IntArray:
    """Stable permutation grouping ``client`` values together.

    Within each client the original positions keep their order, so a
    start-sorted batch comes out in ``(client, start)`` order.  The key
    is narrowed to the smallest unsigned dtype holding ``n_clients``
    (every value lies in ``[0, n_clients)``), which sends NumPy's stable
    sort down its O(n) radix path.
    """
    key: npt.NDArray[Any] = client
    if n_clients <= 1 << 8:
        key = client.astype(np.uint8)
    elif n_clients <= 1 << 16:
        key = client.astype(np.uint16)
    return np.argsort(key, kind="stable")


def silence_gaps_sorted(start: FloatArray, end: FloatArray,
                        firsts: IntArray,
                        carried: FloatArray | None = None
                        ) -> tuple[FloatArray, FloatArray]:
    """Silence gaps of client-grouped transfers (the session rule).

    ``start``/``end`` are transfer columns in ``(client, start)`` order
    and ``firsts`` the position of each client segment's first transfer.
    A transfer's gap is its start minus the latest end among the same
    client's earlier transfers; a session boundary under timeout
    ``T_o`` is exactly a gap ``> T_o``.

    ``carried`` optionally holds, per segment, the running maximum of
    ends carried over from earlier batches (``-inf`` where nothing is
    carried): it joins every running maximum of its segment, and the
    segment's first gap is taken against it.  Without it each segment's
    first gap is ``+inf``, as it is against a carried ``-inf``.

    Returns ``(gaps, run_max)``, ``run_max`` being the per-segment
    running maximum of ends the gaps were derived from.  Consumes
    ``end``: the scan overwrites it in place.
    """
    n = start.size
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    run_max = _scan_running_max(end, firsts, overwrite=True)
    if carried is not None:
        # max over the same set of floats in any grouping is the same
        # float, so carrying state across batches matches one scan.
        lengths = np.diff(firsts, append=n)
        np.maximum(run_max, np.repeat(carried, lengths), out=run_max)
    gaps = np.empty(n, dtype=np.float64)
    gaps[0] = np.inf
    np.subtract(start[1:], run_max[:-1], out=gaps[1:])
    gaps[firsts] = np.inf if carried is None else start[firsts] - carried
    return gaps, run_max


def alternate_on_switch(switch: npt.ArrayLike, lengths: npt.ArrayLike, *,
                        first_value: npt.ArrayLike,
                        n_choices: int = 2) -> IntArray:
    """Track a per-segment state that flips between ``n_choices`` values.

    Models feed selection within a session: each segment (session) starts in
    state ``first_value[segment]``; whenever ``switch`` is True the state
    advances by one modulo ``n_choices``.  Vectorized via a segmented
    cumulative sum of switch indicators.

    Parameters
    ----------
    switch:
        Boolean per-element array; the first element of every segment is
        ignored (a session's first transfer uses the starting feed).
    lengths:
        Element count per segment.
    first_value:
        Starting state per segment, each in ``[0, n_choices)``.
    n_choices:
        Number of distinct states (live feeds).
    """
    if n_choices < 1:
        raise ValueError("n_choices must be positive")
    sw = np.asarray(switch, dtype=np.float64).copy()
    lens = np.asarray(lengths, dtype=np.int64)
    starts = segment_starts(lens)[lens > 0]
    if sw.size:
        sw[starts] = 0.0
    flips = segmented_cumsum(sw, lens)
    base = expand_by_segment(np.asarray(first_value, dtype=np.int64), lens)
    return ((base + flips.astype(np.int64)) % n_choices).astype(np.int64)


def unique_integers(values: IntArray
                    ) -> tuple[IntArray, IntArray, IntArray, IntArray]:
    """``np.unique`` of a 1-D integer array with every optional output.

    Returns ``(keys, first, inverse, counts)``, equal to ``np.unique(
    values, return_index=True, return_inverse=True,
    return_counts=True)``: the sorted distinct values, the position of
    each one's first occurrence, each element's key position, and each
    key's count.  ``np.unique`` needs a stable sort for ``first``; here
    an unstable one groups the values and a per-run minimum recovers
    ``first``, which is several times cheaper.
    """
    # The unstable order within a run is never observed: only run bounds
    # and per-run minima of positions leave this function.
    order = np.argsort(values)  # reprolint: disable=RL012, ties never observed (see above)
    grouped = values[order]
    head = np.empty(grouped.size, dtype=bool)
    head[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    counts = np.diff(starts, append=grouped.size).astype(np.int64)
    inverse = np.empty(grouped.size, dtype=np.int64)
    inverse[order] = np.repeat(np.arange(starts.size, dtype=np.int64),
                               counts)
    first = np.asarray(np.minimum.reduceat(order, starts) if starts.size
                       else (), dtype=np.int64)
    return grouped[starts], first, inverse, counts
