"""Hot inner loops of the p-median solvers, as numpy expressions.

Every kernel takes the cost matrix d (n customers x m facilities) first and
the customer weights w (one positive weight per row) last. A row of weight k
counts as k identical customers: each per-row term is multiplied by its
weight before the reduction over rows, so on integer-valued costs the result
equals the unweighted kernel on the matrix with every row repeated.

The swap scan evaluates all p*(m-p) single swaps in O(n*m) by splitting each
insertion's effect into a suite-independent gain (customers the new facility
captures) and a per-removal correction accumulated over the customers whose
closest facility is being removed (Resende & Werneck, 2007). Ties go to the
lowest inserted facility, then the lowest removed facility. The correction
sums rows grouped by the position of their closest facility, one contiguous
block of a stable row permutation per facility, each summed down its rows in
index order as np.add.at would add them.

The dual's rho_j = sum_i w_i min(0, d_ij - lam_i) has nonzero terms only
where d_ij < lam_i, a few percent of the matrix once the multipliers settle.
sort_rows builds, once per matrix, each row's columns in cost order and a
flat key that increases with (row, rank of the cost among d's distinct
values); one searchsorted of every row's (row, rank of lam_i) in that key
gives the length of the row's prefix below lam_i, and rho gathers only those
prefixes. The result is bit-identical to the dense column sums: those add
the rows in index order with +0.0 for every skipped entry, and np.bincount
adds its input, whose rows ascend, in the same order per column.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["SortedRows", "active_backend", "best_swap", "greedy_augment_costs",
           "rho", "sort_rows"]

_CHUNK = 256


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def best_swap(d, suite_mask, suite_idx, c1, d1, d2, w):
    """Best single swap for the current suite.

    Returns (delta, inserted, removed); delta is the cost change of the best
    swap found, (-1, -1) facilities when the suite spans all of them.
    """
    m = d.shape[1]
    p = suite_idx.shape[0]
    pos = np.full(m, -1, dtype=np.int64)
    pos[suite_idx] = np.arange(p)
    c1pos = pos[c1]
    by_closest = np.argsort(c1pos, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(c1pos, minlength=p))))
    closest_of_some = np.flatnonzero(bounds[1:] > bounds[:-1])
    wcol = w[:, None]
    best_delta, best_b, best_a = 0.0, -1, -1
    for start in range(0, m, _CHUNK):
        cols = np.arange(start, min(start + _CHUNK, m))
        cols = cols[~suite_mask[cols]]
        if cols.size == 0:
            continue
        D = d[:, cols]
        capture = d1[:, None] - D
        gain = (np.where(capture > 0.0, capture, 0.0) * wcol).sum(axis=0)
        Z = np.where(D >= d1[:, None], np.minimum(d2[:, None], D) - d1[:, None], 0.0)
        Zw = (Z * wcol)[by_closest]
        corr = np.zeros((p, cols.size))
        for a in closest_of_some:
            corr[a] = Zw[bounds[a]:bounds[a + 1]].sum(axis=0)
        a_pos = corr.argmin(axis=0)  # first occurrence = lowest removed facility
        delta = -gain + corr[a_pos, np.arange(cols.size)]
        k = delta.argmin()  # first occurrence = lowest inserted facility
        if best_b < 0 or delta[k] < best_delta:
            best_delta, best_b, best_a = float(delta[k]), int(cols[k]), int(suite_idx[a_pos[k]])
    return best_delta, best_b, best_a


def greedy_augment_costs(d, d1, w):
    """Total assignment cost after adding each facility to the current partial
    suite whose per-customer best costs are d1."""
    m = d.shape[1]
    wcol = w[:, None]
    out = np.empty(m)
    for start in range(0, m, _CHUNK):
        stop = min(start + _CHUNK, m)
        out[start:stop] = (np.minimum(d[:, start:stop], d1[:, None]) * wcol).sum(axis=0)
    return out


class SortedRows(NamedTuple):
    """Cost-ordered view of a cost matrix d (n x m), built by sort_rows."""

    order: np.ndarray  # (n, m) int32: each row's columns by ascending cost
    key: np.ndarray  # (n*m,) int64: row * values.size + rank of the cost in values
    values: np.ndarray  # d's distinct costs, ascending


def sort_rows(d) -> SortedRows:
    """The view rho reads: 12 bytes per entry of d plus 8 per distinct cost.

    Rows are sorted a block of about 2**16 entries at a time, so that the
    temporaries stay small next to the view itself.
    """
    n, m = d.shape
    values = np.sort(d, axis=None)  # np.unique's temporaries double the peak
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    order = np.empty((n, m), dtype=np.int32)
    key = np.empty((n, m), dtype=np.int64)
    step = max(1, 2**16 // m)
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        order[block] = np.argsort(d[block], axis=1)
        key[block] = np.searchsorted(values, np.take_along_axis(d[block], order[block], axis=1))
    key += np.arange(0, n * values.size, values.size)[:, None]
    return SortedRows(order, key.ravel(), values)


def rho(d, view: SortedRows, lam, w):
    """Per-facility reduced-cost sums w_i * min(0, d_ij - lam_i) of the dual,
    read from view = sort_rows(d)."""
    n, m = d.shape
    starts = np.arange(0, n * m, m)
    below = np.searchsorted(view.values, lam)  # distinct costs under lam_i
    ends = np.searchsorted(view.key, np.arange(0, n * view.values.size,
                                               view.values.size) + below)
    counts = ends - starts
    flat = np.arange(counts.sum()) + np.repeat(ends - np.cumsum(counts), counts)
    cols = view.order.ravel()[flat]
    terms = ((d.ravel()[np.repeat(starts, counts) + cols] - np.repeat(lam, counts))
             * np.repeat(w, counts))
    # With no entry below any multiplier, bincount returns int64 zeros.
    return np.bincount(cols, weights=terms, minlength=m).astype(np.float64, copy=False)
