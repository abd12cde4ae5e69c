"""Hot inner loops of the p-median solvers, as chunked numpy expressions.

Every kernel takes the cost matrix d (n customers x m facilities) first and
the customer weights w (one positive weight per row) last. A row of weight k
counts as k identical customers: each per-row term is multiplied by its
weight before the reduction over rows, so on integer-valued costs the result
equals the unweighted kernel on the matrix with every row repeated.

The swap scan evaluates all p*(m-p) single swaps in O(n*m) by splitting each
insertion's effect into a suite-independent gain (customers the new facility
captures) and a per-removal correction accumulated over the customers whose
closest facility is being removed (Resende & Werneck, 2007). Ties go to the
lowest inserted facility, then the lowest removed facility.
"""
from __future__ import annotations

import numpy as np

__all__ = ["active_backend", "best_swap", "greedy_augment_costs", "rho"]

_CHUNK = 256


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def best_swap(d, suite_mask, suite_idx, c1, d1, d2, first_improve, threshold, w):
    """Best (or first improving) single swap for the current suite.

    Returns (delta, inserted, removed); delta is the cost change of the best
    swap found, (-1, -1) facilities when the suite spans all of them.
    """
    n, m = d.shape
    p = suite_idx.shape[0]
    pos = np.full(m, -1, dtype=np.int64)
    pos[suite_idx] = np.arange(p)
    c1pos = pos[c1]
    wcol = w[:, None]
    best_delta, best_b, best_a = 0.0, -1, -1
    have_best = False
    for start in range(0, m, _CHUNK):
        cols = np.arange(start, min(start + _CHUNK, m))
        cols = cols[~suite_mask[cols]]
        if cols.size == 0:
            continue
        D = d[:, cols]
        capture = d1[:, None] - D
        gain = (np.where(capture > 0.0, capture, 0.0) * wcol).sum(axis=0)
        Z = np.where(D >= d1[:, None], np.minimum(d2[:, None], D) - d1[:, None], 0.0)
        corr = np.zeros((p, cols.size))
        np.add.at(corr, c1pos, Z * wcol)
        a_pos = corr.argmin(axis=0)  # first occurrence = lowest removed facility
        delta = -gain + corr[a_pos, np.arange(cols.size)]
        for k in range(cols.size):
            dk = float(delta[k])
            if not have_best or dk < best_delta:
                best_delta, best_b, best_a = dk, int(cols[k]), int(suite_idx[a_pos[k]])
                have_best = True
            if first_improve and dk < -threshold:
                return dk, int(cols[k]), int(suite_idx[a_pos[k]])
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


def rho(d, lam, w):
    """Per-facility reduced-cost sums w_i * min(0, d_ij - lam_i) of the dual."""
    m = d.shape[1]
    wcol = w[:, None]
    out = np.empty(m)
    for start in range(0, m, _CHUNK):
        stop = min(start + _CHUNK, m)
        red = d[:, start:stop] - lam[:, None]
        out[start:stop] = (np.where(red < 0.0, red, 0.0) * wcol).sum(axis=0)
    return out
