"""Cheap fit screens used before the full solver: one-row stacking, the DFF
NO_FIT bound and the normal-pattern box cut."""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from boxsuite.fitting.types import FitProblem, orientation_extents
from boxsuite.model import Carton, Dims3, canonical_dims, tolerance_for

__all__ = [
    "fits_stacking",
    "dff_refutes",
    "extent_sums",
    "normal_pattern_box",
]


_DFF_TOL = 1e-9
_DFF_K = np.arange(1.0, 5.0)


def _dff_family(ext: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every axis's dual feasible functions evaluated at the extents ``ext``.

    ``ext`` ends in the three axes; the result adds a last dimension over the
    functions: the identity ``x = ext / length``, Fekete & Schepers' ``u^(k)``
    for k = 1..4 and ``U^(e/length)`` for every carton extent e. Where
    ``2e > length`` that ``U`` is not a valid function and the identity
    stands in for it. Wherever float error could move a value across a
    breakpoint the smaller branch is taken, which only weakens the bound.
    """
    x = ext / lengths
    # u^(k)(x) = x when (k+1)x is integral, floor((k+1)x)/k otherwise. Next
    # to an integer m the smallest branch value is (m-1)/k, and
    # ceil(y - tol) - 1 is floor(y) everywhere else.
    k1 = _DFF_K + 1.0
    y = x[..., None] * k1
    u = np.maximum(np.ceil(y - _DFF_TOL * k1) - 1.0, 0.0) / _DFF_K
    # U^(eps)(x) is 0 below eps, 1 above 1-eps and x between. The lower
    # breakpoint compares raw extents, which is exact.
    e = np.array(sorted(set(ext.ravel().tolist())))  # np.unique would import numpy.ma
    e_ok = 2.0 * e <= lengths[:, None]
    top = (lengths[:, None] - e) + _DFF_TOL * lengths[:, None]
    xe = x[..., None]
    big = np.where(ext[..., None] > top, 1.0, xe)
    U = np.where(e_ok & (ext[..., None] < e), 0.0, np.where(e_ok, big, xe))
    return np.concatenate((xe, u, U), axis=-1)


def dff_refutes(problem: FitProblem) -> bool:
    """True only when no packing exists, by a dual-feasible-function volume bound.

    If the cartons pack, every triple of dual feasible functions (one per
    axis) maps them to cartons that still pack into the unit cube, so their
    transformed volume is at most 1 (Fekete & Schepers, Math. Methods Oper.
    Res. 60, 2004). Each carton counts at its cheapest allowed orientation
    that fits the box; one with no fitting orientation refutes at once.
    Bottom-resting is ignored, which only relaxes the problem.

    Each axis length is the box length plus ``(n + 1) * eps``: a chain of n
    cartons that ``check_witness`` accepts (origin down to -eps, n - 1
    overlaps of eps, end up to box + eps) spans at most that much, so a
    tolerated witness is an exact packing in the enlarged box.
    """
    slack = (problem.n + 1) * problem.eps
    lengths = tuple(v + slack for v in problem.box.as_tuple())
    groups = Counter(orientation_extents(c) for c in problem.cartons)
    usable = []
    for opts in groups:
        ok = [o for o in opts if o[0] <= lengths[0] and o[1] <= lengths[1]
              and o[2] <= lengths[2]]
        if not ok:
            return True
        usable.append(ok)
    # (groups, orientations, axes); short lists repeat their first entry,
    # which leaves every minimum unchanged.
    width = max(len(ok) for ok in usable)
    ext = np.array([ok + ok[:1] * (width - len(ok)) for ok in usable])
    fam = _dff_family(ext, np.array(lengths))
    vol = ((fam[:, :, 0, :, None] * fam[:, :, 1, None, :])[..., None]
           * fam[:, :, 2, None, None, :])
    counts = np.fromiter(groups.values(), dtype=np.float64, count=len(groups))
    total = counts @ vol.min(axis=1).reshape(len(groups), -1)
    return bool(total.max() > 1.0 + _DFF_TOL)


# Most subset sums ``extent_sums`` builds along one axis: 4^7, every sum of
# seven free cartons (none, or one of three extents, each). Past it the cut
# is skipped, so that its cost stays bounded on long orders of fractional
# cartons, whose distinct sums grow about fourfold per carton.
MAX_EXTENT_SUMS = 4 ** 7


def extent_sums(keys: Sequence[tuple], limit: float
                ) -> Optional[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Sorted sums, up to ``limit``, of one allowed extent from each of any
    subset of the cartons: along a horizontal axis, and along the vertical one.

    ``keys`` are the cartons' ``carton_key`` values. A height-pinned carton
    adds its length or width across and only its height up; a free one adds
    any of its dims on either axis. The empty subset makes 0.0 the first sum.
    Sums are formed in ``keys`` order, so callers that pass sorted keys get
    the same floats whatever order the cartons came in. None when an axis
    has more than ``MAX_EXTENT_SUMS`` sums.
    """
    across = _subset_sums([dims[:2] if pinned else dims for pinned, dims, _ in keys], limit)
    if across is None or not any(pinned for pinned, _, _ in keys):
        return None if across is None else (across, across)
    up = _subset_sums([dims[2:] if pinned else dims for pinned, dims, _ in keys], limit)
    return None if up is None else (across, up)


def _subset_sums(choices, limit: float) -> Optional[tuple[float, ...]]:
    sums = {0.0}
    for extents in choices:
        extents = set(extents)
        sums |= {s + e for s in sums for e in extents if s + e <= limit}
        if len(sums) > MAX_EXTENT_SUMS:
            return None
    return tuple(sorted(sums))


def normal_pattern_box(problem: FitProblem,
                       sums: tuple[tuple[float, ...], tuple[float, ...]]) -> Optional[Dims3]:
    """The box with each axis cut to the longest sum of carton extents it
    holds, or None when some axis holds no carton at all (no packing exists).

    Push a packing left, back and down until nothing moves (bottom-resting
    cartons stay on the floor) and every carton's far side lies at a sum of
    distinct cartons' extents along that axis: Christofides & Whitlock's
    normal patterns (Oper. Res. 25, 1977). So the cartons pack into the cut
    box exactly when they pack into the declared one, and every witness in
    the cut box is one in the declared box. As in ``dff_refutes``, sums up
    to the length plus ``(n + 1) * eps`` count, so a packing inside the
    tolerance keeps its length; no axis ever grows.

    ``sums`` are the cartons' ``extent_sums`` with a limit of at least the
    longest axis plus that slack.
    """
    box = problem.box.as_tuple()
    slack = (problem.n + 1) * problem.eps
    across, up = sums
    cut = []
    for length, axis_sums in zip(box, (across, across, up)):
        longest = axis_sums[bisect_right(axis_sums, length + slack) - 1]
        if longest == 0.0:
            return None
        cut.append(min(longest, length))
    return Dims3(*cut)


def fits_stacking(cartons: Sequence[Carton], box: Dims3) -> bool:
    """Sufficient fit test: line the cartons up along a single axis.

    ``box`` is the declared box, ``box.c`` its vertical axis. The one-row
    constructions keep every pinned carton's height vertical (see
    ``Carton.pins_vertical``), so when any carton is pinned the box keeps
    ``box.c`` third; with only free cartons its dims are sorted and their
    order does not matter.

    A length or width row leaves every carton on the floor. A height stack
    elevates all cartons but the bottom one, so it is only allowed with at
    most one bottom-resting carton (that carton takes the floor slot).
    """
    eps = tolerance_for(box)
    # Componentwise sums and maxima of the cartons' ``canonical_dims`` (the
    # height kept third for a pinned carton), summed in carton order.
    sx = sy = sz = mx = my = mz = 0.0
    br_count = 0
    pinned = False
    for c in cartons:
        pins = c.pins_vertical
        x, y, z = canonical_dims(c.dims.as_tuple(), pins)
        sx += x
        sy += y
        sz += z
        if x > mx:
            mx = x
        if y > my:
            my = y
        if z > mz:
            mz = z
        if c.bottom_resting:
            br_count += 1
        pinned = pinned or pins
    bx, by, bz = canonical_dims(box.as_tuple(), pinned)
    bx, by, bz = bx + eps, by + eps, bz + eps
    # Guard so that "true" always means a constructible packing: every carton
    # must fit the box componentwise in its effective orientation.
    if mx > bx or my > by or mz > bz:
        return False
    if sx <= bx or sy <= by:
        return True
    return br_count <= 1 and sz <= bz
