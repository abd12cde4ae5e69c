"""Nesting sets, the tiered shipment-to-box feasibility scan and fit.csv I/O."""
import csv
import hashlib
import io
import json
import random
import tempfile
import tracemalloc
from bisect import bisect_left
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxsuite
from boxsuite import fitmatrix
from boxsuite.cost import BoxTableCost, InnerVolumeCost, PairTableCost
from boxsuite.fitmatrix import (
    FitMatrix,
    FitScanConfig,
    cheapest_fitting_boxes,
    compute_fit_matrix,
    compute_nest_sets,
    load_fit_matrix,
)
from boxsuite.fitting import (
    FitProblem,
    FitVerdict,
    Outcome,
    SolverConfig,
    carton_key,
    solve_fit,
)
from boxsuite.model import (
    BoxSet,
    CandidateBox,
    Carton,
    DataError,
    Dims3,
    Shipment,
    liquid_volume,
)

GENEROUS = SolverConfig(time_limit=30.0)


def box_set(*dims):
    return BoxSet([CandidateBox(i + 1, Dims3(*d)) for i, d in enumerate(dims)])


def make_shipment(sid, carton_dims, flags=None):
    flags = flags or [{} for _ in carton_dims]
    cartons = tuple(Carton(Dims3(*d), **f) for d, f in zip(carton_dims, flags))
    return Shipment(id=sid, cartons=cartons)


# -- nesting -------------------------------------------------------------------

def test_nesting_examples():
    bs = box_set((5, 4, 1), (5, 4, 2), (10, 2, 2), (5, 5, 5), (6, 5, 4), (5, 6, 9))
    ns = compute_nest_sets(bs)
    by_id = {bs[j].id: j for j in range(len(bs))}

    j = by_id[1]  # (5,4,1)
    assert by_id[2] in ns.free[j] and by_id[2] in ns.ho[j]

    j = by_id[3]  # (10,2,2) nests nowhere despite smaller volume than (5,5,5)
    assert ns.free[j] == (j,)

    j = by_id[5]  # (6,5,4) HO-nests into (5,6,9): footprints (6,5) <= (6,5), 4 <= 9
    assert by_id[6] in ns.ho[j]


def test_nesting_invariants():
    rng = random.Random(5)
    bs = box_set(*[tuple(rng.randint(1, 9) for _ in range(3)) for _ in range(40)])
    ns = compute_nest_sets(bs)
    for j in range(len(bs)):
        assert ns.free[j][0] == j and ns.ho[j][0] == j
        assert set(ns.ho[j]) <= set(ns.free[j])
        for k in ns.free[j]:
            assert bs.volumes[k] >= bs.volumes[j] - 1e-9


def _pairwise_nests(boxes):
    """Reference nest matrices: one comparison per box pair, later boxes only."""
    eps = 1e-9 * float(boxes.dims.max())
    J = len(boxes)
    mats = []
    for view in (boxes.sorted_dims, boxes.sorted_lw_dims):
        up = np.zeros((J, J), dtype=bool)
        for j in range(J):
            for k in range(j, J):
                up[j, k] = all(float(view[k][a]) >= float(view[j][a]) - eps for a in range(3))
        mats.append(up)
    return mats


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_nest_matrices_match_the_pairwise_definition(data):
    # Dims sit on a grid of half tolerances below integers, so pairs of boxes
    # are equal, 0.5 eps apart (they nest both ways) or 1.5 eps apart (the
    # smaller one only); the 20-cube fixes eps at 2e-8.
    eps = 2e-8
    base = st.tuples(*[st.integers(2, 5)] * 3)
    nudge = st.tuples(*[st.sampled_from((0, 0.5, 1.5, 3))] * 3)
    shapes = data.draw(st.lists(st.tuples(base, nudge), min_size=1, max_size=24))
    dims = [tuple(b - t * eps for b, t in zip(base_, nudge_)) for base_, nudge_ in shapes]
    dims += data.draw(st.lists(st.sampled_from(dims), max_size=4))  # identical boxes
    boxes = box_set(*dims, (20, 20, 20))
    with mock.patch.object(fitmatrix, "_NEST_BLOCK", data.draw(st.integers(1, 32))):
        ns = compute_nest_sets(boxes)
    free, ho = _pairwise_nests(boxes)
    assert ns.up_free.dtype == ns.up_ho.dtype == np.dtype(bool)
    assert np.array_equal(ns.up_free, free) and np.array_equal(ns.up_ho, ho)
    for j in range(len(boxes)):
        for got, up in ((ns.free[j], free), (ns.ho[j], ho)):
            assert got == (j, *(k for k in range(j + 1, len(boxes)) if up[j, k]))
            assert all(type(k) is int for k in got)
    assert len(ns.free) == len(ns.ho) == len(boxes) and list(ns.free)[-1] == (len(boxes) - 1,)


def test_nest_matrices_at_the_paper_shape_fit_in_memory():
    # 5,284 boxes, as the paper's candidate grid: two J x J bool matrices
    # (28 MB each) are held, and row blocks keep the build's peak bounded.
    rng = np.random.default_rng(15)
    J = 5284
    dims = np.column_stack([rng.integers(6, 61, J), rng.integers(4, 41, J),
                            rng.integers(2, 31, J)])
    boxes = BoxSet([CandidateBox(i + 1, Dims3(*map(int, d))) for i, d in enumerate(dims)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ns = compute_nest_sets(boxes)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ns.up_free.shape == ns.up_ho.shape == (J, J)
    assert held - before <= 64 * 2**20
    assert peak - before <= 128 * 2**20


# -- scan basics ---------------------------------------------------------------

def test_oversized_shipment_excluded():
    boxes = box_set((2, 2, 2), (3, 3, 3))
    ship = make_shipment(1, [(9, 9, 9)])
    mat, packs = compute_fit_matrix([ship], boxes)
    assert mat.rows[0] == ()
    assert packs.W == () and packs.I_hat == 0


def test_rows_closed_under_nesting_and_volume():
    rng = random.Random(31)
    boxes = box_set(*[tuple(rng.randint(2, 7) for _ in range(3)) for _ in range(25)])
    ships = []
    for sid in range(1, 21):
        n = rng.randint(1, 4)
        dims = [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(n)]
        flags = [dict(height_oriented=rng.random() < 0.3,
                      bottom_resting=rng.random() < 0.2) for _ in range(n)]
        ships.append(make_shipment(sid, dims, flags))
    nests = compute_nest_sets(boxes)
    mat, _ = compute_fit_matrix(ships, boxes, nests)
    for i, ship in enumerate(ships):
        pinned = any(c.height_oriented or c.bottom_resting for c in ship.cartons)
        closure = nests.ho if pinned else nests.free
        v = liquid_volume(ship)
        for j in mat.rows[i]:
            assert boxes.volumes[j] >= v - 1e-9
            for k in closure[j]:
                assert k in mat.rows[i]


def test_ho_shipment_uses_height_preserving_closure():
    # Same sorted dims, different vertical capacity: the tall box fits the
    # column, the flat one must not inherit the bit.
    boxes = box_set((1, 1, 3), (3, 1, 1))
    tall_first = make_shipment(1, [(1, 1, 3)], [dict(height_oriented=True)])
    free = make_shipment(2, [(1, 1, 3)])
    mat, _ = compute_fit_matrix([tall_first, free], boxes)
    tall_idx = boxes.index_of(1)
    flat_idx = boxes.index_of(2)
    assert tall_idx in mat.rows[0] and flat_idx not in mat.rows[0]
    assert tall_idx in mat.rows[1] and flat_idx in mat.rows[1]


def test_bottom_resting_shipment_uses_height_preserving_closure():
    # Two floor cartons (3,3,1) pack a (6,3,1) box lying side by side but can
    # never both leave the 3x1 floor of a (3,1,6) box with equal sorted dims.
    boxes = box_set((6, 3, 1), (3, 1, 6))
    ship = make_shipment(1, [(3, 3, 1), (3, 3, 1)],
                         [dict(bottom_resting=True)] * 2)
    mat, _ = compute_fit_matrix([ship], boxes)
    assert boxes.index_of(1) in mat.rows[0]
    assert boxes.index_of(2) not in mat.rows[0]


# -- consistency audits ----------------------------------------------------------

def _random_world(seed, n_boxes=14, n_ships=12, dim_max=5, box_max=7):
    rng = random.Random(seed)
    boxes = box_set(*[tuple(rng.randint(2, box_max) for _ in range(3))
                      for _ in range(n_boxes)])
    ships = []
    for sid in range(1, n_ships + 1):
        n = rng.randint(1, 5)
        dims = [tuple(rng.randint(1, dim_max) for _ in range(3)) for _ in range(n)]
        flags = [dict(height_oriented=rng.random() < 0.25,
                      bottom_resting=rng.random() < 0.15) for _ in range(n)]
        ships.append(make_shipment(sid, dims, flags))
    return boxes, ships


def test_fast_path_consistency_with_direct_solves():
    """Every bit, set or clear, is reproduced by solve_fit run directly."""
    boxes, ships = _random_world(802)
    mat, _ = compute_fit_matrix(ships, boxes)
    for i, ship in enumerate(ships):
        v = liquid_volume(ship)
        for j in range(len(boxes)):
            if boxes.volumes[j] < v:
                assert j not in mat.rows[i]
                continue
            verdict = solve_fit(FitProblem(ship.cartons, boxes[j].inner), GENEROUS)
            assert verdict.outcome in (Outcome.FIT, Outcome.NO_FIT)
            assert (j in mat.rows[i]) == verdict.is_fit, (ship.id, boxes[j].id)


def test_scan_is_deterministic():
    boxes, ships = _random_world(55)
    mat1, _ = compute_fit_matrix(ships, boxes)
    mat2, _ = compute_fit_matrix(ships, boxes)
    assert mat1.rows == mat2.rows


def test_exact_small_solver_sees_only_two_and_three_carton_orders(monkeypatch):
    # Orders of four or more cartons go from the screens to the box cut and
    # the search; no pair or triple of their cartons is solved on its own.
    # Of the two- and three-carton orders, pairs go to the closed-form
    # solver and triples to the search.
    boxes, ships = _random_world(56, n_ships=30)
    calls = {"exact": [], "search": []}

    def counting(name, fn):
        def wrapped(prob, *args):
            calls[name].append(prob.n)
            return fn(prob, *args)
        return wrapped

    monkeypatch.setattr(fitmatrix, "fits_exact_small",
                        counting("exact", fitmatrix.fits_exact_small))
    monkeypatch.setattr(fitmatrix, "solve_fit", counting("search", fitmatrix.solve_fit))
    compute_fit_matrix([s for s in ships if len(s.cartons) >= 4], boxes)
    assert calls["exact"] == []
    assert calls["search"] and min(calls["search"]) >= 4
    calls["search"].clear()
    compute_fit_matrix([s for s in ships if len(s.cartons) in (2, 3)], boxes)
    assert calls["exact"] and set(calls["exact"]) == {2}
    assert calls["search"] and set(calls["search"]) == {3}


def _closure_loop_row(ship, boxes, nests):
    """Reference single-carton row: the exact fit test from the volume cut
    up, each passing box not yet set adding its nest set."""
    ho, dims, br = carton_key(ship.cartons[0])
    eps = 1e-9 * float(boxes.dims.max())
    view = boxes.sorted_lw_dims if ho else boxes.sorted_dims
    nec = np.all(view >= np.array(dims) - eps, axis=1)
    closure = nests.ho if ho or br else nests.free
    row = set()
    for j in range(bisect_left(boxes.volumes, liquid_volume(ship)), len(boxes)):
        if j not in row and nec[j]:
            row.update(closure[j])
    return tuple(sorted(row))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_single_carton_rows_match_the_closure_loop(data):
    # Boxes 0-3 half tolerances below small integers and cartons up to two
    # tolerances either side of a box's dims: nesting then reaches boxes just
    # outside a carton's own fit test, which the fill must add as the loop
    # does. The 20-cube fixes eps at 2e-8.
    eps = 2e-8
    half = st.sampled_from((0, 1, 2, 3))
    box_dims = data.draw(st.lists(
        st.tuples(*[st.tuples(st.integers(3, 5), half)] * 3), min_size=1, max_size=12))
    dims = [tuple(b - t * eps / 2 for b, t in d) for d in box_dims]
    boxes = box_set(*dims, (20, 20, 20))
    ships = []
    for sid in range(data.draw(st.integers(1, 8))):
        near = data.draw(st.sampled_from(dims))
        offsets = data.draw(st.tuples(*[st.sampled_from((-4, -2, -1, 0, 1, 2, 3, 4))] * 3))
        carton = [d + t * eps / 2 for d, t in zip(near, offsets)]
        data.draw(st.randoms()).shuffle(carton)
        flags = dict(height_oriented=data.draw(st.booleans()),
                     bottom_resting=data.draw(st.booleans()))
        ships.append(make_shipment(sid, [carton], [flags]))
    nests = compute_nest_sets(boxes)
    mat, _ = compute_fit_matrix(ships, boxes, nests)
    assert mat.rows == tuple(_closure_loop_row(s, boxes, nests) for s in ships)


@pytest.mark.parametrize("dims, carton, expected", [
    # (5, 4, 4) falls 0.9 eps short of the carton's 5 + eps/2 but nests
    # (5, 4, 3), which holds it: the nest fill adds it.
    ([(5, 4, 3), (5 - 0.9 * 1.2e-8, 4, 4), (12, 8, 8)], (5 + 0.6e-8, 4, 2.5), (0, 1, 2)),
    # Nesting within eps is not transitive: (11, 10, 10 - 0.9 eps) nests the
    # 10-cube and (12, 10, 10 - 1.8 eps) nests it, but not the cube. Only a
    # box the fill has not reached yet adds its nest set, so the last box,
    # 1.8 eps short of the carton, stays out.
    ([(10, 10, 10), (11, 10, 10 - 0.9 * 1.2e-8), (12, 10, 10 - 1.8 * 1.2e-8)],
     (10, 10, 10), (0, 1)),
])
def test_single_carton_fill_follows_the_closure_loop_at_the_tolerance(dims, carton, expected):
    boxes = box_set(*dims)  # eps = 1.2e-8
    ship = make_shipment(1, [carton])
    nests = compute_nest_sets(boxes)
    mat, _ = compute_fit_matrix([ship], boxes, nests)
    assert mat.rows[0] == _closure_loop_row(ship, boxes, nests) == expected


def test_parallel_scan_of_a_mixed_input_matches_sequential():
    # Single- and multi-carton orders alternate; a limit too short for any
    # search times out every triple the root does not refute, in both modes.
    boxes, ships = _random_world(63, n_ships=16)
    ships = [make_shipment(100 + k, [(1 + k % 4, 2, 1)]) if k % 3 == 0 else s
             for k, s in enumerate(ships)]
    assert {len(s.cartons) for s in ships} >= {1, 2, 3}
    cfg = FitScanConfig(solver=SolverConfig(time_limit=1e-9))
    seq, _ = compute_fit_matrix(ships, boxes, cfg=cfg)
    par, _ = compute_fit_matrix(ships, boxes, cfg=FitScanConfig(cfg.solver, threads=2))
    assert seq.rows == par.rows and seq.timeouts == par.timeouts and seq.timeouts
    assert np.array_equal(seq.indptr, par.indptr) and np.array_equal(seq.indices, par.indices)
    assert [s for s, _ in seq.timeouts] == sorted(
        (s for s, _ in seq.timeouts), key=[x.id for x in ships].index)


def test_parallel_scan_matches_sequential():
    boxes, ships = _random_world(57, n_ships=9)
    seq, _ = compute_fit_matrix(ships, boxes, cfg=FitScanConfig(threads=1))
    par, _ = compute_fit_matrix(ships, boxes, cfg=FitScanConfig(threads=2))
    assert seq.rows == par.rows


# -- persistence -----------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    boxes, ships = _random_world(58, n_ships=8)
    mat, _ = compute_fit_matrix(ships, boxes)
    out = tmp_path / "fits.csv"
    mat.save_csv(out, ships, boxes)
    back = load_fit_matrix(out, ships, boxes)
    assert back.rows == mat.rows
    assert back.config_hash == mat.config_hash


def test_load_rejects_unknown_shipment(tmp_path):
    boxes, ships = _random_world(59, n_ships=3)
    out = tmp_path / "fits.csv"
    out.write_text("shipment_id,box_id\n999,%d\n" % boxes[0].id)
    with pytest.raises(DataError):
        load_fit_matrix(out, ships, boxes)


def test_manifest_count_mismatch_detected(tmp_path):
    boxes, ships = _random_world(60, n_ships=4)
    mat, _ = compute_fit_matrix(ships, boxes)
    out = tmp_path / "fits.csv"
    mat.save_csv(out, ships, boxes)
    manifest = out.with_suffix(".manifest.json")
    text = manifest.read_text().replace(str(mat.set_bits), str(mat.set_bits + 1), 1)
    manifest.write_text(text)
    with pytest.raises(DataError):
        load_fit_matrix(out, ships, boxes)


# -- fit.csv writer and reader ----------------------------------------------------

def _csv_writer_bytes(mat, ships, boxes):
    """fit.csv as the csv module writes it: the reference for save_csv."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["shipment_id", "box_id"])
    for i, row in enumerate(mat.rows):
        for j in row:
            w.writerow([ships[i].id, boxes[j].id])
    return buf.getvalue().encode()


def _per_line_rows(path, ships, boxes):
    """Rows of fit.csv read line by line with the csv module."""
    index = {s.id: i for i, s in enumerate(ships)}
    rows = [[] for _ in ships]
    with open(path, newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if not cells or (lineno == 1 and cells[0] == "shipment_id"):
                continue
            rows[index[int(cells[0])]].append(boxes.index_of(int(cells[1])))
    return FitMatrix(len(ships), len(boxes), rows).rows


def _sparse_world():
    """Non-contiguous ids; shipment 30 fits nothing."""
    boxes = BoxSet([CandidateBox(bid, Dims3(k + 1, 1, 1))
                    for k, bid in enumerate((7, 1000, 3, 42))])
    ships = [make_shipment(sid, [(1, 1, 1)]) for sid in (500, 30, 9, 123456789)]
    return boxes, ships


@pytest.fixture
def per_line_calls(monkeypatch):
    """Counts the per-line reader's calls; in-grammar files must not need it."""
    calls = []
    original = fitmatrix._read_rows_per_line

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(fitmatrix, "_read_rows_per_line", counted)
    return calls


@pytest.fixture
def csv_parses(monkeypatch):
    """Counts the chunked text reader's calls; a saved matrix must not need it."""
    calls = []
    original = fitmatrix._read_csr

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(fitmatrix, "_read_csr", counted)
    return calls


@pytest.mark.parametrize("rows", [
    [(0, 2), (), (1, 2, 3), (3,)],
    [(), (), (), ()],
    [(0, 1, 2, 3)] * 4,
])
def test_save_csv_matches_csv_writer(tmp_path, rows):
    boxes, ships = _sparse_world()
    mat = FitMatrix(len(ships), len(boxes), rows, config_hash="abc")
    out = tmp_path / "fit.csv"
    mat.save_csv(out, ships, boxes)
    assert out.read_bytes() == _csv_writer_bytes(mat, ships, boxes)
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["set_bits"] == mat.set_bits
    assert manifest["packable"] == sum(1 for r in rows if r)
    assert len(manifest["boxes_digest"]) == len(manifest["shipments_digest"]) == 64
    assert manifest["csv_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    npz = out.with_suffix(".npz").read_bytes()
    assert manifest["npz_sha256"] == hashlib.sha256(npz).hexdigest()
    assert manifest["version"] == boxsuite.__version__


ACCEPTED = {
    # name: (file text, taken by the chunked numpy reader)
    "crlf": ("shipment_id,box_id\r\n500,7\r\n500,3\r\n9,1000\r\n", True),
    "lf": ("shipment_id,box_id\n500,7\n500,3\n9,1000\n", True),
    "no header": ("500,7\r\n500,3\r\n9,1000\r\n", True),
    "no final newline": ("shipment_id,box_id\r\n500,7\r\n9,1000", True),
    "header only": ("shipment_id,box_id", True),
    "empty file": ("", True),
    "unsorted": ("9,1000\r\n500,3\r\n123456789,42\r\n500,7\r\n", True),
    "duplicates": ("500,7\r\n500,7\r\n9,1000\r\n500,3\r\n9,1000\r\n", True),
    "leading zeros": ("0500,007\n9,1000\n", True),
    "blank lines": ("shipment_id,box_id\r\n\r\n500,7\r\n\r\n9,1000\r\n", False),
    "spaces": ("shipment_id,box_id\n500, 7\n 9,1000\n", False),
    "quoted": ('shipment_id,box_id\n"500","7"\n9,"1000"\n', False),
    "other header": ("shipment_id,box\n500,7\n", False),
    "bare cr": ("500,7\r9,1000\r", False),
}


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_reader_variants_load_like_the_per_line_loop(tmp_path, per_line_calls, name):
    text, fast = ACCEPTED[name]
    boxes, ships = _sparse_world()
    out = tmp_path / "fit.csv"
    out.write_bytes(text.encode())
    mat = load_fit_matrix(out, ships, boxes)
    assert mat.rows == _per_line_rows(out, ships, boxes)
    assert mat.indices.dtype == np.int32 and mat.indptr.dtype == np.int64
    assert bool(per_line_calls) != fast


def test_reader_chunk_boundaries(tmp_path, monkeypatch, per_line_calls):
    # Tiny chunks: lines straddle reads, and the out-of-order tail switches
    # the reader from appending columns to sorting keys.
    monkeypatch.setattr(fitmatrix, "_CHUNK_BYTES", 16)
    boxes, ships = _sparse_world()
    out = tmp_path / "fit.csv"
    for text in ("shipment_id,box_id\r\n500,7\r\n500,1000\r\n500,3\r\n9,3\r\n"
                 "9,42\r\n123456789,3\r\n123456789,42\r\n",
                 "shipment_id,box_id\n500,7\n500,1000\n9,3\n9,42\n500,3\n500,7\n9,42\n"):
        out.write_bytes(text.encode())
        assert load_fit_matrix(out, ships, boxes).rows == _per_line_rows(out, ships, boxes)
    assert per_line_calls == []


REJECTED = {
    # name: (file text, message after "<path>:")
    "three columns": ("shipment_id,box_id\n500,7\n9,3,1\n", "3: expected shipment_id,box_id"),
    "non-integer id": ("shipment_id,box_id\n500,7\n9,x\n", "3: non-integer id"),
    "unknown shipment": ("500,7\r\n501,7\r\n", "2: unknown shipment id 501"),
    "unknown box": ("shipment_id,box_id\r\n500,7\r\n9,8\r\n", None),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_reader_rejects_with_the_per_line_message(tmp_path, name):
    text, where = REJECTED[name]
    boxes, ships = _sparse_world()
    out = tmp_path / "fit.csv"
    out.write_bytes(text.encode())
    with pytest.raises(DataError) as exc:
        load_fit_matrix(out, ships, boxes)
    assert str(exc.value) == (f"{out}:{where}" if where else "unknown box id 8")


def test_reader_does_not_saturate_oversized_ids(tmp_path):
    # numpy would read the 20-digit id as int64's maximum, a known id here.
    boxes, ships = _sparse_world()
    ships.append(make_shipment(2**63 - 1, [(1, 1, 1)]))
    out = tmp_path / "fit.csv"
    out.write_bytes(b"500,7\r\n99999999999999999999,7\r\n")
    with pytest.raises(DataError) as exc:
        load_fit_matrix(out, ships, boxes)
    assert str(exc.value) == f"{out}:2: unknown shipment id 99999999999999999999"


def test_repeated_shipment_ids_load_into_the_last_row(tmp_path, per_line_calls):
    boxes, ships = _sparse_world()
    ships += [make_shipment(9, [(1, 1, 1)]), make_shipment(500, [(1, 1, 1)])]
    out = tmp_path / "fit.csv"
    out.write_bytes(b"500,7\r\n9,1000\r\n500,3\r\n")
    mat = load_fit_matrix(out, ships, boxes)
    assert mat.rows == _per_line_rows(out, ships, boxes) == ((), (), (), (), (1,), (0, 2))
    assert per_line_calls == []


def test_manifest_mismatch_message(tmp_path):
    boxes, ships = _sparse_world()
    mat = FitMatrix(len(ships), len(boxes), [(0, 2), (), (1,), (3,)])
    out = tmp_path / "fit.csv"
    mat.save_csv(out, ships, boxes)
    manifest_path = out.with_suffix(".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["set_bits"] = 5
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError) as exc:
        load_fit_matrix(out, ships, boxes)
    assert str(exc.value) == "fit matrix manifest disagrees on set_bits: 5 != 4"


def test_manifest_digests_refuse_other_inputs(tmp_path):
    boxes, ships = _random_world(61, n_ships=4)
    mat, _ = compute_fit_matrix(ships, boxes)
    out = tmp_path / "fits.csv"
    mat.save_csv(out, ships, boxes)
    # Same ids and count, one carton dimension changed.
    c = ships[0].cartons[0]
    grown = Carton(Dims3(c.dims.a + 1, c.dims.b, c.dims.c), c.height_oriented,
                   c.bottom_resting)
    other = [Shipment(ships[0].id, (grown, *ships[0].cartons[1:])), *ships[1:]]
    with pytest.raises(DataError, match="disagrees on shipments_digest"):
        load_fit_matrix(out, other, boxes)
    bx = boxes[0]
    other_boxes = BoxSet([CandidateBox(bx.id, Dims3(bx.inner.a, bx.inner.b, bx.inner.c + 0.5)),
                          *boxes.boxes[1:]])
    with pytest.raises(DataError, match="disagrees on boxes_digest"):
        load_fit_matrix(out, ships, other_boxes)
    # A manifest written before the digests existed still loads.
    manifest_path = out.with_suffix(".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    del manifest["boxes_digest"], manifest["shipments_digest"]
    manifest_path.write_text(json.dumps(manifest))
    assert load_fit_matrix(out, other, other_boxes).rows == mat.rows


def test_digests_ignore_input_order_and_locks(tmp_path, csv_parses):
    boxes = BoxSet([CandidateBox(1, Dims3(1, 2, 3)), CandidateBox(2, Dims3(3, 2, 1)),
                    CandidateBox(3, Dims3(2, 2, 2))])
    tied = BoxSet(boxes.boxes[::-1], locked_ids=[3])  # equal volumes keep input order
    assert boxes.ids != tied.ids
    ships = [make_shipment(4, [(1, 1, 1), (2, 1, 1)]), make_shipment(5, [(1, 1, 1)])]
    mat, _ = compute_fit_matrix(ships, boxes)
    out = tmp_path / "fit.csv"
    mat.save_csv(out, ships, boxes)
    shuffled = [Shipment(s.id, s.cartons[::-1]) for s in ships[::-1]]
    back = load_fit_matrix(out, shuffled, tied)

    def pairs(m, ss, bs):
        return {(ss[i].id, bs[j].id) for i, row in enumerate(m.rows) for j in row}

    assert pairs(back, shuffled, tied) == pairs(mat, ships, boxes) and mat.set_bits == 6
    assert csv_parses == [out]  # the npz holds the ids in the saved order


def test_digests_of_a_fixed_input_are_pinned():
    # Manifests written by earlier versions carry these digests; a change in
    # the record format would make every such fit.csv refuse to load.
    boxes = BoxSet([CandidateBox(3, Dims3(4, 3, 2.5)), CandidateBox(1, Dims3(6, 4, 3))])
    ships = [Shipment(7, (Carton(Dims3(2, 1, 3), height_oriented=True),
                          Carton(Dims3(1.5, 1, 1), bottom_resting=True))),
             Shipment(2, (Carton(Dims3(1, 1, 1)),))]
    assert fitmatrix._boxes_digest(boxes) == (
        "14e63f0b9b8092f20986efe9b092afc286ff0ebe7c0ccf97cb0cf95be9a7855b")
    assert fitmatrix._shipments_digest(ships) == (
        "70ca09ae13bcb631ad1e3d0b55175ccf7f6db2192ab9b38d8db0ca880c452b48")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_csv_round_trip_of_random_matrices(data):
    n = data.draw(st.integers(0, 6), label="n")
    J = data.draw(st.integers(1, 6), label="J")
    any_id = st.one_of(st.integers(0, 99), st.integers(-10**20, 10**20))
    ship_ids = data.draw(st.lists(any_id, min_size=n, max_size=n, unique=True))
    box_ids = data.draw(st.lists(any_id, min_size=J, max_size=J, unique=True))
    rows = [data.draw(st.lists(st.integers(0, J - 1), unique=True)) for _ in range(n)]
    boxes = BoxSet([CandidateBox(bid, Dims3(k + 1, 1, 1)) for k, bid in enumerate(box_ids)])
    ships = [make_shipment(sid, [(1, 1, 1)]) for sid in ship_ids]
    mat = FitMatrix(n, J, rows)
    assert mat.rows == tuple(tuple(sorted(r)) for r in rows)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fit.csv"
        mat.save_csv(out, ships, boxes)
        assert out.read_bytes() == _csv_writer_bytes(mat, ships, boxes)
        back = load_fit_matrix(out, ships, boxes)
        out.with_suffix(".npz").unlink(missing_ok=True)
        text = load_fit_matrix(out, ships, boxes)
    assert back.rows == mat.rows
    for loaded in (back, text):
        assert np.array_equal(loaded.indptr, mat.indptr)
        assert np.array_equal(loaded.indices, mat.indices)
        assert loaded.indptr.dtype == np.int64 and loaded.indices.dtype == np.int32


# -- fit.npz ----------------------------------------------------------------------

def _equal_volume_world():
    """Boxes of one volume keep their input order, so reversing the BoxSet
    puts the same boxes at other indices."""
    boxes = BoxSet([CandidateBox(bid, Dims3(*d)) for bid, d in
                    zip((7, 1000, 3, 42), ((1, 2, 3), (3, 2, 1), (2, 3, 1), (6, 1, 1)))])
    ships = [make_shipment(sid, [(1, 1, 1)]) for sid in (500, 30, 9, 123456789)]
    return boxes, ships


EQUAL_VOLUME_ROWS = [(0, 2), (), (1, 2, 3), (3,)]


def _save(tmp_path, ships, boxes, rows=EQUAL_VOLUME_ROWS):
    mat = FitMatrix(len(ships), len(boxes), rows)
    out = tmp_path / "fit.csv"
    mat.save_csv(out, ships, boxes)
    return mat, out


def test_saved_matrix_loads_from_the_npz_without_a_text_parse(tmp_path, csv_parses,
                                                              per_line_calls):
    boxes, ships = _random_world(63, n_ships=8)
    mat, _ = compute_fit_matrix(ships, boxes)
    out = tmp_path / "fit.csv"
    mat.save_csv(out, ships, boxes)
    back = load_fit_matrix(out, ships, boxes)
    assert csv_parses == [] and per_line_calls == []
    out.with_suffix(".npz").unlink()
    text = load_fit_matrix(out, ships, boxes)
    assert csv_parses == [out]
    assert np.array_equal(back.indptr, text.indptr) and back.indptr.dtype == text.indptr.dtype
    assert np.array_equal(back.indices, text.indices) and back.indices.dtype == text.indices.dtype
    assert back.rows == text.rows == mat.rows
    assert back.timeouts == text.timeouts and back.config_hash == text.config_hash


def _flip_npz_byte(out, ships, boxes):
    npz = out.with_suffix(".npz")
    data = bytearray(npz.read_bytes())
    data[len(data) // 2] ^= 1
    npz.write_bytes(bytes(data))
    return ships, boxes


def _drop_new_manifest_keys(out, ships, boxes):
    manifest_path = out.with_suffix(".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    del manifest["csv_sha256"], manifest["npz_sha256"], manifest["version"]
    manifest_path.write_text(json.dumps(manifest))
    return ships, boxes


def _drop_npz(out, ships, boxes):
    out.with_suffix(".npz").unlink()
    return ships, boxes


NPZ_FALLBACKS = {
    # name: mutation after saving, returning the inputs to load with
    "missing npz": _drop_npz,
    "one npz byte flipped": _flip_npz_byte,
    "manifest without the new keys": _drop_new_manifest_keys,
    "shipments reordered": lambda out, ships, boxes: (ships[::-1], boxes),
    "boxes reordered": lambda out, ships, boxes: (ships, BoxSet(boxes.boxes[::-1])),
}


@pytest.mark.parametrize("name", sorted(NPZ_FALLBACKS))
def test_npz_that_does_not_match_falls_back_to_the_csv(tmp_path, csv_parses, name):
    boxes, ships = _equal_volume_world()
    mat, out = _save(tmp_path, ships, boxes)
    assert out.with_suffix(".npz").exists()
    ships, boxes = NPZ_FALLBACKS[name](out, ships, boxes)
    back = load_fit_matrix(out, ships, boxes)
    assert csv_parses == [out]
    assert back.rows == _per_line_rows(out, ships, boxes)
    assert back.set_bits == mat.set_bits


@pytest.mark.parametrize("extra, rows", [
    # an id beyond int64, and repeated shipment ids (the CSV loads these
    # into the last row, which the npz could not reproduce)
    ([make_shipment(2**63, [(1, 1, 1)])], EQUAL_VOLUME_ROWS + [(0, 1)]),
    ([make_shipment(9, [(1, 1, 1)]), make_shipment(500, [(1, 1, 1)])],
     EQUAL_VOLUME_ROWS + [(0,), (3,)]),
])
def test_ids_the_npz_cannot_hold_write_no_npz(tmp_path, csv_parses, extra, rows):
    boxes, ships = _equal_volume_world()
    ships += extra
    (tmp_path / "fit.npz").write_bytes(b"left by an earlier save")
    mat, out = _save(tmp_path, ships, boxes, rows)
    assert not out.with_suffix(".npz").exists()
    assert json.loads(out.with_suffix(".manifest.json").read_text())["npz_sha256"] is None
    back = load_fit_matrix(out, ships, boxes)
    assert csv_parses == [out]
    assert back.rows == _per_line_rows(out, ships, boxes)


def test_edited_csv_wins_over_an_intact_npz(tmp_path, csv_parses):
    boxes, ships = _equal_volume_world()
    mat, out = _save(tmp_path, ships, boxes)
    lines = out.read_bytes().split(b"\r\n")
    out.write_bytes(b"\r\n".join(ln for ln in lines if ln != b"9,3"))
    with pytest.raises(DataError) as exc:
        load_fit_matrix(out, ships, boxes)
    assert str(exc.value) == "fit matrix manifest disagrees on set_bits: 6 != 5"
    manifest_path = out.with_suffix(".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["set_bits"] = 5
    manifest_path.write_text(json.dumps(manifest))
    back = load_fit_matrix(out, ships, boxes)
    assert back.rows == _per_line_rows(out, ships, boxes) == ((0, 2), (), (1, 3), (3,))
    assert csv_parses == [out, out]


def test_npz_path_refuses_manifest_mismatches(tmp_path, csv_parses):
    boxes, ships = _equal_volume_world()
    mat, out = _save(tmp_path, ships, boxes)
    manifest_path = out.with_suffix(".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    # Each load keeps the ids and their order, so the npz is read.
    grown = [make_shipment(500, [(2, 1, 1)]), *ships[1:]]
    with pytest.raises(DataError) as exc:
        load_fit_matrix(out, grown, boxes)
    assert str(exc.value) == ("fit matrix manifest disagrees on shipments_digest: "
                              f"{manifest['shipments_digest']} != "
                              f"{fitmatrix._shipments_digest(grown)}")
    reshaped = BoxSet([CandidateBox(7, Dims3(1, 1, 6)), *boxes.boxes[1:]])
    assert reshaped.ids == boxes.ids
    with pytest.raises(DataError) as exc:
        load_fit_matrix(out, ships, reshaped)
    assert str(exc.value) == ("fit matrix manifest disagrees on boxes_digest: "
                              f"{manifest['boxes_digest']} != {fitmatrix._boxes_digest(reshaped)}")
    manifest_path.write_text(json.dumps({**manifest, "set_bits": 5}))
    with pytest.raises(DataError) as exc:
        load_fit_matrix(out, ships, boxes)
    assert str(exc.value) == "fit matrix manifest disagrees on set_bits: 5 != 6"
    assert csv_parses == []


def test_csr_accessors_and_fitting_boxes_view():
    mat = FitMatrix(4, 5, [[3, 1, 3], [], [4], [0, 2]])
    assert mat.indptr.tolist() == [0, 2, 2, 3, 5]
    assert mat.indices.tolist() == [1, 3, 4, 0, 2]
    assert mat.rows == ((1, 3), (), (4,), (0, 2)) and mat.set_bits == 5
    assert [j in mat.rows[0] for j in range(5)] == [False, True, False, True, False]
    assert not any(j in mat.rows[1] for j in range(5))
    packs = mat.packables()
    assert packs.W == (0, 2, 3) and packs.I_hat == 3
    assert {i: tuple(mat.row(i).tolist()) for i in packs.W} == {0: (1, 3), 2: (4,), 3: (0, 2)}
    assert mat.row(1).size == 0 and 1 not in packs.W and 7 not in packs.W
    with pytest.raises(DataError):
        FitMatrix(1, 5, [[5]])
    with pytest.raises(DataError):
        FitMatrix(2, 5, [[1]])


def test_scan_blocks_do_not_change_rows(monkeypatch):
    boxes, ships = _random_world(62, n_ships=7)
    whole, _ = compute_fit_matrix(ships, boxes)
    monkeypatch.setattr(fitmatrix, "_SCAN_BLOCK", 2)
    blocked, _ = compute_fit_matrix(ships, boxes)
    assert blocked.rows == whole.rows
    assert np.array_equal(blocked.indptr, whole.indptr)


# -- cheapest fitting box --------------------------------------------------------


def _row_minimum(ships, boxes, model):
    """Reference: each shipment's fit-matrix row and its minimum by (cost, j)."""
    mat, _ = compute_fit_matrix(ships, boxes)
    return [min(row, key=lambda j: (model.cost_for(s, boxes[j]), j)) if row else None
            for s, row in zip(ships, mat.rows)]


def _models(boxes, ships, seed):
    rng = random.Random(seed)
    return {
        "inner-volume": InnerVolumeCost(),
        # costs fall as volume grows, so cost order reverses volume order
        "reversed-table": BoxTableCost({bx.id: 1000.0 - bx.volume for bx in boxes}),
        "pair-table": PairTableCost({(s.id, bx.id): float(rng.randint(1, 4))
                                     for s in ships for bx in boxes}),
    }


@pytest.mark.parametrize("model_name", ["inner-volume", "reversed-table", "pair-table"])
def test_cheapest_fitting_boxes_match_the_row_minimum(model_name):
    picks, sizes = [], set()
    for seed in range(70, 76):
        boxes, ships = _random_world(seed, n_boxes=10, n_ships=20, dim_max=6)
        model = _models(boxes, ships, seed)[model_name]
        expected = _row_minimum(ships, boxes, model)
        assert cheapest_fitting_boxes(ships, boxes, model) == expected
        picks += expected
        sizes |= {len(s.cartons) for s in ships}
    assert None in picks and any(j is not None for j in picks)  # some shipments uncovered
    assert sizes == {1, 2, 3, 4, 5}


def _three_carton_world():
    boxes = box_set((6, 2, 2), (4, 4, 2), (8, 3, 2), (7, 7, 1), (9, 3, 3))
    ships = [make_shipment(1, [(2, 2, 2)] * 3),
             make_shipment(2, [(3, 2, 2), (2, 2, 2), (2, 2, 1)]),
             make_shipment(3, [(4, 3, 2), (2, 2, 2), (2, 2, 2)])]
    return boxes, ships


@pytest.fixture
def decided_boxes(monkeypatch):
    """Box dims of every problem the cascade solves, with stacking disabled
    so that every box reaches the branch-and-bound."""
    seen = []

    def counting(prob, cfg):
        seen.append(tuple(sorted(prob.box.as_tuple())))
        return solve_fit(prob, cfg)

    monkeypatch.setattr(fitmatrix, "fits_stacking", lambda cartons, box: False)
    monkeypatch.setattr(fitmatrix, "solve_fit", counting)
    return seen


@pytest.mark.parametrize("model_name", ["inner-volume", "reversed-table"])
def test_no_box_costlier_than_the_answer_is_decided(decided_boxes, model_name):
    boxes, ships = _three_carton_world()
    model = _models(boxes, ships, 0)[model_name]
    cost = dict(zip(boxes.ids, model.box_costs(boxes).tolist()))
    by_dims = {tuple(sorted(bx.inner.as_tuple())): bx.id for bx in boxes}
    above_in_row = 0
    for ship in ships:
        decided_boxes.clear()
        [pick] = cheapest_fitting_boxes([ship], boxes, model)
        answer = cost[boxes[pick].id]
        assert max(cost[by_dims[d]] for d in decided_boxes) == answer
        decided_boxes.clear()
        compute_fit_matrix([ship], boxes)
        above_in_row += sum(cost[by_dims[d]] > answer for d in decided_boxes)
    assert above_in_row  # the whole row decides boxes above the answer


@pytest.mark.parametrize("ship", [
    make_shipment(1, [(2, 2, 2)]),
    make_shipment(2, [(2, 2, 2), (2, 2, 1)]),
    make_shipment(3, [(2, 2, 1), (2, 2, 1), (1, 1, 1)]),
])
def test_a_missing_cost_raises_only_when_its_box_fits(ship):
    boxes = box_set((2, 2, 1), (2, 2, 3), (4, 4, 4), (5, 5, 5))  # ids 1..4
    small, fits_last = 1, 4  # box 1 never fits; box 4 fits and is the dearest
    full = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
    table = BoxTableCost({k: v for k, v in full.items() if k != small})
    assert cheapest_fitting_boxes([ship], boxes, table) == [1]
    pairs = PairTableCost({(ship.id, k): v for k, v in full.items() if k != small})
    assert cheapest_fitting_boxes([ship], boxes, pairs) == [1]
    # box 2 fits more cheaply, yet the fitting box without a cost still raises
    table = BoxTableCost({k: v for k, v in full.items() if k != fits_last})
    with pytest.raises(DataError, match="no entry for box 4"):
        cheapest_fitting_boxes([ship], boxes, table)
    pairs = PairTableCost({(ship.id, k): v for k, v in full.items() if k != fits_last})
    with pytest.raises(DataError, match=f"shipment {ship.id}, box 4"):
        cheapest_fitting_boxes([ship], boxes, pairs)
    with pytest.raises(DataError, match="invalid cost nan for shipment .*, box 4"):
        cheapest_fitting_boxes([ship], boxes, BoxTableCost({**full, 4: float("nan")}))


def test_the_first_shipment_with_a_missing_cost_raises():
    boxes = box_set((2, 2, 1), (3, 3, 3), (5, 5, 5))  # ids 1..3
    multi = make_shipment(1, [(2, 2, 2), (2, 2, 1)])  # fits boxes 2 and 3
    single = make_shipment(2, [(2, 2, 1)])  # fits every box
    table = BoxTableCost({2: 2.0})
    with pytest.raises(DataError, match="no entry for box 3"):
        cheapest_fitting_boxes([multi, single], boxes, table)
    with pytest.raises(DataError, match="no entry for box 1"):
        cheapest_fitting_boxes([single, multi], boxes, table)
    pairs = PairTableCost({(1, 2): 2.0, (2, 2): 2.0})
    with pytest.raises(DataError, match="shipment 1, box 3"):
        cheapest_fitting_boxes([multi, single], boxes, pairs)
    with pytest.raises(DataError, match="shipment 2, box 1"):
        cheapest_fitting_boxes([single, multi], boxes, pairs)


def _time_out_on(monkeypatch, *dims):
    """Make the search time out in the boxes of the given dims."""
    timed_out = {tuple(sorted(d)) for d in dims}

    def timing_out(prob, cfg):
        if tuple(sorted(prob.box.as_tuple())) in timed_out:
            return FitVerdict(Outcome.TIMED_OUT)
        return solve_fit(prob, cfg)

    monkeypatch.setattr(fitmatrix, "fits_stacking", lambda cartons, box: False)
    monkeypatch.setattr(fitmatrix, "solve_fit", timing_out)


def test_a_timed_out_box_that_nests_a_fitting_box_is_chosen(monkeypatch):
    boxes = box_set((4, 4, 2), (6, 4, 3), (3, 3, 3))  # ids 1..3; 1 nests into 2
    ship = make_shipment(1, [(2, 2, 2)] * 3)  # fits 1 and 2, not 3
    _time_out_on(monkeypatch, (6, 4, 3))
    cheap_big = BoxTableCost({1: 5.0, 2: 1.0, 3: 0.5})
    [pick] = cheapest_fitting_boxes([ship], boxes, cheap_big)
    assert boxes[pick].id == 2
    assert pick == _row_minimum([ship], boxes, cheap_big)[0]
    mat, _ = compute_fit_matrix([ship], boxes)
    assert pick in mat.rows[0] and not mat.timeouts  # the scan's nest fill sets it


def test_a_timed_out_box_with_no_fitting_box_inside_is_passed_over(monkeypatch):
    boxes = box_set((4, 4, 2), (6, 4, 3), (7, 3, 3))  # ids 1..3; 1 nests into 2 only
    ship = make_shipment(1, [(2, 2, 2)] * 3)
    _time_out_on(monkeypatch, (4, 4, 2), (6, 4, 3))
    model = BoxTableCost({1: 3.0, 2: 1.0, 3: 2.0})
    [pick] = cheapest_fitting_boxes([ship], boxes, model)
    assert boxes[pick].id == 3
    assert pick == _row_minimum([ship], boxes, model)[0]
