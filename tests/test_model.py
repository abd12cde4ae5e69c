import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxsuite.fitting import carton_key
from boxsuite.model import (
    BoxSet,
    CandidateBox,
    Carton,
    DataError,
    Dims3,
    Shipment,
    canonical_dims,
    enumerate_box_grid,
    liquid_volume,
    load_boxes,
    load_shipments,
    save_boxes,
    save_shipments,
    sort3,
)

positive_dim = st.floats(min_value=0.1, max_value=100, allow_nan=False)


dims3 = st.tuples(positive_dim, positive_dim, positive_dim)


def test_canonical_dims_examples():
    assert canonical_dims((3, 7, 2), False) == (7, 3, 2)
    assert canonical_dims((1, 2, 3), False) == (3, 2, 1)
    assert canonical_dims((5, 5, 5), False) == (5, 5, 5)
    assert canonical_dims((1, 2, 3), True) == (2, 1, 3)
    assert canonical_dims((3, 7, 2), True) == (7, 3, 2)
    assert sort3(Dims3(3, 7, 2)).as_tuple() == (7, 3, 2)
    assert sort3(Dims3(5, 5, 5)).as_tuple() == (5, 5, 5)
    assert sort3(Dims3(1, 2, 3)).as_tuple() == (3, 2, 1)


@given(dims3, st.booleans())
def test_canonical_dims_is_idempotent_permutation(d, keep_height):
    s = canonical_dims(d, keep_height)
    assert sorted(s) == sorted(d)
    assert s[0] >= s[1] and (keep_height or s[1] >= s[2])
    assert canonical_dims(s, keep_height) == s
    assert sort3(Dims3(*d)).as_tuple() == canonical_dims(d, False)


@given(dims3, st.permutations(range(3)))
def test_canonical_dims_free_form_ignores_every_rotation(d, perm):
    assert canonical_dims(tuple(d[k] for k in perm), False) == canonical_dims(d, False)


@given(dims3)
def test_canonical_dims_keep_height_form_keeps_z_and_ignores_an_xy_swap(d):
    x, y, z = d
    assert canonical_dims(d, True)[2] == z
    assert canonical_dims((y, x, z), True) == canonical_dims(d, True)


@given(st.lists(dims3, min_size=1, max_size=8))
def test_box_set_views_apply_the_rule_to_each_declared_box(dims):
    boxes = BoxSet(CandidateBox(i, Dims3(*d)) for i, d in enumerate(dims))
    for j, bx in enumerate(boxes):
        d = bx.inner.as_tuple()
        assert tuple(boxes.sorted_dims[j]) == canonical_dims(d, False)
        assert tuple(boxes.sorted_lw_dims[j]) == canonical_dims(d, True)


@given(dims3, st.booleans(), st.booleans())
def test_carton_key_and_pin_follow_the_rule(d, ho, br):
    c = Carton(Dims3(*d), height_oriented=ho, bottom_resting=br)
    assert carton_key(c) == (ho, canonical_dims(d, ho), br)
    assert c.pins_vertical == (ho or br)


def test_liquid_volume_examples():
    s = Shipment(1, (Carton(Dims3(2, 3, 4)), Carton(Dims3(1, 1, 1))))
    assert liquid_volume(s) == 25
    assert liquid_volume(Shipment(3, (Carton(Dims3(1, 1, 1)),) * 3)) == 3


@given(st.permutations([2.0, 3.0, 4.0]))
def test_liquid_volume_permutation_invariant(perm):
    s = Shipment(1, (Carton(Dims3(*perm)),))
    assert liquid_volume(s) == pytest.approx(24.0)


def test_dims_must_be_positive():
    with pytest.raises(DataError):
        Dims3(1, 0, 2)
    with pytest.raises(DataError):
        Dims3(-1, 1, 1)


def test_empty_shipment_rejected():
    with pytest.raises(DataError):
        Shipment(1)


def test_load_boxes_row(tmp_path):
    p = tmp_path / "boxes.csv"
    p.write_text("box_id,dim1,dim2,dim3\n958,12,7,6\n1,40,20,16\n")
    bs = load_boxes(p)
    by_id = {bx.id: bx for bx in bs}
    assert by_id[958].inner.as_tuple() == (12, 7, 6)
    assert by_id[958].volume == 504
    assert by_id[1].volume == 12800
    # sorted by nondecreasing volume
    assert [bx.id for bx in bs] == [958, 1]


def test_load_boxes_resorts_dims_and_accepts_headerless(tmp_path):
    p = tmp_path / "boxes.csv"
    p.write_text("7,6,12,7\n")
    bs = load_boxes(p)
    assert bs.boxes[0].inner.as_tuple() == (12, 7, 6)


def test_load_boxes_errors(tmp_path):
    bad_dim = tmp_path / "a.csv"
    bad_dim.write_text("box_id,dim1,dim2,dim3\n1,3,0,2\n")
    with pytest.raises(DataError, match="a.csv:2"):
        load_boxes(bad_dim)

    malformed = tmp_path / "b.csv"
    malformed.write_text("box_id,dim1,dim2,dim3\n1,3,2\n")
    with pytest.raises(DataError, match="b.csv:2"):
        load_boxes(malformed)

    dupe = tmp_path / "c.csv"
    dupe.write_text("box_id,dim1,dim2,dim3\n1,3,2,1\n1,4,2,1\n")
    with pytest.raises(DataError, match="duplicate"):
        load_boxes(dupe)


def test_load_shipments_grouping_and_expansion(tmp_path):
    p = tmp_path / "shipments.csv"
    p.write_text(
        "shipment_id,item_id,quantity,dim1,dim2,dim3\n"
        "10,1,2,3,2,1\n"
        "10,2,1,5,4,3\n"
        "11,1,1,3,2,1\n"
    )
    ships = load_shipments(p)
    assert [s.id for s in ships] == [10, 11]
    assert ships[0].n_cartons == 3
    assert ships[0].cartons[0].dims.as_tuple() == (3, 2, 1)
    assert ships[0].cartons[2].dims.as_tuple() == (5, 4, 3)


def test_load_shipments_flag_columns(tmp_path):
    p = tmp_path / "shipments.csv"
    p.write_text(
        "shipment_id,item_id,quantity,dim1,dim2,dim3,ho,br\n"
        "1,1,1,3,2,1,1,0\n"
        "1,2,1,4,4,2,0,1\n"
    )
    (s,) = load_shipments(p)
    assert s.cartons[0].height_oriented and not s.cartons[0].bottom_resting
    assert not s.cartons[1].height_oriented and s.cartons[1].bottom_resting


def test_load_shipments_items_crosscheck(tmp_path):
    items = tmp_path / "items.csv"
    items.write_text("item_id,dim1,dim2,dim3\n1,3,2,1\n")
    ship = tmp_path / "shipments.csv"
    ship.write_text("shipment_id,item_id,quantity,dim1,dim2,dim3\n1,1,1,3,2,9\n")
    with pytest.raises(DataError, match="disagree"):
        load_shipments(ship, items)


def test_roundtrip_lossless_up_to_order(tmp_path):
    shipments = [
        Shipment(5, (Carton(Dims3(3, 2, 1)), Carton(Dims3(4, 4, 2), height_oriented=True))),
        Shipment(9, (Carton(Dims3(6, 5, 4), bottom_resting=True),)),
    ]
    sp = tmp_path / "s.csv"
    save_shipments(shipments, sp)
    back = load_shipments(sp)
    assert back == shipments

    boxes = BoxSet([CandidateBox(3, Dims3(9, 4, 2)), CandidateBox(7, Dims3(5, 5, 5))])
    bp = tmp_path / "b.csv"
    save_boxes(boxes, bp)
    back_boxes = load_boxes(bp)
    assert [ (bx.id, bx.inner.as_tuple()) for bx in back_boxes ] == [
        (bx.id, bx.inner.as_tuple()) for bx in boxes
    ]


def test_locked_id_resolution():
    bs = BoxSet(
        [CandidateBox(3, Dims3(9, 4, 2)), CandidateBox(7, Dims3(5, 5, 5))],
        locked_ids=[7],
    )
    assert bs.locked == (bs.index_of(7),)
    with pytest.raises(DataError, match="unknown box id"):
        bs.index_of(1234)


def test_box_grid_count_matches_direct_enumeration():
    count = 0
    for x in range(5, 41):
        for y in range(4, min(x, 20) + 1):
            count += min(y, 16)
    assert count == 5284
    grid = enumerate_box_grid()
    assert len(grid) == 5284
    vols = grid.volumes
    assert (vols[:-1] <= vols[1:]).all()
    assert len({bx.id for bx in grid}) == 5284
