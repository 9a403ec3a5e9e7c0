import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcac.errors import (DuplicateCoordinate, EmptyGeometry, OutOfRange,
                         ShapeMismatch)
from pcac.tensor_core import (COORD_BITS, CoordIndex, build_pyramid,
                              build_sparse_tensor, downsample_coords,
                              pack_coords, sort_coords, sorted_runs)

coord_lists = st.lists(
    st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000),
              st.integers(-1000, 1000)),
    min_size=1, max_size=50, unique=True)


def test_pack_coords_is_lexicographic():
    # [TRIVIAL] packed-key order must equal tuple order
    rng = np.random.default_rng(0)
    coords = rng.integers(-500, 500, size=(200, 3))
    keys = pack_coords(coords)
    by_key = np.argsort(keys, kind="stable")
    by_tuple = sorted(range(len(coords)), key=lambda i: tuple(coords[i]))
    assert list(by_key) == by_tuple


def test_pack_coords_range_edges():
    # each component lies in [-2^20, 2^20): the edges order correctly, one
    # step past either edge raises instead of wrapping into a wrong order
    lo, hi = -(1 << COORD_BITS), (1 << COORD_BITS) - 1
    assert COORD_BITS == 20
    edges = np.array([[hi, hi, hi], [0, 0, 0], [lo, lo, lo], [0, hi, lo],
                      [0, lo, hi]])
    assert sort_coords(edges).tolist() == [2, 4, 1, 3, 0]
    for axis in range(3):
        for value in (hi + 1, lo - 1):
            bad = np.zeros((2, 3), dtype=np.int64)
            bad[0, axis] = value
            with pytest.raises(OutOfRange):
                pack_coords(bad)
    with pytest.raises(OutOfRange):
        sort_coords(np.array([[1 << COORD_BITS, 0, 0], [0, 0, 0]]))


def test_coord_index_misses_out_of_range_queries():
    # a kernel offset can step past the edge; such a query is a miss
    hi = (1 << COORD_BITS) - 1
    coords = np.array([[0, 0, 0], [0, 1, 0], [hi, 0, 0]])
    idx = CoordIndex(coords)
    got = idx.lookup(np.array([[hi + 1, 0, 0], [0, 0, 1 << 21], [hi, 0, 0],
                               [-1 - hi, 0, 0], [0, 1, 0]]))
    assert list(got) == [-1, -1, 2, -1, 1]


@given(coord_lists)
@settings(max_examples=50, deadline=None)
def test_sort_coords_property(coords):
    c = np.array(coords, dtype=np.int64)
    s = c[sort_coords(c)]
    assert sorted(map(tuple, c)) == list(map(tuple, s))


_LO, _HI = -(1 << COORD_BITS), (1 << COORD_BITS) - 1
_component = st.one_of(st.integers(-2, 2), st.sampled_from([_LO, _HI]))


@given(st.lists(st.tuples(_component, _component, _component), max_size=40),
       st.sampled_from([None, _LO - 1, _HI + 1]))
@settings(max_examples=100, deadline=None)
def test_sorted_runs_property(coords, outside):
    # the order is the stable argsort of the packed keys and `first` marks
    # exactly the run starts; an out-of-range coordinate raises
    c = np.array(coords, dtype=np.int64).reshape(-1, 3)
    if outside is not None and len(c):
        c[-1, 1] = outside
        with pytest.raises(OutOfRange):
            sorted_runs(c)
        return
    order, first = sorted_runs(c)
    np.testing.assert_array_equal(
        order, np.argsort(pack_coords(c), kind="stable"))
    s = [tuple(p) for p in c[order]]
    assert first.tolist() == [i == 0 or s[i] != s[i - 1]
                              for i in range(len(s))]


def test_coord_index_lookup():
    coords = np.array([[0, 0, 0], [0, 0, 1], [2, -3, 5]])
    idx = CoordIndex(coords[sort_coords(coords)])
    got = idx.lookup(np.array([[2, -3, 5], [0, 0, 0], [9, 9, 9], [0, 0, 1]]))
    # sorted order: (0,0,0), (0,0,1), (2,-3,5)
    assert list(got) == [2, 0, -1, 1]


def test_build_sparse_tensor_sorts_and_validates():
    coords = [[1, 0, 0], [0, 0, 0]]
    feats = [[10.0], [20.0]]
    t = build_sparse_tensor(coords, feats)
    assert t.coords.tolist() == [[0, 0, 0], [1, 0, 0]]
    assert t.features[:, 0].tolist() == [20.0, 10.0]

    with pytest.raises(DuplicateCoordinate):
        build_sparse_tensor([[1, 1, 1], [1, 1, 1]], [[0.0], [0.0]])
    with pytest.raises(ShapeMismatch):
        build_sparse_tensor([[0, 0, 0]], [[0.0], [1.0]])


def test_downsample_examples():
    # [DERIVED] floor-division parents, duplicates merged, sorted
    coords = np.array([[0, 0, 0], [1, 1, 1], [2, 0, 0], [-1, 0, 0]])
    parents = downsample_coords(coords, 1)
    assert parents.tolist() == [[-2, 0, 0], [0, 0, 0], [2, 0, 0]]
    # stride-2 input downsamples on a 4-grid
    parents2 = downsample_coords(np.array([[0, 0, 0], [2, 2, 2], [4, 0, 0]]), 2)
    assert parents2.tolist() == [[0, 0, 0], [4, 0, 0]]


def test_downsample_full_grid_counts():
    # [DERIVED] a full 8^3 grid halves exactly per level
    g = np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"), -1).reshape(-1, 3)
    pyr = build_pyramid(g, 3)
    assert [len(c) for c in pyr.coords] == [512, 64, 8, 1]
    for n, c in enumerate(pyr.coords):
        assert np.all(c % (1 << n) == 0)


def test_pyramid_empty_and_single():
    with pytest.raises(EmptyGeometry):
        build_pyramid(np.empty((0, 3), dtype=np.int64))
    pyr = build_pyramid(np.array([[5, 5, 5]]), 3)
    assert [len(c) for c in pyr.coords] == [1, 1, 1, 1]
    assert pyr.coords[1].tolist() == [[4, 4, 4]]
    assert pyr.coords[3].tolist() == [[0, 0, 0]]


def test_pyramid_rejects_duplicates():
    with pytest.raises(DuplicateCoordinate, match=r"\(1, 2, 3\)"):
        build_pyramid(np.array([[1, 2, 3], [5, 5, 5], [1, 2, 3]]), 3)


@given(coord_lists)
@settings(max_examples=30, deadline=None)
def test_pyramid_invariants(coords):
    # every level is sorted, unique, stride-aligned, and covers its children
    pyr = build_pyramid(np.array(coords, dtype=np.int64), 3)
    for n in range(4):
        c = pyr.coords[n]
        keys = pack_coords(c)
        assert np.all(np.diff(keys) > 0)  # sorted and unique
        assert np.all(c % (1 << n) == 0)
        if n > 0:
            child = pyr.coords[n - 1]
            parent_of_child = (child // (1 << n)) * (1 << n)
            assert pyr.indexes[n].lookup(parent_of_child).min() >= 0
