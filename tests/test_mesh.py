import numpy as np
import pytest

from msflow import mesh

from conftest import neighborhood_cells


def test_build_grid_validates():
    with pytest.raises(ValueError):
        mesh.build_grid((10,), (2,))
    with pytest.raises(ValueError):
        mesh.build_grid((10, 10), (3, 2))
    with pytest.raises(ValueError):
        mesh.build_grid((10, 10), (2,))
    with pytest.raises(ValueError):
        mesh.build_grid((10, 10), (2, 2), domain_lengths=(1.0, -1.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            mesh.build_grid((4, 4), (2, 2), domain_lengths=(bad, 1.0))
    for fine, coarse in (((4.7, 4), (2, 2)), ((4, 4), (2, 2.5)),
                         ((float("inf"), 4), (2, 2))):
        with pytest.raises(ValueError, match="whole numbers"):
            mesh.build_grid(fine, coarse)
    assert mesh.build_grid((4.0, np.int64(4)), (2, 2)).fine == (4, 4)
    g = mesh.build_grid((10, 20), (2, 4))
    assert g.block_size == (5, 5)
    assert g.h == (0.1, 0.05)
    assert g.H == (0.5, 0.25)


def test_cached_sizes_keep_grids_equal():
    a = mesh.build_grid((12, 6, 4), (3, 2, 2), domain_lengths=(3.0, 1.0, 0.7))
    b = mesh.build_grid((12, 6, 4), (3, 2, 2), domain_lengths=(3.0, 1.0, 0.7))
    h = tuple(L / n for L, n in zip(a.lengths, a.fine))
    assert a.h == h
    assert a.cell_volume == float(np.prod(h))
    assert a.face_areas == tuple(float(np.prod(h) / h[axis])
                                 for axis in range(3))
    assert a.face_offsets == (0, 11 * 6 * 4, 11 * 6 * 4 + 12 * 5 * 4)
    assert a.n_velocity == 11 * 6 * 4 + 12 * 5 * 4 + 12 * 6 * 3
    # the cached values live on `a` only; equality, hashing and the
    # lru_cache keys still see the three fields
    assert "h" in vars(a) and "h" not in vars(b)
    assert a == b and hash(a) == hash(b)
    mesh.coarse_faces.cache_clear()
    assert mesh.coarse_faces(a) is mesh.coarse_faces(b)
    assert mesh.coarse_faces.cache_info().hits == 1
    with pytest.raises(AttributeError):
        a.fine = (6, 6, 4)


def test_dof_counts_2d():
    g = mesh.build_grid((100, 100), (10, 10))
    nv, npr = mesh.count_dofs(g)
    assert nv == 2 * 99 * 100
    assert npr == 10000


def test_dof_counts_3d_reference_sizes():
    g = mesh.build_grid((64, 64, 64), (8, 8, 8))
    nv, npr = mesh.count_dofs(g)
    assert nv == 3 * 63 * 64 * 64 == 774144
    assert npr == 262144
    assert nv + npr + 1 == 1036289
    assert g.n_blocks == 512
    assert g.block_size == (8, 8, 8)


def test_cell_id_round_trip():
    g = mesh.build_grid((6, 4, 2), (3, 2, 1))
    ids = np.arange(g.n_cells)
    multi = mesh.cell_multi(g, ids)
    assert np.array_equal(mesh.cell_ids(g, multi), ids)
    # x varies fastest
    assert np.array_equal(multi[:3, 0], [0, 1, 2])
    assert multi[6, 1] == 1 and multi[6, 0] == 0


def test_face_numbering_axis_major():
    g = mesh.build_grid((4, 3), (2, 1))
    # 3*3 x-faces then 4*2 y-faces
    assert g.axis_face_count(0) == 9
    assert g.axis_face_count(1) == 8
    assert g.face_offsets == (0, 9)
    assert g.n_velocity == 17
    # the y-face above cell (1, 0) is the second y-face
    lo, up = mesh.face_adjacent_cells(g, [9 + 1])
    assert lo[0] == 1 and up[0] == 1 + 4


def test_cell_face_ids_boundaries():
    g = mesh.build_grid((3, 3), (1, 1))
    low, high = mesh.cell_face_ids(g, 0)
    low = low.ravel(order="F")
    high = high.ravel(order="F")
    assert low[0] == -1           # domain boundary, no unknown
    assert high[2] == -1
    assert high[0] == low[1]      # shared face between cells 0 and 1


def test_face_adjacent_cells_inverse_of_cell_face_ids():
    g = mesh.build_grid((4, 4, 4), (2, 2, 2))
    lo, up = mesh.face_adjacent_cells(g, np.arange(g.n_velocity))
    for axis in range(3):
        low, high = mesh.cell_face_ids(g, axis)
        high = high.ravel(order="F")
        cells = np.flatnonzero(high >= 0)
        assert np.array_equal(lo[high[cells]], cells)
    # upper cell is the lower cell shifted by one along the face axis
    m_lo = mesh.cell_multi(g, lo)
    m_up = mesh.cell_multi(g, up)
    diff = m_up - m_lo
    assert np.all(diff.sum(axis=1) == 1)
    assert np.all(diff.max(axis=1) == 1)


def test_block_helpers():
    g = mesh.build_grid((8, 8), (4, 4))
    cells = mesh.block_cells(g, 5)
    assert len(cells) == 4
    assert np.array_equal(mesh.block_ids(g, mesh.block_multi(g, np.array([5]))),
                          [5])
    multi = mesh.cell_multi(g, cells)
    assert multi[:, 0].min() == 2 and multi[:, 0].max() == 3
    assert multi[:, 1].min() == 2 and multi[:, 1].max() == 3


def test_oversample_clips_at_domain():
    g = mesh.build_grid((8, 8), (4, 4))
    corner = mesh.oversample(g, 0, 1)
    multi = mesh.cell_multi(g, corner)
    assert multi[:, 0].max() == 2 and multi[:, 0].min() == 0
    assert len(corner) == 9
    inner = mesh.oversample(g, 5, 1)
    assert len(inner) == 16
    assert np.array_equal(mesh.oversample(g, 5, 0), mesh.block_cells(g, 5))


def test_velocity_dofs_interior_to_block():
    g = mesh.build_grid((6, 6), (3, 3))
    cells = mesh.block_cells(g, 4)      # centre block, 2x2 cells
    vidx = mesh.velocity_dofs_interior_to(g, cells)
    # one interior x-face and one interior y-face
    assert len(vidx) == 4
    lo, up = mesh.face_adjacent_cells(g, vidx)
    assert np.all(np.isin(lo, cells)) and np.all(np.isin(up, cells))


def _interior_by_mask(grid, cells):
    """Faces with both cells in `cells`, from a full-grid cell mask."""
    flat = np.zeros(grid.n_cells, dtype=bool)
    flat[cells] = True
    mask = flat.reshape(grid.fine, order="F")
    picked = []
    for axis in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        both = mask[tuple(lo)] & mask[tuple(hi)]
        picked.append(np.flatnonzero(both.ravel(order="F"))
                      + grid.face_offsets[axis])
    return np.concatenate(picked)


@pytest.mark.parametrize("fine, coarse", [((12, 8), (3, 2)),
                                          ((6, 6, 4), (3, 1, 2)),
                                          ((5, 6, 1), (5, 2, 1))])
def test_velocity_dofs_interior_to_boxes_match_mask(fine, coarse):
    # oversampled boxes clipped at the domain boundary, one-cell blocks
    # and a singleton axis included
    g = mesh.build_grid(fine, coarse)
    for block in range(g.n_blocks):
        for layers in (0, 1, 2, 7):
            cells = mesh.oversample(g, block, layers)
            got = mesh.velocity_dofs_interior_to(g, cells)
            assert np.array_equal(got, _interior_by_mask(g, cells))
    with pytest.raises(ValueError, match="do not fill the box"):
        mesh.velocity_dofs_interior_to(g, np.array([0, g.n_cells - 1]))


@pytest.mark.parametrize("fine, coarse", [
    ((20, 20), (4, 4)),
    ((12, 6, 8), (3, 2, 4)),     # 3D, unequal block sizes 4 x 3 x 2
    ((4, 6, 3), (4, 3, 3)),      # blocks one cell thick along x and z
    ((6, 1, 4), (3, 1, 2)),      # a singleton axis, with no faces across it
], ids=["2d", "3d-unequal", "one-cell-thick", "singleton-axis"])
def test_coarse_faces_2d_counts_and_orientation(fine, coarse):
    g = mesh.build_grid(fine, coarse)
    faces = mesh.coarse_faces(g)
    size = np.array(g.block_size)
    # axis-major, then the lower blocks in F-order
    expected = []
    for axis in range(g.dim):
        for lower in range(g.n_blocks):
            multi = mesh.block_multi(g, lower)
            if multi[axis] + 1 < g.coarse[axis]:
                multi[axis] += 1
                expected.append((axis, lower, int(mesh.block_ids(g, multi))))
    assert [(f.axis,) + f.blocks for f in faces] == expected
    for position, f in enumerate(faces):
        assert f.index == position
        assert f.n_fine == np.prod(size) // size[f.axis]
        assert np.all(np.diff(f.fine_faces) > 0)
        lo, up = mesh.face_adjacent_cells(g, f.fine_faces)
        assert np.all(mesh.block_ids(g, mesh.cell_multi(g, lo) // size)
                      == f.blocks[0])
        assert np.all(mesh.block_ids(g, mesh.cell_multi(g, up) // size)
                      == f.blocks[1])
        # every fine face of the shared block boundary, and only those
        top = mesh.cell_multi(g, lo)[:, f.axis]
        assert np.all(top % size[f.axis] == size[f.axis] - 1)
    # each fine face on an interior block boundary lies on one coarse face
    on_faces = np.concatenate([f.fine_faces for f in faces])
    lo, _ = mesh.face_adjacent_cells(g, np.arange(g.n_velocity))
    axis_of = np.searchsorted(g.face_offsets, np.arange(g.n_velocity),
                              side="right") - 1
    top = mesh.cell_multi(g, lo)[np.arange(g.n_velocity), axis_of]
    boundary = np.flatnonzero(top % size[axis_of] == size[axis_of] - 1)
    assert np.array_equal(np.sort(on_faces), boundary)


def test_coarse_faces_3d_reference_count():
    g = mesh.build_grid((16, 16, 16), (8, 8, 8))
    faces = mesh.coarse_faces(g)
    assert len(faces) == 3 * 7 * 8 * 8 == 1344
    assert all(f.n_fine == 4 for f in faces)


def test_neighborhood_is_two_blocks():
    g = mesh.build_grid((12, 12), (3, 3))
    f = mesh.coarse_faces(g)[0]
    cells = neighborhood_cells(g, f)
    assert len(cells) == 2 * 16
    size = np.array(g.block_size)
    blocks = np.unique(mesh.block_ids(g, mesh.cell_multi(g, cells) // size))
    assert set(blocks) == set(f.blocks)
