"""Two-scale Cartesian grids for mixed finite-volume discretizations.

A grid couples a uniform fine mesh of cells with a uniform coarse mesh of
blocks; every coarse block is an integer box of fine cells.  Velocity
unknowns live on interior fine faces (zero normal flux on the domain
boundary eliminates the rest), pressure unknowns are one per fine cell.

Orderings are fixed once and relied upon everywhere else:

* cells: lexicographic with x fastest, then y, then z;
* faces: all x-normal faces first, then y, then z; within one axis the
  face inherits the lexicographic order of its lower neighbouring cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np


@dataclass(frozen=True)
class CartesianTwoScaleGrid:
    """Immutable description of the fine/coarse cell layout.  Derived
    sizes are cached on the instance; equality and hashing see the three
    fields only."""

    fine: tuple
    coarse: tuple
    lengths: tuple

    @property
    def dim(self) -> int:
        return len(self.fine)

    @cached_property
    def h(self) -> tuple:
        return tuple(length / n for length, n in zip(self.lengths, self.fine))

    @property
    def H(self) -> tuple:
        return tuple(length / n for length, n in zip(self.lengths, self.coarse))

    @property
    def block_size(self) -> tuple:
        """Fine cells per coarse block, per axis."""
        return tuple(n // N for n, N in zip(self.fine, self.coarse))

    @property
    def n_cells(self) -> int:
        return math.prod(self.fine)

    @property
    def n_blocks(self) -> int:
        return math.prod(self.coarse)

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @cached_property
    def face_areas(self) -> tuple:
        """Measure of a fine face normal to each axis (length in 2D)."""
        return tuple(float(np.prod(self.h) / self.h[axis])
                     for axis in range(self.dim))

    def axis_face_shape(self, axis: int) -> tuple:
        """Shape of the interior-face lattice normal to `axis`."""
        return tuple(n - 1 if a == axis else n for a, n in enumerate(self.fine))

    def axis_face_count(self, axis: int) -> int:
        return math.prod(self.axis_face_shape(axis))

    @cached_property
    def face_offsets(self) -> tuple:
        """Start of each axis block in the global velocity numbering."""
        counts = [self.axis_face_count(a) for a in range(self.dim)]
        return tuple(accumulate(counts[:-1], initial=0))

    @cached_property
    def n_velocity(self) -> int:
        return sum(self.axis_face_count(a) for a in range(self.dim))


@dataclass(eq=False)
class CoarseFace:
    """One interior coarse face with its fine-face decomposition.

    `blocks` holds (lower, upper) coarse block ids along `axis`; the face
    normal points from the lower block to the upper one, i.e. in the
    positive axis direction.  `fine_faces` lists the global velocity dofs
    lying on the face, lexicographically in the orthogonal coordinates.
    """

    index: int
    axis: int
    blocks: tuple
    fine_faces: np.ndarray

    @property
    def n_fine(self) -> int:
        return len(self.fine_faces)


def build_grid(fine_cells, coarse_blocks, domain_lengths=None) -> CartesianTwoScaleGrid:
    """Validate the layout and build a grid.

    Every axis must have a positive, whole cell count divisible by its
    coarse block count, and a positive, finite length.  `domain_lengths`
    defaults to the unit box.
    """
    fine, coarse = tuple(fine_cells), tuple(coarse_blocks)
    for n in fine + coarse:
        if not float(n).is_integer():
            raise ValueError(f"cell counts must be whole numbers, got {n!r}")
    fine, coarse = tuple(map(int, fine)), tuple(map(int, coarse))
    if len(fine) not in (2, 3):
        raise ValueError(f"expected 2 or 3 axes, got {len(fine)}")
    if len(coarse) != len(fine):
        raise ValueError(f"coarse layout has {len(coarse)} axes, fine has {len(fine)}")
    if domain_lengths is None:
        domain_lengths = (1.0,) * len(fine)
    lengths = tuple(float(L) for L in domain_lengths)
    if len(lengths) != len(fine):
        raise ValueError(f"domain has {len(lengths)} lengths for {len(fine)} axes")
    for a, (n, N, L) in enumerate(zip(fine, coarse, lengths)):
        if n < 1 or N < 1:
            raise ValueError(f"axis {a}: cell counts must be positive, got {n}/{N}")
        if not (np.isfinite(L) and L > 0):
            raise ValueError(f"axis {a}: domain length must be positive and "
                             f"finite, got {L}")
        if n % N != 0:
            raise ValueError(
                f"axis {a}: {n} fine cells are not divisible into {N} coarse blocks"
            )
    return CartesianTwoScaleGrid(fine=fine, coarse=coarse, lengths=lengths)


def count_dofs(grid: CartesianTwoScaleGrid):
    """(velocity, pressure) unknown counts; purely arithmetic."""
    return grid.n_velocity, grid.n_cells


def cell_ids(grid, multi) -> np.ndarray:
    """Ravel cell multi-indices (columns x, y[, z]) to global ids."""
    multi = np.asarray(multi)
    return np.ravel_multi_index(tuple(multi[..., a] for a in range(grid.dim)),
                                grid.fine, order="F")


def cell_multi(grid, ids) -> np.ndarray:
    """Inverse of `cell_ids`; returns an (..., dim) index array."""
    unraveled = np.unravel_index(np.asarray(ids), grid.fine, order="F")
    return np.stack(unraveled, axis=-1)


@lru_cache(maxsize=128)
def cell_face_ids(grid, axis):
    """(low, high) face ids per cell along `axis`, -1 where the face is
    a domain-boundary face and carries no unknown."""
    shape = grid.axis_face_shape(axis)
    lattice = np.arange(int(np.prod(shape))).reshape(shape, order="F")
    lattice = lattice + grid.face_offsets[axis]
    low = np.full(grid.fine, -1, dtype=np.int64)
    high = np.full(grid.fine, -1, dtype=np.int64)
    index_low = [slice(None)] * grid.dim
    index_low[axis] = slice(1, None)
    index_high = [slice(None)] * grid.dim
    index_high[axis] = slice(None, -1)
    low[tuple(index_low)] = lattice
    high[tuple(index_high)] = lattice
    return low.ravel(order="F"), high.ravel(order="F")


def block_ids(grid, multi) -> np.ndarray:
    multi = np.asarray(multi)
    return np.ravel_multi_index(tuple(multi[..., a] for a in range(grid.dim)),
                                grid.coarse, order="F")


def block_multi(grid, ids) -> np.ndarray:
    unraveled = np.unravel_index(np.asarray(ids), grid.coarse, order="F")
    return np.stack(unraveled, axis=-1)


def _lattice_box(lo, hi, shape) -> np.ndarray:
    """Ids of the box [lo, hi) of an F-ordered lattice, ascending."""
    ids, stride = 0, 1
    for l, h, n in zip(lo, hi, shape):
        ids = np.add.outer(np.arange(l, h) * stride, ids)
        stride *= n
    return np.ravel(ids)


def box_cells(grid, lo, hi) -> np.ndarray:
    """Ascending cell ids of the box [lo, hi) in cell coordinates."""
    return _lattice_box(lo, hi, grid.fine)


def block_cells(grid, block) -> np.ndarray:
    """Fine cells of one coarse block, ascending."""
    return oversample(grid, block, 0)


def oversample(grid, block, layers: int) -> np.ndarray:
    """Cells of a coarse block grown by `layers` fine cells per side,
    clipped at the domain boundary.  layers=0 returns the block itself."""
    return box_cells(grid, *grown_blocks(grid, block, layers))


def grown_blocks(grid, blocks, layers: int):
    """(lo, hi): the boxes [lo, hi) that `oversample` makes of `blocks`."""
    if layers < 0:
        raise ValueError(f"layers must be non-negative, got {layers}")
    corner = block_multi(grid, blocks) * grid.block_size
    return (np.maximum(corner - layers, 0),
            np.minimum(corner + grid.block_size + layers, grid.fine))


def velocity_dofs_interior_to(grid, cells) -> np.ndarray:
    """Velocity dofs whose two neighbouring cells both lie in `cells`.

    `cells` must be the ascending ids of a box of cells, as `box_cells`
    returns them; the faces follow from the box bounds by index
    arithmetic.  Returned ascending, which groups them x-faces first
    exactly like the global numbering.
    """
    cells = np.asarray(cells)
    corners = np.unravel_index(cells[[0, -1]], grid.fine, order="F")
    lo = [int(first) for first, _ in corners]
    hi = [int(last) + 1 for _, last in corners]
    if len(cells) != math.prod(h - l for l, h in zip(lo, hi)):
        raise ValueError(f"{len(cells)} cells do not fill the box from "
                         f"{lo} to {[h - 1 for h in hi]}")
    picked = []
    for axis in range(grid.dim):
        # the faces whose lower cell lies below the box's top layer
        top = [h - (a == axis) for a, h in enumerate(hi)]
        picked.append(grid.face_offsets[axis] + _lattice_box(
            lo, top, grid.axis_face_shape(axis)))
    return np.concatenate(picked)


@lru_cache(maxsize=32)
def coarse_faces(grid) -> tuple:
    """All interior coarse faces, axis-major, then by lower block in
    F-order.

    The F-order ravel of a face lattice is linear, so along one axis the
    fine faces of every coarse face are those of the first one (above
    block 0) shifted by one offset: the ravelled lattice corner of the
    face's lower block.
    """
    faces = []
    m = np.array(grid.block_size)
    for axis in range(grid.dim):
        layers = tuple(N - (a == axis) for a, N in enumerate(grid.coarse))
        lower = np.stack(np.unravel_index(np.arange(math.prod(layers)),
                                          layers, order="F"), axis=-1)
        step = np.eye(grid.dim, dtype=int)[axis]
        blocks = zip(block_ids(grid, lower), block_ids(grid, lower + step))
        shape = grid.axis_face_shape(axis)
        # the faces' lower cells are the top layer of the lower block
        first = [m[axis] - 1 if a == axis else 0 for a in range(grid.dim)]
        template = grid.face_offsets[axis] + _lattice_box(first, m, shape)
        offsets = np.ravel_multi_index(tuple((lower * m).T), shape, order="F")
        fine = template + offsets[:, None]
        start = len(faces)
        faces += [CoarseFace(index=start + k, axis=axis,
                             blocks=(int(lo), int(hi)), fine_faces=f)
                  for k, ((lo, hi), f) in enumerate(zip(blocks, fine))]
    return tuple(faces)


def face_adjacent_cells(grid, face_ids):
    """(lower, upper) cell ids of each face in `face_ids`."""
    face_ids = np.asarray(face_ids, dtype=np.int64)
    lo = np.empty(face_ids.shape, dtype=np.int64)
    hi = np.empty(face_ids.shape, dtype=np.int64)
    for axis in range(grid.dim):
        start = grid.face_offsets[axis]
        in_axis = (face_ids >= start) & (face_ids < start + grid.axis_face_count(axis))
        if not in_axis.any():
            continue
        local = face_ids[in_axis] - start
        multi = np.stack(np.unravel_index(local, grid.axis_face_shape(axis),
                                          order="F"), axis=-1)
        lo[in_axis] = cell_ids(grid, multi)
        upper = multi.copy()
        upper[:, axis] += 1
        hi[in_axis] = cell_ids(grid, upper)
    return lo, hi
