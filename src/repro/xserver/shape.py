"""The SHAPE extension.

Non-rectangular windows (§5.1 of the paper) are modelled with a
:class:`ShapeRegion` attached to a window: a canonical band
:class:`~repro.xserver.region.Region` in window coordinates (the mask's
offset folded in) plus the protocol's combine operations (Set, Union,
Intersect, Subtract, Invert), computed by the same region algebra the
clip code uses.  ShapeNotify events fire on change so the WM can
re-shape decorations.

A ShapeMask bitmap becomes bands once, run by run
(:func:`bitmap_region`).  A shape set from a bitmap keeps that bitmap
and its offset, so the WM forwards a client's mask to its frame at a
shifted offset without rasterising; only combine and ``from_rects``
results build a :attr:`ShapeRegion.mask` bitmap (:func:`region_bitmap`),
on demand.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .bitmap import Bitmap
from .errors import BadValue
from .geometry import Rect
from .region import Band, Region

# Shape kinds.
SHAPE_BOUNDING = 0
SHAPE_CLIP = 1

# Shape operations (protocol values).
SHAPE_SET = 0
SHAPE_UNION = 1
SHAPE_INTERSECT = 2
SHAPE_SUBTRACT = 3
SHAPE_INVERT = 4


def _row_walls(row: bytes, dx: int) -> Tuple[int, ...]:
    """The set runs of one bitmap row as region walls, shifted by *dx*."""
    walls: List[int] = []
    start = row.find(1)
    while start >= 0:
        end = row.find(0, start)
        if end < 0:
            end = len(row)
        walls += (start + dx, end + dx)
        start = row.find(1, end)
    return tuple(walls)


def bitmap_region(mask: Bitmap, x_offset: int = 0, y_offset: int = 0) -> Region:
    """The set bits of *mask*, placed at (*x_offset*, *y_offset*), as a
    canonical region.  Each row's runs are found with ``bytes.find``; a
    row equal to the one above extends the current band unscanned."""
    bands: List[Band] = []
    above: Optional[bytes] = None
    walls: Tuple[int, ...] = ()
    for y, row in enumerate(mask.rows, y_offset):
        if row == above:
            if walls:
                bands[-1] = (bands[-1][0], y + 1, walls)
            continue
        above = row
        walls = _row_walls(row, x_offset)
        if walls:
            bands.append((y, y + 1, walls))
    return Region(tuple(bands)) if bands else Region.EMPTY


def region_bitmap(region: Region, width: int, height: int) -> Bitmap:
    """Rasterise *region*, which lies inside the box (0, 0, *width*,
    *height*), into a bitmap of that size, one row per band."""
    rows: List[bytes] = []
    blank = bytes(width)
    y = 0
    for y1, y2, walls in region.bands:
        rows += [blank] * (y1 - y)
        row = bytearray(width)
        for i in range(0, len(walls), 2):
            row[walls[i]:walls[i + 1]] = b"\1" * (walls[i + 1] - walls[i])
        rows += [bytes(row)] * (y2 - y1)
        y = y2
    rows += [blank] * (height - y)
    return Bitmap._of_rows(width, height, tuple(rows))


class ShapeRegion:
    """A window's bounding shape, in window-local coordinates.

    ``region`` holds the pixels.  ``mask`` at (``x_offset``,
    ``y_offset``) is the same set as a ShapeMask request carries it:
    the bitmap the shape was set from, or, for combine and
    ``from_rects`` results, a bitmap of their covering box at offset 0.
    Shapes are immutable."""

    __slots__ = ("region", "x_offset", "y_offset", "_mask", "_size")

    def __init__(self, mask: Bitmap, x_offset: int = 0, y_offset: int = 0):
        self.region = bitmap_region(mask, x_offset, y_offset)
        self.x_offset = x_offset
        self.y_offset = y_offset
        self._mask: Optional[Bitmap] = mask
        self._size = (mask.width, mask.height)

    @classmethod
    def _build(cls, region: Region, mask: Optional[Bitmap],
               size: Tuple[int, int], x_offset: int = 0,
               y_offset: int = 0) -> "ShapeRegion":
        shape = cls.__new__(cls)
        shape.region = region
        shape.x_offset = x_offset
        shape.y_offset = y_offset
        shape._mask = mask
        shape._size = size
        return shape

    @classmethod
    def _boxed(cls, region: Region, width: int, height: int) -> "ShapeRegion":
        """A region-only shape: *region* clipped to the *width* x
        *height* box at the origin, which is also its mask's extent."""
        width, height = max(0, width), max(0, height)
        return cls._build(region & Rect(0, 0, width, height), None,
                          (width, height))

    @classmethod
    def from_rects(cls, width: int, height: int, rects: List[Tuple[int, int, int, int]]) -> "ShapeRegion":
        """Build a region covering the given (x, y, w, h) rectangles,
        clipped to the *width* x *height* box."""
        return cls._boxed(Region.union_all(Rect(*rect) for rect in rects),
                          width, height)

    @property
    def mask(self) -> Bitmap:
        if self._mask is None:
            self._mask = region_bitmap(
                self.region.translated(-self.x_offset, -self.y_offset),
                *self._size,
            )
        return self._mask

    def translated(self, dx: int, dy: int) -> "ShapeRegion":
        """The same shape shifted by (*dx*, *dy*): the mask is kept and
        only its offset moves."""
        return ShapeRegion._build(
            self.region.translated(dx, dy), self._mask, self._size,
            self.x_offset + dx, self.y_offset + dy,
        )

    def contains(self, x: int, y: int) -> bool:
        return self.region.contains(x, y)

    def extents(self) -> Optional[Tuple[int, int, int, int]]:
        """Bounding box (x, y, w, h) of the set bits, or None if empty."""
        rect = self.region.extents()
        if rect is None:
            return None
        return (rect.x, rect.y, rect.width, rect.height)

    def area(self) -> int:
        return self.region.area()

    def combine(self, other: "ShapeRegion", op: int) -> "ShapeRegion":
        """Apply a SHAPE combine op; returns a new region sized to cover
        both operands, with the pixels left or above the window origin
        dropped."""
        if op == SHAPE_SET:
            return other
        a, b = self.region, other.region
        if op == SHAPE_UNION:
            region = a | b
        elif op == SHAPE_INTERSECT:
            region = a & b
        elif op == SHAPE_SUBTRACT:
            region = a - b
        elif op == SHAPE_INVERT:
            region = b - a
        else:
            raise BadValue(op, "bad shape operation")
        width = max(self._size[0] + self.x_offset, other._size[0] + other.x_offset)
        height = max(self._size[1] + self.y_offset, other._size[1] + other.y_offset)
        return ShapeRegion._boxed(region, width, height)

    def __repr__(self) -> str:
        width, height = self._size
        return f"<ShapeRegion {width}x{height} area={self.area()}>"
