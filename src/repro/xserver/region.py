"""Band-based rectangle region algebra (the classic X server structure).

A :class:`Region` is a set of integer pixels stored as a y-x sorted
*band list*: a tuple of ``(y1, y2, walls)`` slabs where ``walls`` is an
even-length tuple of x coordinates ``(x1a, x2a, x1b, x2b, ...)``
describing disjoint, sorted, non-adjacent horizontal intervals.  The
canonical form maintained by every operation is what makes regions
cheap to compare and combine:

- bands are sorted by ``y1`` and never overlap vertically;
- within a band, intervals are sorted, disjoint and non-adjacent
  (``x2a < x1b``);
- vertically adjacent bands with identical walls are merged, so two
  regions covering the same pixels always have identical band tuples
  (``==`` is structural *and* set equality);
- no empty bands, no empty intervals.

Region x region union, intersection and subtraction run through one
sweep (:func:`_combine`) that slices both operands into common y slabs
and merges walls per slab with a 1-D parity walk, then re-merges
adjacent slabs.  Cost is linear in the number of bands + intervals,
which is what lets the server treat per-window visible ("clip")
regions as a cached value instead of re-walking the tree (see
``Window.clip_region``).

A rectangle operand of intersect or subtract (a :class:`Rect`, a
one-rectangle region, or the four box coordinates given to
:meth:`Region.intersect_box` / :meth:`Region.subtract_box`) takes a
band-local path instead, as the X server's own region code does: only
the bands inside the box's y range are visited and only their walls
within the box move; the sweep serves region x region alone.

Regions are immutable; ``EMPTY`` is a shared singleton.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Tuple, Union as _Union

from .geometry import Rect

Band = Tuple[int, int, Tuple[int, ...]]

# Sentinel larger than any coordinate the server hands out.
_INF = float("inf")

_UNION = 0
_INTERSECT = 1
_SUBTRACT = 2


def _merge_walls(a: Tuple[int, ...], b: Tuple[int, ...], op: int
                 ) -> Tuple[int, ...]:
    """Combine two 1-D wall lists with a parity sweep.

    ``a`` and ``b`` are even-length sorted x lists; the result is the
    wall list of ``a <op> b`` in the same canonical form (adjacent
    intervals merged — a wall closed and reopened at the same x never
    materialises because each distinct x is evaluated once, after both
    sides' toggles)."""
    out: List[int] = []
    ia = ib = 0
    na, nb = len(a), len(b)
    inside = False
    while ia < na or ib < nb:
        xa = a[ia] if ia < na else _INF
        xb = b[ib] if ib < nb else _INF
        edge = xa if xa <= xb else xb
        if xa == edge:
            ia += 1
        if xb == edge:
            ib += 1
        in_a = ia & 1
        in_b = ib & 1
        if op == _UNION:
            now = bool(in_a or in_b)
        elif op == _INTERSECT:
            now = bool(in_a and in_b)
        else:
            now = bool(in_a and not in_b)
        if now != inside:
            out.append(int(edge))
            inside = now
    return tuple(out)


def _append_band(bands: List[Band], y1: int, y2: int,
                 walls: Tuple[int, ...]) -> None:
    """Append a slab, coalescing with the previous band when it is
    vertically adjacent and has identical walls (canonical form)."""
    if not walls or y1 >= y2:
        return
    if bands:
        py1, py2, pwalls = bands[-1]
        if py2 == y1 and pwalls == walls:
            bands[-1] = (py1, y2, pwalls)
            return
    bands.append((y1, y2, walls))


def _combine(a: Tuple[Band, ...], b: Tuple[Band, ...], op: int
             ) -> Tuple[Band, ...]:
    """Band sweep: slice both operands into common y slabs, merge walls
    per slab, re-canonicalise."""
    ys = sorted({y for band in a for y in (band[0], band[1])}
                | {y for band in b for y in (band[0], band[1])})
    out: List[Band] = []
    ia = ib = 0
    na, nb = len(a), len(b)
    empty: Tuple[int, ...] = ()
    for i in range(len(ys) - 1):
        y1 = ys[i]
        y2 = ys[i + 1]
        while ia < na and a[ia][1] <= y1:
            ia += 1
        while ib < nb and b[ib][1] <= y1:
            ib += 1
        walls_a = a[ia][2] if ia < na and a[ia][0] <= y1 else empty
        walls_b = b[ib][2] if ib < nb and b[ib][0] <= y1 else empty
        if not walls_a and not walls_b:
            continue
        _append_band(out, y1, y2, _merge_walls(walls_a, walls_b, op))
    return tuple(out)


class Region:
    """Immutable set of pixels in canonical band form.

    Build with :meth:`from_rect` / :meth:`union_all`, combine with
    ``|``/``&``/``-`` (or the named methods, which also accept a
    :class:`Rect` directly).  Structural equality is set equality."""

    __slots__ = ("bands",)

    #: Shared empty region (assigned after the class body).
    EMPTY: "Region"

    def __init__(self, bands: Tuple[Band, ...] = ()):
        self.bands = bands

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rect(cls, rect: Rect) -> "Region":
        """Region of one rectangle; degenerate rects give ``EMPTY``."""
        if rect.width <= 0 or rect.height <= 0:
            return cls.EMPTY
        return cls(((rect.y, rect.y + rect.height,
                     (rect.x, rect.x + rect.width)),))

    @classmethod
    def union_all(cls, rects: Iterable[Rect]) -> "Region":
        """Union of an iterable of rectangles."""
        region = cls.EMPTY
        for rect in rects:
            region = region.union(rect)
        return region

    # -- predicates --------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self.bands

    def __bool__(self) -> bool:
        return bool(self.bands)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Region):
            return NotImplemented
        return self.bands == other.bands

    def __hash__(self) -> int:
        return hash(self.bands)

    def __repr__(self) -> str:
        if not self.bands:
            return "<Region empty>"
        return f"<Region {len(self.bands)} bands area={self.area()}>"

    def area(self) -> int:
        """Number of pixels covered."""
        total = 0
        for y1, y2, walls in self.bands:
            h = y2 - y1
            for i in range(0, len(walls), 2):
                total += (walls[i + 1] - walls[i]) * h
        return total

    def extents(self) -> Optional[Rect]:
        """Bounding box, or ``None`` when empty."""
        if not self.bands:
            return None
        y1 = self.bands[0][0]
        y2 = self.bands[-1][1]
        x1 = min(band[2][0] for band in self.bands)
        x2 = max(band[2][-1] for band in self.bands)
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def contains(self, x: int, y: int) -> bool:
        """Point membership (pixel at *x*, *y*): bisect to the last
        band starting at or above *y*, then to *x* among its walls —
        inside when an odd number of walls lie at or left of *x*."""
        bands = self.bands
        # (y, inf) sorts after every band whose y1 is y.
        i = bisect_right(bands, (y, _INF))
        if not i:
            return False
        _, y2, walls = bands[i - 1]
        return y < y2 and bisect_right(walls, x) & 1 == 1

    # -- algebra -----------------------------------------------------------

    def union(self, other: _Union["Region", Rect]) -> "Region":
        if isinstance(other, Rect):
            other = Region.from_rect(other)
        if not self.bands:
            return other
        if not other.bands or self.bands == other.bands:
            return self
        return Region(_combine(self.bands, other.bands, _UNION))

    def intersect(self, other: _Union["Region", Rect]) -> "Region":
        if isinstance(other, Rect):
            return self.intersect_box(other.x, other.y,
                                      other.x + other.width,
                                      other.y + other.height)
        a = self.bands
        b = other.bands
        if not a or not b:
            return Region.EMPTY
        if a == b:
            return self
        if len(b) == 1 and len(b[0][2]) == 2:
            y1, y2, (x1, x2) = b[0]
            return self.intersect_box(x1, y1, x2, y2)
        if len(a) == 1 and len(a[0][2]) == 2:
            y1, y2, (x1, x2) = a[0]
            return other.intersect_box(x1, y1, x2, y2)
        if not self._extents_overlap(other):
            return Region.EMPTY
        return Region(_combine(a, b, _INTERSECT))

    def subtract(self, other: _Union["Region", Rect]) -> "Region":
        if isinstance(other, Rect):
            return self.subtract_box(other.x, other.y,
                                     other.x + other.width,
                                     other.y + other.height)
        a = self.bands
        b = other.bands
        if not a:
            return Region.EMPTY
        if len(b) == 1 and len(b[0][2]) == 2:
            y1, y2, (x1, x2) = b[0]
            return self.subtract_box(x1, y1, x2, y2)
        if not b or not self._extents_overlap(other):
            return self
        if a == b:
            return Region.EMPTY
        return Region(_combine(a, b, _SUBTRACT))

    def intersect_box(self, x1: int, y1: int, x2: int, y2: int
                      ) -> "Region":
        """The region clipped to the box ``[x1, x2) x [y1, y2)``, band
        by band: only the bands inside the box's y range are visited,
        each clamped to that range and its walls to ``[x1, x2)``.  The
        region itself when the box covers it."""
        bands = self.bands
        if not bands or x1 >= x2 or y1 >= y2:
            return Region.EMPTY
        out: List[Band] = []
        changed = False
        for by1, by2, walls in bands:
            if by2 <= y1:
                changed = True
                continue
            if by1 >= y2:
                changed = True
                break
            if walls[0] < x1 or walls[-1] > x2:
                # Walls left of x1 / right of x2 drop out; an interval
                # that straddles either edge is cut there (an odd count
                # of walls before an edge means it is inside).
                lo = bisect_right(walls, x1)
                hi = bisect_left(walls, x2)
                walls = (((x1,) if lo & 1 else ()) + walls[lo:hi]
                         + ((x2,) if hi & 1 else ()))
                changed = True
            if by1 < y1:
                by1 = y1
                changed = True
            if by2 > y2:
                by2 = y2
                changed = True
            _append_band(out, by1, by2, walls)
        if not changed:
            return self
        return Region(tuple(out)) if out else Region.EMPTY

    def subtract_box(self, x1: int, y1: int, x2: int, y2: int
                     ) -> "Region":
        """The region minus the box ``[x1, x2) x [y1, y2)``, band by
        band: a band inside the box's y range whose walls the box cuts
        is split into the part above the box, the cut part and the part
        below; every other band is kept whole.  The region itself when
        the box misses it."""
        bands = self.bands
        if not bands:
            return Region.EMPTY
        if x1 >= x2 or y1 >= y2:
            return self
        out: List[Band] = []
        changed = False
        for i, band in enumerate(bands):
            by1, by2, walls = band
            if by2 <= y1:
                out.append(band)
                continue
            if by1 >= y2:
                if changed:
                    # The first band below may merge with the last cut.
                    _append_band(out, by1, by2, walls)
                    out.extend(bands[i + 1:])
                break
            lo = bisect_left(walls, x1)
            hi = bisect_right(walls, x2)
            if lo == hi and not lo & 1:
                # The box lies in a gap between intervals.
                _append_band(out, by1, by2, walls)
                continue
            # Walls before x1 and after x2 stay; an interval that
            # straddles either edge is closed at x1 or reopened at x2.
            cut = (walls[:lo] + ((x1,) if lo & 1 else ())
                   + ((x2,) if hi & 1 else ()) + walls[hi:])
            _append_band(out, by1, y1, walls)
            _append_band(out, max(by1, y1), min(by2, y2), cut)
            _append_band(out, y2, by2, walls)
            changed = True
        if not changed:
            return self
        return Region(tuple(out)) if out else Region.EMPTY

    __or__ = union
    __and__ = intersect
    __sub__ = subtract

    def _extents_overlap(self, other: "Region") -> bool:
        a = self.bands
        b = other.bands
        if a[-1][1] <= b[0][0] or b[-1][1] <= a[0][0]:
            return False
        ax1 = min(band[2][0] for band in a)
        ax2 = max(band[2][-1] for band in a)
        bx1 = min(band[2][0] for band in b)
        bx2 = max(band[2][-1] for band in b)
        return ax1 < bx2 and bx1 < ax2

    def translated(self, dx: int, dy: int) -> "Region":
        """The region shifted by (*dx*, *dy*)."""
        if (not dx and not dy) or not self.bands:
            return self
        return Region(tuple(
            (y1 + dy, y2 + dy, tuple(x + dx for x in walls))
            for y1, y2, walls in self.bands
        ))

    def rects(self) -> List[Rect]:
        """The region as disjoint rectangles in y-x band order."""
        out: List[Rect] = []
        for y1, y2, walls in self.bands:
            h = y2 - y1
            for i in range(0, len(walls), 2):
                out.append(Rect(walls[i], y1, walls[i + 1] - walls[i], h))
        return out


Region.EMPTY = Region()
