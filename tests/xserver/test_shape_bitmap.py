"""Bitmaps, XBM round-trip, and the SHAPE extension."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.xserver.events as ev
from repro.xserver import ClientConnection, EventMask, XServer
from repro.xserver.bitmap import Bitmap, lookup_bitmap, stock_bitmap_names
from repro.xserver.errors import BadValue
from repro.xserver.shape import (
    SHAPE_INTERSECT,
    SHAPE_INVERT,
    SHAPE_SET,
    SHAPE_SUBTRACT,
    SHAPE_UNION,
    ShapeRegion,
)


def disc_predicate(diameter):
    """Oracle for ``Bitmap.disc``: the circle test, pixel by pixel (the
    squares are hoisted out of the loop; the float operations are the
    same ones, so the result is too)."""
    radius = diameter / 2.0
    centre = radius - 0.5
    r2 = radius * radius
    squares = [(i - centre) ** 2 for i in range(diameter)]
    return [[dx2 + dy2 <= r2 for dx2 in squares] for dy2 in squares]


class PixelShape:
    """Oracle for :class:`ShapeRegion`: the per-pixel bitmap model it
    replaced.  ``combine`` builds the bitmap of the box covering both
    operands (empty when that box lies left of or above the origin) and
    keeps only the pixels at x, y >= 0."""

    def __init__(self, mask, x_offset=0, y_offset=0):
        self.mask = mask
        self.x_offset = x_offset
        self.y_offset = y_offset

    def contains(self, x, y):
        return self.mask.get(x - self.x_offset, y - self.y_offset)

    def extents(self):
        points = [
            (x, y)
            for y, row in enumerate(self.mask.rows)
            for x, bit in enumerate(row) if bit
        ]
        if not points:
            return None
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        return (min(xs) + self.x_offset, min(ys) + self.y_offset,
                max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)

    def area(self):
        return self.mask.count_set()

    def combine(self, other, op):
        if op == SHAPE_SET:
            return other
        ops = {
            SHAPE_UNION: lambda a, b: a or b,
            SHAPE_INTERSECT: lambda a, b: a and b,
            SHAPE_SUBTRACT: lambda a, b: a and not b,
            SHAPE_INVERT: lambda a, b: b and not a,
        }
        width = max(0, self.mask.width + self.x_offset,
                    other.mask.width + other.x_offset)
        height = max(0, self.mask.height + self.y_offset,
                     other.mask.height + other.y_offset)
        rows = [
            [bool(ops[op](self.contains(x, y), other.contains(x, y)))
             for x in range(width)]
            for y in range(height)
        ]
        return PixelShape(Bitmap(width, height, rows))


@st.composite
def masks(draw):
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=width,
                                  max_size=width),
                         min_size=height, max_size=height))
    return Bitmap(width, height, rows)


offsets = st.integers(-4, 6)
ops = st.sampled_from(
    [SHAPE_SET, SHAPE_UNION, SHAPE_INTERSECT, SHAPE_SUBTRACT, SHAPE_INVERT])


class TestBitmap:
    def test_from_strings(self):
        bitmap = Bitmap.from_strings(["#.#", ".#."])
        assert bitmap.width == 3 and bitmap.height == 2
        assert bitmap.get(0, 0) and not bitmap.get(1, 0)

    def test_solid(self):
        bitmap = Bitmap.solid(4, 3)
        assert bitmap.count_set() == 12

    def test_out_of_bounds_get_is_false(self):
        bitmap = Bitmap.solid(2, 2)
        assert not bitmap.get(-1, 0)
        assert not bitmap.get(5, 5)

    def test_disc_matches_the_pixel_predicate(self):
        for diameter in range(1, 513):
            assert Bitmap.disc(diameter) == Bitmap(
                diameter, diameter, disc_predicate(diameter)), diameter

    def test_rows_are_bytes_of_zero_and_one(self):
        source = bytearray(b"\x00\x07\x01")
        bitmap = Bitmap(3, 2, [[True, 0, 5], source])
        assert bitmap.rows == (b"\x01\x00\x01", b"\x00\x01\x01")
        assert all(type(row) is bytes for row in bitmap.rows)
        assert bitmap.get(2, 0) is True and bitmap.get(0, 1) is False
        assert bitmap == Bitmap.from_strings(["#.#", ".##"])
        source[0] = 1  # the bitmap holds a copy of a mutable row
        assert bitmap.rows[1] == b"\x00\x01\x01"

    def test_disc_is_roundish(self):
        disc = Bitmap.disc(16)
        assert disc.get(8, 8)
        assert not disc.get(0, 0)
        assert not disc.get(15, 15)
        # Area close to pi*r^2.
        assert abs(disc.count_set() - 3.14159 * 64) < 20

    def test_xbm_roundtrip(self):
        bitmap = Bitmap.from_strings(["##..##..#", ".########", "#........"])
        text = bitmap.to_xbm("test")
        parsed = Bitmap.from_xbm(text)
        assert parsed == bitmap

    def test_xbm_parse_real_format(self):
        text = """
        #define star_width 8
        #define star_height 2
        static unsigned char star_bits[] = { 0x01, 0x80 };
        """
        bitmap = Bitmap.from_xbm(text)
        assert bitmap.get(0, 0)
        assert bitmap.get(7, 1)
        assert bitmap.count_set() == 2

    def test_xbm_missing_defines(self):
        with pytest.raises(ValueError):
            Bitmap.from_xbm("static unsigned char b[] = {0x00};")

    def test_xbm_short_data(self):
        with pytest.raises(ValueError):
            Bitmap.from_xbm(
                "#define a_width 16\n#define a_height 2\n"
                "static unsigned char a_bits[] = {0x00};"
            )

    def test_stock_bitmaps(self):
        assert "xlogo32" in stock_bitmap_names()
        logo = lookup_bitmap("xlogo32")
        assert logo.width == 32 and logo.height == 32
        assert logo.count_set() > 0

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(3, 2, [[True, False]])

    @given(st.lists(st.lists(st.booleans(), min_size=1, max_size=20),
                    min_size=1, max_size=10).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_xbm_roundtrip_property(self, rows):
        bitmap = Bitmap(len(rows[0]), len(rows), rows)
        assert Bitmap.from_xbm(bitmap.to_xbm()) == bitmap


class TestShapeRegion:
    def test_contains_with_offset(self):
        region = ShapeRegion(Bitmap.solid(4, 4), x_offset=10, y_offset=10)
        assert region.contains(10, 10)
        assert region.contains(13, 13)
        assert not region.contains(9, 10)
        assert not region.contains(14, 14)

    def test_extents(self):
        mask = Bitmap.from_strings(["....", ".##.", ".##.", "...."])
        region = ShapeRegion(mask)
        assert region.extents() == (1, 1, 2, 2)

    def test_empty_extents(self):
        assert ShapeRegion(Bitmap.solid(3, 3, False)).extents() is None

    def test_union(self):
        a = ShapeRegion(Bitmap.from_strings(["#."]))
        b = ShapeRegion(Bitmap.from_strings([".#"]))
        combined = a.combine(b, SHAPE_UNION)
        assert combined.contains(0, 0) and combined.contains(1, 0)

    def test_intersect(self):
        a = ShapeRegion(Bitmap.from_strings(["##"]))
        b = ShapeRegion(Bitmap.from_strings([".#"]))
        combined = a.combine(b, SHAPE_INTERSECT)
        assert not combined.contains(0, 0) and combined.contains(1, 0)

    def test_subtract(self):
        a = ShapeRegion(Bitmap.from_strings(["##"]))
        b = ShapeRegion(Bitmap.from_strings([".#"]))
        combined = a.combine(b, SHAPE_SUBTRACT)
        assert combined.contains(0, 0) and not combined.contains(1, 0)

    def test_from_rects(self):
        region = ShapeRegion.from_rects(10, 10, [(0, 0, 2, 2), (5, 5, 3, 3)])
        assert region.contains(1, 1)
        assert region.contains(6, 6)
        assert not region.contains(3, 3)
        assert region.area() == 4 + 9


    @settings(max_examples=150, deadline=None)
    @given(masks(), offsets, offsets,
           st.lists(st.tuples(masks(), offsets, offsets, ops), max_size=3))
    def test_matches_the_pixel_oracle(self, mask, dx, dy, steps):
        """Every combine op, chained as successive ShapeMask requests
        chain them, agrees with the per-pixel model on membership,
        extents, area and the mask it would send."""
        shape = ShapeRegion(mask, dx, dy)
        oracle = PixelShape(mask, dx, dy)
        for step_mask, sx, sy, op in steps:
            shape = shape.combine(ShapeRegion(step_mask, sx, sy), op)
            oracle = oracle.combine(PixelShape(step_mask, sx, sy), op)
        for y in range(-6, 20):
            for x in range(-6, 20):
                assert shape.contains(x, y) == oracle.contains(x, y), (x, y)
        assert shape.extents() == oracle.extents()
        assert shape.area() == oracle.area()
        assert (shape.mask, shape.x_offset, shape.y_offset) == (
            oracle.mask, oracle.x_offset, oracle.y_offset)
        assert ShapeRegion(shape.mask, shape.x_offset,
                           shape.y_offset).region == shape.region

    def test_translated_keeps_the_mask(self):
        mask = Bitmap.disc(10)
        shape = ShapeRegion(mask, 1, 2).translated(5, -3)
        assert shape.mask is mask
        assert (shape.x_offset, shape.y_offset) == (6, -1)
        assert shape.region == ShapeRegion(mask, 6, -1).region

    def test_combine_rejects_a_bad_op(self):
        a = ShapeRegion(Bitmap.solid(2, 2))
        with pytest.raises(BadValue):
            a.combine(ShapeRegion(Bitmap.solid(2, 2)), 9)


class TestShapedWindows:
    @pytest.fixture
    def server(self):
        return XServer(screens=[(500, 500, 8)])

    @pytest.fixture
    def conn(self, server):
        return ClientConnection(server, "oclock")

    def test_shape_window(self, server, conn):
        wid = conn.create_window(conn.root_window(), 0, 0, 64, 64)
        conn.shape_window(wid, Bitmap.disc(64))
        assert conn.window_is_shaped(wid)

    def test_shape_notify_delivered(self, server, conn):
        wm = ClientConnection(server, "wm")
        wid = conn.create_window(conn.root_window(), 0, 0, 64, 64)
        wm.select_input(wid, EventMask.StructureNotify)
        conn.shape_window(wid, Bitmap.disc(64))
        notifies = wm.flush_events(ev.ShapeNotify)
        assert notifies and notifies[0].shaped

    def test_a_mask_cannot_change_behind_the_server(self, server, conn):
        """On loopback the server keeps the client's own mask object.
        Its rows are immutable, so a client cannot change the stored
        mask with no request, away from the shape's pixels."""
        wid = conn.create_window(conn.root_window(), 0, 0, 8, 8)
        mask = Bitmap.disc(8)
        conn.shape_window(wid, mask)
        with pytest.raises(TypeError):
            mask.rows[0] = b"\1" * 8
        shape = server.shape_query(wid)
        assert shape.mask == Bitmap.disc(8)
        assert shape.area() == Bitmap.disc(8).count_set()

    def test_unshape(self, server, conn):
        wid = conn.create_window(conn.root_window(), 0, 0, 64, 64)
        conn.shape_window(wid, Bitmap.disc(64))
        conn.shape_window(wid, None)
        assert not conn.window_is_shaped(wid)

    def test_hit_test_honours_shape(self, server, conn):
        wid = conn.create_window(conn.root_window(), 100, 100, 64, 64)
        conn.map_window(wid)
        conn.shape_window(wid, Bitmap.disc(64))
        # Center of the disc hits the window...
        server.motion(132, 132)
        assert server.pointer.window.id == wid
        # ...the square's corner does not (falls through to root).
        server.motion(101, 101)
        assert server.pointer.window.id == conn.root_window()

    def test_combine_wholly_above_left_of_origin_is_empty(self, server, conn):
        """A combine whose covering box lies entirely at negative
        coordinates leaves the empty (origin-clipped) shape, not a
        server-side ValueError; a bad op is still BadValue."""
        wid = conn.create_window(conn.root_window(), 0, 0, 64, 64)
        conn.shape_window(wid, Bitmap.solid(4, 4), x_offset=-10, y_offset=-10)
        conn._request("shape_set_mask", wid, Bitmap.solid(4, 4),
                      op=SHAPE_UNION, x_offset=-10, y_offset=-10)
        shape = server.shape_query(wid)
        assert conn.window_is_shaped(wid)
        assert shape.area() == 0 and shape.extents() is None
        with pytest.raises(BadValue):
            conn._request("shape_set_mask", wid, Bitmap.solid(4, 4),
                          op=9, x_offset=-10, y_offset=-10)

    @pytest.mark.parametrize("mask", ["zz", [1, 2], {"k": 1}, 1.5])
    @pytest.mark.parametrize("shaped", [False, True])
    def test_a_mask_that_is_no_bitmap_is_bad_value(self, server, conn,
                                                   mask, shaped):
        """A mask that is neither a Bitmap nor None is BadValue, and
        the window's shape and its watchers see no change."""
        wm = ClientConnection(server, "wm")
        wid = conn.create_window(conn.root_window(), 0, 0, 64, 64)
        if shaped:
            conn.shape_window(wid, Bitmap.disc(64))
        before = server.shape_query(wid)
        wm.select_input(wid, EventMask.StructureNotify)
        with pytest.raises(BadValue):
            conn.shape_window(wid, mask)
        assert server.shape_query(wid) is before
        assert wm.events() == []

    @pytest.mark.parametrize("op", [-1, 5, 7, "zz", 1.0])
    @pytest.mark.parametrize("shaped", [False, True])
    def test_an_op_past_invert_is_bad_value(self, server, conn, op, shaped):
        """An op outside Set..Invert is BadValue on an unshaped window
        too, where any op used to set the mask."""
        wid = conn.create_window(conn.root_window(), 0, 0, 64, 64)
        if shaped:
            conn.shape_window(wid, Bitmap.disc(64))
        before = server.shape_query(wid)
        for mask in (Bitmap.solid(4, 4), None):
            with pytest.raises(BadValue):
                conn._request("shape_set_mask", wid, mask, op=op)
            assert server.shape_query(wid) is before
        conn._request("shape_set_mask", wid, Bitmap.solid(4, 4),
                      op=SHAPE_INVERT)
        assert conn.window_is_shaped(wid)
