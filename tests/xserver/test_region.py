"""Property tests for the band-based region algebra.

Seeded random rect soups are checked against a naive pixel-set oracle:
union/intersect/subtract round-trips, area conservation, band-form
invariants, and the fast paths.  The soup coordinates are small enough
that the oracle stays cheap but still exercise negative coordinates,
adjacency, containment and heavy overlap.
"""

import random

import pytest

from repro.xserver.geometry import Rect
from repro.xserver.region import _INTERSECT, _SUBTRACT, Region, _combine

SEEDS = [7, 1337, 2025, 90210]


def rect_soup(rng, count, span=60, size=24):
    return [
        Rect(
            rng.randint(-span // 2, span),
            rng.randint(-span // 2, span),
            rng.randint(1, size),
            rng.randint(1, size),
        )
        for _ in range(count)
    ]


def pixels(rects):
    cells = set()
    for rect in rects:
        for y in range(rect.y, rect.y + rect.height):
            for x in range(rect.x, rect.x + rect.width):
                cells.add((x, y))
    return cells


def region_pixels(region):
    return pixels(region.rects())


def assert_canonical(region):
    """The band-form invariants every operation must preserve."""
    previous = None
    for y1, y2, walls in region.bands:
        assert y1 < y2, "empty band"
        assert walls, "band with no intervals"
        assert len(walls) % 2 == 0, "odd wall count"
        for i in range(len(walls) - 1):
            assert walls[i] < walls[i + 1], "unsorted/empty/adjacent walls"
        if previous is not None:
            prev_y2, prev_walls = previous
            assert prev_y2 <= y1, "vertically overlapping bands"
            if prev_y2 == y1:
                assert prev_walls != walls, "unmerged identical bands"
        previous = (y2, walls)


class TestRegionBasics:
    def test_empty_singleton(self):
        assert Region.EMPTY.empty
        assert not Region.EMPTY
        assert Region.EMPTY.area() == 0
        assert Region.EMPTY.rects() == []
        assert Region.EMPTY.extents() is None

    def test_degenerate_rect_is_empty(self):
        assert Region.from_rect(Rect(5, 5, 0, 10)) is Region.EMPTY
        assert Region.from_rect(Rect(5, 5, 10, 0)) is Region.EMPTY

    def test_single_rect(self):
        region = Region.from_rect(Rect(2, 3, 10, 5))
        assert region.area() == 50
        assert region.extents() == Rect(2, 3, 10, 5)
        assert region.rects() == [Rect(2, 3, 10, 5)]
        assert region.contains(2, 3)
        assert region.contains(11, 7)
        assert not region.contains(12, 7)
        assert not region.contains(2, 8)
        assert_canonical(region)

    def test_adjacent_rects_merge(self):
        # Horizontally adjacent, same band: one interval.
        region = Region.from_rect(Rect(0, 0, 5, 5)).union(Rect(5, 0, 5, 5))
        assert region.bands == ((0, 5, (0, 10)),)
        # Vertically adjacent, same walls: one band.
        region = Region.from_rect(Rect(0, 0, 5, 5)).union(Rect(0, 5, 5, 5))
        assert region.bands == ((0, 10, (0, 5)),)

    def test_equality_is_set_equality(self):
        a = Region.union_all([Rect(0, 0, 4, 4), Rect(4, 0, 4, 4)])
        b = Region.from_rect(Rect(0, 0, 8, 4))
        assert a == b
        assert hash(a) == hash(b)

    def test_translate_round_trip(self):
        region = Region.union_all([Rect(0, 0, 5, 5), Rect(10, 8, 3, 7)])
        moved = region.translated(13, -4)
        assert moved.area() == region.area()
        assert moved.translated(-13, 4) == region
        assert region.translated(0, 0) is region

    def test_operator_aliases_and_rect_coercion(self):
        a = Region.from_rect(Rect(0, 0, 10, 10))
        b = Rect(5, 5, 10, 10)
        assert (a | b) == a.union(b)
        assert (a & Region.from_rect(b)) == a.intersect(b)
        assert (a - Region.from_rect(b)) == a.subtract(b)


class TestRegionProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ops_match_pixel_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            soup_a = rect_soup(rng, rng.randint(0, 6))
            soup_b = rect_soup(rng, rng.randint(0, 6))
            a = Region.union_all(soup_a)
            b = Region.union_all(soup_b)
            cells_a = pixels(soup_a)
            cells_b = pixels(soup_b)
            assert region_pixels(a) == cells_a
            assert region_pixels(a | b) == cells_a | cells_b
            assert region_pixels(a & b) == cells_a & cells_b
            assert region_pixels(a - b) == cells_a - cells_b
            for derived in (a, b, a | b, a & b, a - b):
                assert_canonical(derived)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_area_conservation(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            a = Region.union_all(rect_soup(rng, rng.randint(1, 6)))
            b = Region.union_all(rect_soup(rng, rng.randint(1, 6)))
            # |A ∪ B| = |A| + |B| - |A ∩ B|
            assert (a | b).area() == a.area() + b.area() - (a & b).area()
            # |A - B| = |A| - |A ∩ B|
            assert (a - b).area() == a.area() - (a & b).area()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subtract_union_round_trip(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            a = Region.union_all(rect_soup(rng, rng.randint(1, 6)))
            b = Region.union_all(rect_soup(rng, rng.randint(1, 6)))
            # (A - B) ∪ (A ∩ B) = A, and the two parts are disjoint.
            assert ((a - b) | (a & b)) == a
            assert ((a - b) & (a & b)).empty

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rects_are_disjoint_and_band_ordered(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            region = Region.union_all(rect_soup(rng, rng.randint(1, 8)))
            rects = region.rects()
            assert sum(r.width * r.height for r in rects) == region.area()
            keys = [(r.y, r.x) for r in rects]
            assert keys == sorted(keys)
            for i, r1 in enumerate(rects):
                for r2 in rects[i + 1:]:
                    assert r1.intersection(r2) is None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_point_and_rect_probes_match_oracle(self, seed):
        rng = random.Random(seed)
        soup = rect_soup(rng, 5)
        region = Region.union_all(soup)
        cells = pixels(soup)
        for _ in range(200):
            x = rng.randint(-40, 90)
            y = rng.randint(-40, 90)
            assert region.contains(x, y) == ((x, y) in cells)
        for probe in rect_soup(rng, 40):
            expected = bool(pixels([probe]) & cells)
            assert (not region.intersect(probe).empty) == expected

    def test_fast_paths(self):
        a = Region.from_rect(Rect(0, 0, 10, 10))
        assert (a | Region.EMPTY) is a
        assert (Region.EMPTY | a) is a
        assert (a & Region.EMPTY) is Region.EMPTY
        assert (a - Region.EMPTY) is a
        assert (Region.EMPTY - a) is Region.EMPTY
        assert (a | a) is a
        assert (a & a) is a
        assert (a - a) is Region.EMPTY
        far = Region.from_rect(Rect(100, 100, 5, 5))
        assert (a & far) is Region.EMPTY
        assert (a - far) is a


def probe_boxes(rng, region, count=12):
    """Boxes placed against *region*'s own bands: fully inside a band,
    fully outside the extents, straddling a band edge, touching a wall
    from either side, covering everything, plus random ones (negative
    coordinates and empty boxes included)."""
    boxes = []
    for y1, y2, walls in region.bands:
        x1, x2 = walls[0], walls[1]
        if x2 - x1 > 2 and y2 - y1 > 2:
            boxes.append(Rect(x1 + 1, y1 + 1, x2 - x1 - 2, y2 - y1 - 2))
        boxes.append(Rect(x1 - 3, y2 - 1, x2 - x1 + 6, 3))    # band edge
        boxes.append(Rect(x1 - 4, y1, 4, y2 - y1))            # touches x1
        boxes.append(Rect(walls[-1], y1 - 2, 5, y2 - y1 + 4))  # touches x2
        boxes.append(Rect(x1, y2, x2 - x1, 3))                # touches y2
    extents = region.extents()
    if extents is not None:
        boxes.append(Rect(extents.x2 + 1, extents.y, 4, 4))   # outside
        boxes.append(Rect(extents.x - 5, extents.y - 5,
                          extents.width + 10, extents.height + 10))
    boxes += rect_soup(rng, count)
    boxes.append(Rect(-40, -40, 15, 12))
    boxes.append(Rect(rng.randint(-30, 60), rng.randint(-30, 60), 0, 7))
    return boxes


class TestRectangleOperands:
    """A rectangle operand gives the same canonical bands as the general
    region x region sweep and as the pixel oracle, in both operand
    orders of intersect."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rect_operand_matches_sweep_and_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            soup = rect_soup(rng, rng.randint(0, 6))
            a = Region.union_all(soup)
            cells = pixels(soup)
            for box in probe_boxes(rng, a):
                b = Region.from_rect(box).bands
                box_cells = pixels([box])
                inter = a.intersect(box)
                assert inter.bands == _combine(a.bands, b, _INTERSECT)
                assert region_pixels(inter) == cells & box_cells
                swapped = Region.from_rect(box).intersect(a)
                assert swapped.bands == inter.bands
                diff = a.subtract(box)
                assert diff.bands == _combine(a.bands, b, _SUBTRACT)
                assert region_pixels(diff) == cells - box_cells
                reverse = Region.from_rect(box).subtract(a)
                assert reverse.bands == _combine(b, a.bands, _SUBTRACT)
                assert region_pixels(reverse) == box_cells - cells
                corners = (box.x, box.y, box.x2, box.y2)
                assert a.intersect_box(*corners) == inter
                assert a.subtract_box(*corners) == diff
                for derived in (inter, swapped, diff, reverse):
                    assert_canonical(derived)
