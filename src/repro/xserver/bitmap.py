"""Bitmaps and the XBM file format.

swm uses bitmaps for button images, icon images, and SHAPE masks; the
X11 distribution ships them as XBM C source (``xlogo32`` et al.).  The
simulator stores a bitmap as rows of booleans and can parse/emit real
XBM text, so template files referencing bitmap names behave as on a real
system.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Sequence


class Bitmap:
    """A 1-bit-deep image."""

    def __init__(self, width: int, height: int, rows: Sequence[Sequence[bool]]):
        if len(rows) != height or any(len(row) != width for row in rows):
            raise ValueError("bitmap rows do not match declared size")
        self.width = width
        self.height = height
        self.rows: List[List[bool]] = [list(row) for row in rows]

    # -- constructors -----------------------------------------------------

    @classmethod
    def solid(cls, width: int, height: int, value: bool = True) -> "Bitmap":
        return cls(width, height, [[value] * width for _ in range(height)])

    @classmethod
    def from_strings(cls, art: Sequence[str], on: str = "#") -> "Bitmap":
        """Build from ASCII art: *on* characters are set bits."""
        if not art:
            raise ValueError("empty bitmap art")
        width = max(len(line) for line in art)
        rows = [
            [col < len(line) and line[col] == on for col in range(width)]
            for line in art
        ]
        return cls(width, len(art), rows)

    @classmethod
    def disc(cls, diameter: int) -> "Bitmap":
        """A filled circle — the classic oclock SHAPE mask.

        Pixel (x, y) is set when ``(x - c)**2 + (y - c)**2 <= r**2``
        (``r = diameter / 2``, ``c = r - 0.5``).  That set is one run per
        row, symmetric about the centre, so each row is built from ``lo``,
        its first set x: estimated with a square root, then settled by
        the predicate itself."""
        radius = diameter / 2.0
        centre = radius - 0.5
        r2 = radius * radius
        rows = []
        for y in range(diameter):
            dy2 = (y - centre) ** 2
            lo = max(0, math.ceil(centre - math.sqrt(max(0.0, r2 - dy2))))
            while lo > 0 and (lo - 1 - centre) ** 2 + dy2 <= r2:
                lo -= 1
            while lo < centre and (lo - centre) ** 2 + dy2 > r2:
                lo += 1
            rows.append([False] * lo + [True] * (diameter - 2 * lo)
                        + [False] * lo)
        return cls(diameter, diameter, rows)

    # -- queries -----------------------------------------------------------

    def get(self, x: int, y: int) -> bool:
        if not (0 <= x < self.width and 0 <= y < self.height):
            return False
        return self.rows[y][x]

    def set(self, x: int, y: int, value: bool = True) -> None:
        self.rows[y][x] = value

    def count_set(self) -> int:
        return sum(sum(1 for bit in row if bit) for row in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bitmap)
            and self.width == other.width
            and self.height == other.height
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"<Bitmap {self.width}x{self.height} set={self.count_set()}>"

    # -- XBM ------------------------------------------------------------------

    def to_xbm(self, name: str = "image") -> str:
        """Serialize as XBM C source, LSB-first per the format."""
        bytes_out: List[int] = []
        for row in self.rows:
            for byte_start in range(0, self.width, 8):
                value = 0
                for bit in range(8):
                    x = byte_start + bit
                    if x < self.width and row[x]:
                        value |= 1 << bit
                bytes_out.append(value)
        hex_bytes = ", ".join(f"0x{b:02x}" for b in bytes_out)
        return (
            f"#define {name}_width {self.width}\n"
            f"#define {name}_height {self.height}\n"
            f"static unsigned char {name}_bits[] = {{\n   {hex_bytes}}};\n"
        )

    @classmethod
    def from_xbm(cls, text: str) -> "Bitmap":
        """Parse XBM C source."""
        width_match = re.search(r"#define\s+\w*_?width\s+(\d+)", text)
        height_match = re.search(r"#define\s+\w*_?height\s+(\d+)", text)
        if not width_match or not height_match:
            raise ValueError("XBM missing width/height defines")
        width = int(width_match.group(1))
        height = int(height_match.group(1))
        data = [int(tok, 16) for tok in re.findall(r"0[xX][0-9a-fA-F]+", text)]
        bytes_per_row = (width + 7) // 8
        if len(data) < bytes_per_row * height:
            raise ValueError("XBM data shorter than declared size")
        rows: List[List[bool]] = []
        for row_index in range(height):
            row: List[bool] = []
            base = row_index * bytes_per_row
            for x in range(width):
                byte = data[base + x // 8]
                row.append(bool(byte & (1 << (x % 8))))
            rows.append(row)
        return cls(width, height, rows)


def _make_xlogo(size: int) -> Bitmap:
    """The X logo: two mirrored diagonal strokes, as in xlogo*."""
    bitmap = Bitmap.solid(size, size, False)
    stroke = max(2, size // 5)
    for y in range(size):
        # Left-leaning stroke of the X (top-left to bottom-right).
        start = int(y * (size - stroke) / (size - 1))
        for x in range(start, min(size, start + stroke)):
            bitmap.set(x, y, True)
        # Right-leaning thinner stroke (top-right to bottom-left).
        thin = max(1, stroke // 2)
        start = int((size - 1 - y) * (size - thin) / (size - 1))
        for x in range(start, min(size, start + thin)):
            bitmap.set(x, y, True)
    return bitmap


#: The stock bitmaps the templates reference by name, as the X11
#: distribution's /usr/include/X11/bitmaps does.
_STOCK: Dict[str, Bitmap] = {}


def register_bitmap(name: str, bitmap: Bitmap) -> None:
    _STOCK[name] = bitmap


def lookup_bitmap(name: str) -> Bitmap:
    """Find a stock bitmap by file name (BadName-like KeyError if absent)."""
    return _STOCK[name]


def stock_bitmap_names() -> List[str]:
    return sorted(_STOCK)


register_bitmap("xlogo32", _make_xlogo(32))
register_bitmap("xlogo16", _make_xlogo(16))
register_bitmap("xlogo64", _make_xlogo(64))

register_bitmap(
    "mailfull",
    Bitmap.from_strings(
        [
            "################",
            "#..............#",
            "#.#..........#.#",
            "#..##......##..#",
            "#....##..##....#",
            "#......##......#",
            "#..............#",
            "################",
        ]
    ),
)

register_bitmap(
    "mailempty",
    Bitmap.from_strings(
        [
            "################",
            "#..............#",
            "#..............#",
            "#..............#",
            "#..............#",
            "#..............#",
            "#..............#",
            "################",
        ]
    ),
)

register_bitmap(
    "menu12",
    Bitmap.from_strings(
        [
            "############",
            "#..........#",
            "############",
            "#..........#",
            "############",
        ]
    ),
)

register_bitmap(
    "pushpin",
    Bitmap.from_strings(
        [
            "....##....",
            "....##....",
            "..######..",
            "..######..",
            "....##....",
            "....##....",
            "....##....",
            "....#.....",
        ]
    ),
)

register_bitmap(
    "resize_corner",
    Bitmap.from_strings(
        [
            ".......#",
            "......##",
            ".....###",
            "....####",
            "...#####",
            "..######",
            ".#######",
            "########",
        ]
    ),
)

register_bitmap("gray", Bitmap.from_strings(["#.", ".#"]))
register_bitmap(
    "iconify8",
    Bitmap.from_strings(
        [
            "........",
            "........",
            "........",
            "..####..",
            "..####..",
            "........",
            "........",
            "........",
        ]
    ),
)
register_bitmap(
    "zoom8",
    Bitmap.from_strings(
        [
            "########",
            "#......#",
            "#......#",
            "#......#",
            "#......#",
            "#......#",
            "#......#",
            "########",
        ]
    ),
)
