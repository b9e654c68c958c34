"""Bitmaps and the XBM file format.

swm uses bitmaps for button images, icon images, and SHAPE masks; the
X11 distribution ships them as XBM C source (``xlogo32`` et al.).  The
simulator stores a bitmap as rows of bytes, one byte (0 or 1) per
pixel, and can parse/emit real XBM text, so template files referencing
bitmap names behave as on a real system.
"""

from __future__ import annotations

import re
from math import isqrt
from typing import Dict, List, Sequence, Tuple

#: Each byte value to its truth, so a row of any bytes reads as 0/1.
_TRUTH = bytes([0]) + bytes([1]) * 255


class Bitmap:
    """A 1-bit-deep image.  ``rows`` is a tuple of *height* rows, each a
    :class:`bytes` of *width* pixels, 0 or 1: ``bytes.find`` locates
    runs in C.  A bitmap is immutable, so equal rows may be one object,
    and a bitmap handed to the server (a SHAPE mask) may be shared with
    the client that built it.  The constructor takes rows of any truth
    values."""

    def __init__(self, width: int, height: int, rows: Sequence[Sequence[int]]):
        if len(rows) != height or any(len(row) != width for row in rows):
            raise ValueError("bitmap rows do not match declared size")
        self.width = width
        self.height = height
        self.rows: Tuple[bytes, ...] = tuple(
            bytes(row).translate(_TRUTH)
            if isinstance(row, (bytes, bytearray)) else bytes(map(bool, row))
            for row in rows
        )

    @classmethod
    def _of_rows(
        cls, width: int, height: int, rows: Tuple[bytes, ...]
    ) -> "Bitmap":
        """Adopt *rows*, already *height* byte rows of *width* 0/1
        pixels, without checking or copying them."""
        bitmap = cls.__new__(cls)
        bitmap.width = width
        bitmap.height = height
        bitmap.rows = rows
        return bitmap

    # -- constructors -----------------------------------------------------

    @classmethod
    def solid(cls, width: int, height: int, value: bool = True) -> "Bitmap":
        return cls._of_rows(width, height,
                            ((b"\1" if value else b"\0") * width,) * height)

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
        (``r = diameter / 2``, ``c = r - 0.5``); times four, that is
        ``(2x - d + 1)**2 + (2y - d + 1)**2 <= d**2`` for ``d =
        diameter``, all integers.  The set is one run per row, symmetric
        about the centre, so each row is built from ``lo``, its first
        set x, exactly: ``(d - isqrt(d**2 - (2y - d + 1)**2)) // 2``."""
        if diameter < 0:
            raise ValueError("negative disc diameter")
        d = diameter
        rows = []
        for y in range(d):
            lo = (d - isqrt(d * d - (2 * y - d + 1) ** 2)) // 2
            rows.append(b"\0" * lo + b"\1" * (d - 2 * lo) + b"\0" * lo)
        return cls._of_rows(d, d, tuple(rows))

    # -- queries -----------------------------------------------------------

    def get(self, x: int, y: int) -> bool:
        if not (0 <= x < self.width and 0 <= y < self.height):
            return False
        return self.rows[y][x] == 1

    def count_set(self) -> int:
        return sum(row.count(1) for row in self.rows)

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
    rows = []
    stroke = max(2, size // 5)
    for y in range(size):
        row = bytearray(size)
        # Left-leaning stroke of the X (top-left to bottom-right).
        start = int(y * (size - stroke) / (size - 1))
        end = min(size, start + stroke)
        row[start:end] = b"\1" * (end - start)
        # Right-leaning thinner stroke (top-right to bottom-left).
        thin = max(1, stroke // 2)
        start = int((size - 1 - y) * (size - thin) / (size - 1))
        end = min(size, start + thin)
        row[start:end] = b"\1" * (end - start)
        rows.append(row)
    return Bitmap(size, size, rows)


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
