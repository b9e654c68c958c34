"""Atom interning.

Atoms are small integers naming strings, shared by all clients of a
server.  The predefined atoms below carry the same numeric values as the
X11 core protocol; ICCCM and swm-private atoms are interned on top.
"""

from __future__ import annotations

from typing import Dict, Optional

from .errors import BadAtom

#: Core-protocol predefined atoms (subset relevant to window management).
PREDEFINED = {
    "PRIMARY": 1,
    "SECONDARY": 2,
    "ARC": 3,
    "ATOM": 4,
    "BITMAP": 5,
    "CARDINAL": 6,
    "COLORMAP": 7,
    "CURSOR": 8,
    "CUT_BUFFER0": 9,
    "DRAWABLE": 17,
    "FONT": 18,
    "INTEGER": 19,
    "PIXMAP": 20,
    "POINT": 21,
    "RECTANGLE": 22,
    "RESOURCE_MANAGER": 23,
    "RGB_COLOR_MAP": 24,
    "STRING": 31,
    "VISUALID": 32,
    "WINDOW": 33,
    "WM_COMMAND": 34,
    "WM_HINTS": 35,
    "WM_CLIENT_MACHINE": 36,
    "WM_ICON_NAME": 37,
    "WM_ICON_SIZE": 38,
    "WM_NAME": 39,
    "WM_NORMAL_HINTS": 40,
    "WM_SIZE_HINTS": 41,
    "WM_ZOOM_HINTS": 42,
    "WM_CLASS": 67,
    "WM_TRANSIENT_FOR": 68,
}

LAST_PREDEFINED = 68


class AtomTable:
    """Server-wide atom registry."""

    def __init__(self):
        self._by_name: Dict[str, int] = dict(PREDEFINED)
        self._by_id: Dict[int, str] = {v: k for k, v in PREDEFINED.items()}
        self._next = LAST_PREDEFINED + 1

    def intern(self, name: str, only_if_exists: bool = False) -> Optional[int]:
        """InternAtom: return the atom for *name*, creating it if allowed."""
        if not name:
            raise BadAtom(name, "empty atom name")
        atom = self._by_name.get(name)
        if atom is not None:
            return atom
        if only_if_exists:
            return None
        atom = self._next
        self._next += 1
        self._by_name[name] = atom
        self._by_id[atom] = name
        return atom

    def name(self, atom: int) -> str:
        """GetAtomName: the string for *atom*."""
        try:
            return self._by_id[atom]
        except KeyError:
            raise BadAtom(atom) from None

    def exists(self, atom: int) -> bool:
        try:
            return atom in self._by_id
        except TypeError:  # unhashable, as a peer may send: no atom
            return False

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_id)
