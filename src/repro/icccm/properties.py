"""ICCCM property accessors.

Typed getters/setters over the raw property machinery for the client
properties a window manager consumes (WM_NAME, WM_CLASS, WM_COMMAND,
WM_CLIENT_MACHINE, WM_NORMAL_HINTS, WM_HINTS, WM_TRANSIENT_FOR) and the
WM-owned WM_STATE.

WM_COMMAND encoding: the ICCCM stores the argv as NUL-terminated
strings concatenated; we encode/decode that exactly, since swm's session
manager (§7) restarts clients from the literal WM_COMMAND string.
"""

from __future__ import annotations

import shlex
from typing import List, Optional, Sequence, Tuple

from ..xserver.client import ClientConnection
from ..xserver.properties import Property
from .hints import SizeHints, WMHints, WMState


# -- client-side setters ------------------------------------------------------


def set_wm_name(conn: ClientConnection, wid: int, name: str) -> None:
    conn.set_string_property(wid, "WM_NAME", name)


def set_wm_icon_name(conn: ClientConnection, wid: int, name: str) -> None:
    conn.set_string_property(wid, "WM_ICON_NAME", name)


def set_wm_class(
    conn: ClientConnection, wid: int, instance: str, class_name: str
) -> None:
    conn.change_property(
        wid, "WM_CLASS", "STRING", 8, f"{instance}\0{class_name}\0"
    )


def set_wm_command(conn: ClientConnection, wid: int, argv: Sequence[str]) -> None:
    encoded = "".join(arg + "\0" for arg in argv)
    conn.change_property(wid, "WM_COMMAND", "STRING", 8, encoded)


def set_wm_client_machine(conn: ClientConnection, wid: int, host: str) -> None:
    conn.set_string_property(wid, "WM_CLIENT_MACHINE", host)


def set_wm_normal_hints(conn: ClientConnection, wid: int, hints: SizeHints) -> None:
    conn.change_property(
        wid, "WM_NORMAL_HINTS", "WM_SIZE_HINTS", 32, hints.encode()
    )


def set_wm_hints(conn: ClientConnection, wid: int, hints: WMHints) -> None:
    conn.change_property(wid, "WM_HINTS", "WM_HINTS", 32, hints.encode())


def set_wm_transient_for(conn: ClientConnection, wid: int, leader: int) -> None:
    conn.change_property(wid, "WM_TRANSIENT_FOR", "WINDOW", 32, [leader])


def set_wm_protocols(
    conn: ClientConnection, wid: int, protocols: Sequence[str]
) -> None:
    atoms = [conn.intern_atom(name) for name in protocols]
    conn.change_property(wid, "WM_PROTOCOLS", "ATOM", 32, atoms)


# -- WM-side getters -------------------------------------------------------------


def get_wm_name(conn: ClientConnection, wid: int) -> Optional[str]:
    return conn.get_string_property(wid, "WM_NAME")


def get_wm_icon_name(conn: ClientConnection, wid: int) -> Optional[str]:
    return conn.get_string_property(wid, "WM_ICON_NAME")


def get_wm_class(conn: ClientConnection, wid: int) -> Optional[Tuple[str, str]]:
    prop = conn.get_property(wid, "WM_CLASS")
    if prop is None or prop.format != 8:
        return None
    parts = prop.as_strings()
    if len(parts) < 2:
        return None
    return parts[0], parts[1]


def get_wm_command(conn: ClientConnection, wid: int) -> Optional[List[str]]:
    prop = conn.get_property(wid, "WM_COMMAND")
    if prop is None or prop.format != 8:
        return None
    return prop.as_strings()


def get_wm_command_string(conn: ClientConnection, wid: int) -> Optional[str]:
    """The command as a shell string, quoting arguments that need it."""
    prop = conn.get_property(wid, "WM_COMMAND")
    return command_string(prop) if prop is not None else None


def command_string(prop: Property) -> Optional[str]:
    """A WM_COMMAND property as a shell string."""
    if prop.format != 8:
        return None
    return " ".join(shlex.quote(arg) for arg in prop.as_strings())


def get_wm_client_machine(conn: ClientConnection, wid: int) -> Optional[str]:
    return conn.get_string_property(wid, "WM_CLIENT_MACHINE")


def get_wm_normal_hints(conn: ClientConnection, wid: int) -> Optional[SizeHints]:
    prop = conn.get_property(wid, "WM_NORMAL_HINTS")
    if prop is None or prop.format != 32:
        return None
    return SizeHints.decode(prop.data)


def get_wm_hints(conn: ClientConnection, wid: int) -> Optional[WMHints]:
    prop = conn.get_property(wid, "WM_HINTS")
    if prop is None or prop.format != 32:
        return None
    return WMHints.decode(prop.data)


def get_wm_transient_for(conn: ClientConnection, wid: int) -> Optional[int]:
    prop = conn.get_property(wid, "WM_TRANSIENT_FOR")
    if prop is None or prop.format != 32 or not prop.data:
        return None
    return prop.data[0]


def get_wm_protocols(conn: ClientConnection, wid: int) -> List[str]:
    prop = conn.get_property(wid, "WM_PROTOCOLS")
    if prop is None or prop.format != 32:
        return []
    return [conn.get_atom_name(atom) for atom in prop.data]


# -- WM_STATE (owned by the window manager) ------------------------------------------


def set_wm_state(conn: ClientConnection, wid: int, state: WMState) -> None:
    conn.change_property(wid, "WM_STATE", "WM_STATE", 32, state.encode())


def get_wm_state(conn: ClientConnection, wid: int) -> Optional[WMState]:
    prop = conn.get_property(wid, "WM_STATE")
    if prop is None or prop.format != 32:
        return None
    return WMState.decode(prop.data)
