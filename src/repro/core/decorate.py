"""Decoration construction (§4.1.1, §5.1).

Given a client about to be managed, resolve which decoration panel
applies (specific resource -> non-specific, with ``sticky`` and
``shaped`` markers prepended to the resource path when they apply),
build the panel object tree, and compute the frame layout around the
client window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..toolkit.attributes import AttributeContext
from ..xserver.geometry import Rect, Size
from ..xserver.shape import SHAPE_UNION, ShapeRegion
from .objects import Button, Panel, TextObject, object_factory
from .panel_spec import PanelSpecError, has_client_slot


@dataclass
class DecorationPlan:
    """Everything manage() needs to realize a decoration."""

    panel: Panel
    panel_name: str
    frame_size: Size
    client_rect: Rect  # where the client slot sits within the frame
    resize_corners: bool


def client_context(
    screen_ctx: AttributeContext,
    instance: str,
    class_name: str,
    sticky: bool = False,
    shaped: bool = False,
    transient: bool = False,
) -> AttributeContext:
    """The attribute context for *client-specific* resources.

    Per §3 both WM_CLASS components appear in the resource string
    (``swm.type.screen.class.instance.resource``), and per §5.1/§6.2
    the ``shaped`` / ``sticky`` markers are prepended when they apply
    so users can write ``swm*shaped*decoration: shapeit``.  The same
    mechanism carries a ``transient`` marker for WM_TRANSIENT_FOR
    windows (``swm*transient*decoration: none`` gives dialogs bare
    frames).
    """
    ctx = screen_ctx
    markers: List[str] = []
    if sticky:
        markers.append("sticky")
    if shaped:
        markers.append("shaped")
    if transient:
        markers.append("transient")
    if markers:
        ctx = ctx.extended(markers)
    return ctx.extended(
        [instance, instance], [class_name or "Client", class_name or "Client"]
    )


def decoration_name(client_ctx: AttributeContext) -> Optional[str]:
    """Which decoration panel the resources select for this client."""
    value = client_ctx.get_string([], "decoration")
    if value is None:
        return None
    value = value.strip()
    if not value or value.lower() == "none":
        return None
    return value


def icon_panel_name(client_ctx: AttributeContext) -> Optional[str]:
    """Which icon-appearance panel applies (§4.1.2)."""
    value = client_ctx.get_string([], "iconPanel")
    return value.strip() if value else None


def build_decoration(
    screen_ctx: AttributeContext,
    panel_name: str,
    client_size: Size,
    title: str = "",
) -> DecorationPlan:
    """Build the decoration panel tree and lay it out around a client
    of the given size.

    The ``name`` button/text displays the client's WM_NAME (§4.1.1), so
    its natural size is measured from *title*.
    """
    panel = Panel(screen_ctx, panel_name)
    panel.build(object_factory(screen_ctx))
    if panel.children and not has_client_slot(
        [panel.specs[child.name] for child in panel.children]
    ):
        raise PanelSpecError(
            f"decoration panel {panel_name!r} has no 'client' panel"
        )

    name_object = panel.find("name")
    if isinstance(name_object, (Button, TextObject)) and title:
        if isinstance(name_object, Button):
            name_object.set_label(title)
        else:
            name_object.set_text(title)

    overrides: Dict[str, Size] = {"client": client_size}
    layout = panel.compute_layout(overrides)
    client_rect = layout.rect("client") if "client" in layout.rects else Rect(
        0, 0, client_size.width, client_size.height
    )
    return DecorationPlan(
        panel=panel,
        panel_name=panel_name,
        frame_size=layout.size,
        client_rect=client_rect,
        resize_corners=panel.attr_bool("resizeCorners", False),
    )


def frame_shape_for(
    plan: DecorationPlan, client_shape: Optional[ShapeRegion]
) -> Optional[ShapeRegion]:
    """The frame's SHAPE region when the decoration panel asks to be
    shaped (§5.1): with no explicit mask, the panel is shaped to
    contain its children — here, the shaped client plus any siblings."""
    if not plan.panel.attr_bool("shape", False):
        return None
    if client_shape is None:
        return None
    # Shift the client's shape to the client slot's frame position; a
    # shape set from a bitmap keeps it, so the frame's ShapeMask
    # forwards the client's mask at a shifted offset.
    shifted = client_shape.translated(plan.client_rect.x, plan.client_rect.y)
    others: List[Tuple[int, int, int, int]] = []
    for child in plan.panel.children:
        if child.name == "client":
            continue
        rect = plan.panel.child_rect(child.name)
        others.append((rect.x, rect.y, rect.width, rect.height))
    if not others:
        return shifted
    other_region = ShapeRegion.from_rects(
        plan.frame_size.width, plan.frame_size.height, others
    )
    return other_region.combine(shifted, SHAPE_UNION)
