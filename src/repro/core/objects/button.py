"""The button object (§4.2).

A button contains either text or a bitmap image, and is unique in that
both its appearance and its bindings can be changed dynamically through
window-manager functions — decorations can reflect client state.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ...xserver.bitmap import Bitmap, lookup_bitmap
from ...xserver.geometry import Size
from .base import SwmObject

if TYPE_CHECKING:  # pragma: no cover
    from ...xserver.client import ClientConnection


class Button(SwmObject):
    type_name = "button"

    def __init__(self, ctx, name: str):
        super().__init__(ctx, name)
        self._image_override: Optional[Bitmap] = None
        self._label_override: Optional[str] = None

    # -- content ------------------------------------------------------------

    @property
    def image(self) -> Optional[Bitmap]:
        """The bitmap displayed in the button, if any."""
        if self._image_override is not None:
            return self._image_override
        return self.ctx.get_bitmap(self.path, "image")

    @property
    def label(self) -> str:
        if self._label_override is not None:
            return self._label_override
        return self.attr_string("label", self.name)

    def set_image(self, image) -> None:
        """Dynamically change the button's appearance (§4.2); accepts a
        Bitmap or a stock-bitmap name."""
        if isinstance(image, str):
            image = lookup_bitmap(image)
        self._image_override = image
        self.content_changed()

    def set_label(self, label: str) -> None:
        self._label_override = label
        self.content_changed()

    def clear_overrides(self) -> None:
        self._image_override = None
        self._label_override = None
        self.content_changed()

    # -- geometry --------------------------------------------------------------

    def measure(self) -> Size:
        pad = self.padding
        image = self.image
        if image is not None:
            return Size(image.width + 2 * pad, image.height + 2 * pad)
        width, height = self.font.text_extents(self.label)
        return Size(width + 2 * pad + 2, height + 2 * pad)

    def display_label(self) -> Optional[str]:
        if self._label_override is not None:
            return self._label_override
        if self.image is not None:
            return f"[{self.name}]"
        return self.label
