"""The text object: a static (or WM-updated) string display."""

from __future__ import annotations

from typing import Optional

from ...xserver.geometry import Size
from .base import SwmObject


class TextObject(SwmObject):
    type_name = "text"

    def __init__(self, ctx, name: str):
        super().__init__(ctx, name)
        self._text_override: Optional[str] = None

    @property
    def text(self) -> str:
        if self._text_override is not None:
            return self._text_override
        return self.attr_string("label", self.name)

    def set_text(self, text: str) -> None:
        self._text_override = text
        self.content_changed()

    def measure(self) -> Size:
        pad = self.padding
        width, height = self.font.text_extents(self.text)
        return Size(width + 2 * pad, height + 2 * pad)

    def display_label(self) -> Optional[str]:
        return self.text
