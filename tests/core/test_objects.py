"""The four swm object types."""

import pytest

from repro.core.objects import (
    Button,
    Menu,
    MenuParseError,
    Panel,
    SwmObject,
    TextObject,
    make_object,
    object_factory,
    parse_menu_spec,
)
from repro.core.panel_spec import PanelSpecError
from repro.toolkit import AttributeContext
from repro.xrm import ResourceDatabase
from repro.xserver import ClientConnection, XServer
from repro.xserver.geometry import Rect


@pytest.fixture
def db():
    db = ResourceDatabase()
    db.load_string(
        """
swm*font: 8x13
swm*button.ok.label: OK
swm*button.ok.bindings: <Btn1> : f.raise
swm*button.close.image: xlogo16
swm*text.title.label: Hello World
swm*panel.titlebar: button ok +0+0 text title +C+0
swm*panel.nested: panel titlebar +0+0 button extra +0+1
swm*panel.loop: panel loop +0+0
swm*menu.ops: Raise=f.raise; Zoom=f.save f.zoom
swm*button.ok.padding: 3
"""
    )
    return db


@pytest.fixture
def ctx(db):
    return AttributeContext(db, ["swm", "color", "screen0"],
                            ["Swm", "Color", "Screen"])


class TestFactory:
    def test_make_each_type(self, ctx):
        assert isinstance(make_object(ctx, "panel", "p"), Panel)
        assert isinstance(make_object(ctx, "button", "b"), Button)
        assert isinstance(make_object(ctx, "text", "t"), TextObject)
        assert isinstance(make_object(ctx, "menu", "m"), Menu)

    def test_unknown_type(self, ctx):
        with pytest.raises(ValueError):
            make_object(ctx, "widget", "w")

    def test_generic_attribute_interface(self, ctx):
        """OI-style: every object answers the same attribute queries."""
        for obj_type in ("panel", "button", "text", "menu"):
            obj = make_object(ctx, obj_type, "generic")
            assert obj.background is not None
            assert obj.font.char_width > 0
            assert isinstance(obj.cursor, str)
            assert obj.bindings == []


class TestButton:
    def test_label_from_resources(self, ctx):
        button = Button(ctx, "ok")
        assert button.label == "OK"

    def test_label_defaults_to_name(self, ctx):
        assert Button(ctx, "quit").label == "quit"

    def test_text_size(self, ctx):
        button = Button(ctx, "ok")
        size = button.natural_size()
        # "OK" at 8px/char + 2*padding(3) + 2.
        assert size.width == 2 * 8 + 6 + 2

    def test_image_size(self, ctx):
        button = Button(ctx, "close")
        size = button.natural_size()
        assert size.width == 16 + 2 * button.padding

    def test_dynamic_image_change(self, ctx):
        """§4.2: buttons change appearance dynamically."""
        button = Button(ctx, "ok")
        assert button.image is None
        button.set_image("xlogo32")
        assert button.image.width == 32
        button.clear_overrides()
        assert button.image is None

    def test_dynamic_label(self, ctx):
        button = Button(ctx, "ok")
        button.set_label("Changed")
        assert button.label == "Changed"

    def test_bindings_parsed(self, ctx):
        button = Button(ctx, "ok")
        assert button.bindings[0].functions[0].name == "raise"

    def test_dynamic_bindings_change(self, ctx):
        """§4.4: bindings can be changed at run time."""
        button = Button(ctx, "ok")
        button.set_bindings("<Btn1> : f.lower")
        assert button.bindings[0].functions[0].name == "lower"
        button.clear_binding_override()
        assert button.bindings[0].functions[0].name == "raise"


class TestText:
    def test_text_from_resources(self, ctx):
        text = TextObject(ctx, "title")
        assert text.text == "Hello World"

    def test_set_text(self, ctx):
        text = TextObject(ctx, "title")
        text.set_text("other")
        assert text.display_label() == "other"


class TestPanel:
    def test_build_from_definition(self, ctx):
        panel = Panel(ctx, "titlebar")
        panel.build(object_factory(ctx))
        assert [c.name for c in panel.children] == ["ok", "title"]

    def test_nested_panels(self, ctx):
        panel = Panel(ctx, "nested")
        panel.build(object_factory(ctx))
        inner = panel.children[0]
        assert isinstance(inner, Panel)
        assert [c.name for c in inner.children] == ["ok", "title"]

    def test_self_nesting_capped(self, ctx):
        panel = Panel(ctx, "loop")
        with pytest.raises(PanelSpecError):
            panel.build(object_factory(ctx))

    def test_layout_and_find(self, ctx):
        panel = Panel(ctx, "titlebar")
        panel.build(object_factory(ctx))
        layout = panel.compute_layout()
        assert layout.size.width > 0
        assert panel.find("title") is not None
        assert panel.find("missing") is None

    def test_undefined_panel_is_bare(self, ctx):
        panel = Panel(ctx, "nonexistent")
        panel.build(object_factory(ctx))
        assert panel.children == []

    def test_realize_tree(self, ctx):
        server = XServer(screens=[(500, 500, 8)])
        conn = ClientConnection(server)
        panel = Panel(ctx, "titlebar")
        panel.build(object_factory(ctx))
        layout = panel.compute_layout()
        window = panel.realize_tree(
            conn, conn.root_window(),
            Rect(10, 10, layout.size.width, layout.size.height),
        )
        assert conn.window_exists(window)
        # The caller maps the finished tree; everything below is mapped.
        assert not server.window(window).mapped
        for child in panel.children:
            assert conn.window_exists(child.window)
            assert server.window(child.window).mapped
            _, parent, _ = conn.query_tree(child.window)
            assert parent == window


class TestMenu:
    def test_parse_menu_spec(self):
        items = parse_menu_spec("Raise=f.raise; Zoom=f.save f.zoom")
        assert [i.label for i in items] == ["Raise", "Zoom"]
        assert [f.name for f in items[1].functions] == ["save", "zoom"]

    def test_menu_from_resources(self, ctx):
        menu = Menu(ctx, "ops")
        assert len(menu.items) == 2

    def test_undefined_menu(self, ctx):
        menu = Menu(ctx, "ghost")
        with pytest.raises(MenuParseError):
            menu.items

    def test_bad_item(self):
        with pytest.raises(MenuParseError):
            parse_menu_spec("no-equals-here")

    def test_empty_menu(self):
        with pytest.raises(MenuParseError):
            parse_menu_spec(" ; ; ")

    def test_missing_label(self):
        with pytest.raises(MenuParseError):
            parse_menu_spec("=f.raise")

    def test_popup_and_popdown(self, ctx):
        server = XServer(screens=[(500, 500, 8)])
        conn = ClientConnection(server)
        menu = Menu(ctx, "ops")
        window = menu.popup(conn, conn.root_window(), 100, 100)
        assert conn.window_exists(window)
        assert len(menu.item_windows) == 2
        assert menu.item_at(menu.item_windows[1]).label == "Zoom"
        assert menu.item_at(999) is None
        menu.popdown(conn)
        assert not conn.window_exists(window)

    def test_natural_size_covers_items(self, ctx):
        menu = Menu(ctx, "ops")
        size = menu.natural_size()
        assert size.height >= 2 * menu.item_height()


class TestObjectShapeMasks:
    def test_shape_mask_attribute_shapes_window(self, ctx, db):
        """§5.1: per-object shape masks from a bitmap attribute."""
        db.put("swm*button.pin.shapeMask", "pushpin")
        server = XServer(screens=[(500, 500, 8)])
        conn = ClientConnection(server)
        from repro.core.objects import Button

        button = Button(ctx, "pin")
        from repro.xserver.geometry import Rect

        button.realize(conn, conn.root_window(), Rect(10, 10, 20, 20))
        assert conn.window_is_shaped(button.window)

    def test_no_shape_by_default(self, ctx):
        server = XServer(screens=[(500, 500, 8)])
        conn = ClientConnection(server)
        from repro.core.objects import Button
        from repro.xserver.geometry import Rect

        button = Button(ctx, "plain")
        button.realize(conn, conn.root_window(), Rect(10, 10, 20, 20))
        assert not conn.window_is_shaped(button.window)
