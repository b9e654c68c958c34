"""Uncached references for the window tree's cached reads, and an
oracle that checks every cached read against them.

:func:`manual_origin` sums a window's root origin from its ancestors'
rects; :func:`manual_viewable` walks its ancestors' ``mapped`` bits.
:func:`uncached_clips` recomputes every window's clip in a tree from
scratch; :func:`reference_clip` recomputes one window's, along its
ancestor chain only.  None of them reads anything the server caches:
origins are summed from the ancestors' rects, boxes are rebuilt from
each child's rect and border, and every clip step runs the general band
sweep (`_combine`) on one-rectangle band lists, so the reference never
takes the rectangle paths of `Region` that the cached clips use.

:func:`install_cache_oracle` wraps ``Window.clip_region``,
``Window.position_in_root`` and ``Window.viewable`` with
``monkeypatch`` so that every value they return, to the server or to a
test, is compared with its reference.  Nothing in ``src/`` knows about
it, and a run without it pays nothing.
"""

from collections import Counter

from repro.xserver.geometry import Rect
from repro.xserver.region import _INTERSECT, _SUBTRACT, Region, _combine
from repro.xserver.window import INPUT_ONLY, Window


def manual_origin(window):
    """Root origin by summing the ancestor chain, bypassing the cache."""
    x, y = window.rect.x, window.rect.y
    for ancestor in window.ancestors():
        x += ancestor.rect.x + ancestor.border_width
        y += ancestor.rect.y + ancestor.border_width
    return x, y


def manual_viewable(window):
    """Mapped, with every ancestor mapped, by walking the chain."""
    return window.mapped and all(
        ancestor.mapped for ancestor in window.ancestors()
    )


def _root_clip(root):
    x, y = manual_origin(root)
    return Region.from_rect(Rect(x, y, root.width, root.height))


def _occluders(parent, siblings):
    """Outer boxes ``(x1, y1, x2, y2)`` in root coordinates of those
    children of *parent* that occlude (mapped, unshaped, INPUT_OUTPUT);
    None for the others."""
    x, y = manual_origin(parent)
    x += parent.border_width
    y += parent.border_width
    boxes = []
    for sibling in siblings:
        if (sibling.mapped and sibling.shape is None
                and sibling.win_class != INPUT_ONLY):
            rect = sibling.rect
            bw = sibling.border_width
            boxes.append((x + rect.x - bw, y + rect.y - bw,
                          x + rect.x + rect.width + bw,
                          y + rect.y + rect.height + bw))
        else:
            boxes.append(None)
    return boxes


def _child_clip(window, parent_clip, boxes_above):
    """*window*'s clip from its parent's and the boxes stacked above."""
    if not window.mapped or parent_clip.empty:
        return Region.EMPTY
    x, y = manual_origin(window)
    right, bottom = x + window.width, y + window.height
    bands = _combine(
        Region.from_rect(Rect(x, y, window.width, window.height)).bands,
        parent_clip.bands, _INTERSECT,
    )
    for box in boxes_above:
        if (box is not None and box[0] < right and x < box[2]
                and box[1] < bottom and y < box[3]):
            x1, y1, x2, y2 = box
            bands = _combine(bands, ((y1, y2, (x1, x2)),), _SUBTRACT)
    return Region(bands)


def uncached_clips(root):
    """Every window's clip region, recomputed top-down from scratch."""
    clips = {root: _root_clip(root)}
    stack = [root]
    while stack:
        parent = stack.pop()
        children = parent.children
        boxes = _occluders(parent, children)
        for i, window in enumerate(children):
            stack.append(window)
            clips[window] = _child_clip(window, clips[parent], boxes[i + 1:])
    return clips


def reference_clip(window):
    """*window*'s clip region, recomputed down its ancestor chain."""
    chain = [window, *window.ancestors()]
    clip = _root_clip(chain.pop())
    for win in reversed(chain):
        siblings = win.parent.children
        above = siblings[siblings.index(win) + 1:]
        clip = _child_clip(win, clip, _occluders(win.parent, above))
    return clip


def install_cache_oracle(monkeypatch):
    """Check every root origin, viewability bit and clip region that
    ``Window.position_in_root``, ``Window.viewable`` and
    ``Window.clip_region`` return against :func:`manual_origin`,
    :func:`manual_viewable` and :func:`reference_clip`.  A mismatch
    fails with the window id, the cached value and the reference.
    Returns a counter of the reads checked so far, by kind (``origin``,
    ``viewable``, ``clip``)."""
    cached_position_in_root = Window.position_in_root
    cached_viewable = Window.viewable.fget
    cached_clip_region = Window.clip_region
    checked = Counter()

    def position_in_root(window):
        origin = cached_position_in_root(window)
        reference = manual_origin(window)
        assert (origin.x, origin.y) == reference, (
            f"stale origin on window {window.id:#x}: cached"
            f" {(origin.x, origin.y)} != reference {reference}"
        )
        checked["origin"] += 1
        return origin

    def viewable(window):
        value = cached_viewable(window)
        reference = manual_viewable(window)
        assert value == reference, (
            f"stale viewable on window {window.id:#x}: cached {value}"
            f" != reference {reference}"
        )
        checked["viewable"] += 1
        return value

    def clip_region(window):
        region = cached_clip_region(window)
        reference = reference_clip(window)
        assert region == reference, (
            f"stale clip on window {window.id:#x}: cached"
            f" {region.rects()} != reference {reference.rects()}"
        )
        checked["clip"] += 1
        return region

    monkeypatch.setattr(Window, "position_in_root", position_in_root)
    monkeypatch.setattr(Window, "viewable", property(viewable))
    monkeypatch.setattr(Window, "clip_region", clip_region)
    return checked
