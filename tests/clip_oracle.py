"""The uncached clip-region reference, and an oracle that checks every
cached clip against it.

:func:`uncached_clips` recomputes every window's clip in a tree from
scratch; :func:`reference_clip` recomputes one window's, along its
ancestor chain only.  Both read nothing the server caches: origins are
summed from the ancestors' rects, boxes are rebuilt from each child's
rect and border, and every step runs the general band sweep
(`_combine`) on one-rectangle band lists, so the reference never takes
the rectangle paths of `Region` that the cached clips use.

:func:`install_clip_oracle` wraps ``Window.clip_region`` with
``monkeypatch`` so that every region it returns, to the server or to a
test, is compared with :func:`reference_clip`.  Nothing in ``src/``
knows about it, and a run without it pays nothing.
"""

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


def install_clip_oracle(monkeypatch):
    """Check every region ``Window.clip_region`` returns against
    :func:`reference_clip`; a mismatch fails with the window id, the
    cached region's rectangles and the reference's.  Returns the list of
    checked window ids, which grows as clips are read."""
    cached_clip_region = Window.clip_region
    checked = []

    def clip_region(window):
        region = cached_clip_region(window)
        reference = reference_clip(window)
        assert region == reference, (
            f"stale clip on window {window.id:#x}: cached"
            f" {region.rects()} != reference {reference.rects()}"
        )
        checked.append(window.id)
        return region

    monkeypatch.setattr(Window, "clip_region", clip_region)
    return checked
