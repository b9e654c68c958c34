"""The server-side window object and window tree.

Windows form a tree rooted at each screen's root window.  Children are
kept bottom-to-top, as in the X protocol's stacking order.  Each client
selects its own event mask on each window; masks live here, delivery
logic lives in the server.

Hot-path caching
----------------

Every pointer event the server synthesises walks this tree: root-origin
accumulation (`position_in_root`), viewability checks, event-interest
lookups, and top-down hit testing; every Expose reads a clip region.
The caches behind them keep their counters per tree
(:class:`TreeCaches`):

- **root origins and clip regions** — each window memoises its root
  origin and its visible ("clip") region in root coordinates
  (:meth:`~Window.clip_region`), both under one *key*: the parent's
  child-list stamp they were computed under.  Every window holds a
  child-list stamp, minted anew whenever something its children's
  cached values read changes: a child's ``rect``, ``border_width``,
  ``mapped`` or ``shape``, a child created, destroyed, restacked,
  circulated or reparented in or out, and the window's own origin or
  clip.  A read validates the chain (:meth:`~Window._validate`): it
  walks up while each key matches, and from the first stale window
  down it recomputes the origin, forgets the clip and mints the
  window's own stamp, so every child's key goes stale in turn.  A
  configure therefore re-derives the window, its siblings and their
  subtrees, when read, never its ancestors or cousins, as the X sample
  server's ``miValidateTree`` validates per parent.  A Virtual Desktop
  pan (one configure of a window with hundreds of descendants) mints
  one stamp.  A root has no parent: its key is ``_ROOT_KEY`` while
  valid, and its own geometry change sets it to -1.  Stamps come from
  one process-wide counter, so no two windows share a value.
- **viewability** is not cached.  ``viewable`` walks up ``mapped``
  bits: a hit under the per-parent key would cost the same O(depth)
  walk, and every configure reads it.
- **stacking index** — each parent's :meth:`~Window.stacking_index`:
  top-to-bottom outer boxes of its mapped children, in the parent's own
  interior coordinates, used by the server's hit-test descent and by
  the clip computation.  It reads nothing outside the parent's
  children, so no key validates it: it is dropped only when they
  change — a mapped child's ``rect`` or ``border_width``, any child's
  ``mapped``, or a mapped child added, removed, restacked or reparented
  in or out.  A configure in one toolkit, or a pan of a window above
  it, leaves every other index valid; a hit test translates the point
  once by the parent's root origin.
- **interest caches** — the combined event mask and per-mask listener
  lists are memoised per window and invalidated only by
  :meth:`~Window.select_input` / :meth:`~Window.drop_client`.

Every walk here is iterative: a client can nest windows deeper than
the Python recursion limit within its window quota.

Mutation goes through property setters (``rect``, ``border_width``,
``mapped``, ``shape``) and the tree methods (:meth:`~Window.reparent`,
:meth:`~Window.detach`, :meth:`~Window.restack`), so any change — the
server's or a test's — invalidates correctly; there is no way to move a
window without minting a stamp.  Cache hit/miss/invalidation
counters accumulate on the :class:`TreeCaches` and surface through
``server.stats()``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from .errors import BadMatch, BadValue
from .event_mask import EventMask
from .events import ABOVE, BELOW, BOTTOM_IF, OPPOSITE, TOP_IF
from .geometry import Point, Rect
from .region import Region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .shape import ShapeRegion

# Window classes.
COPY_FROM_PARENT = 0
INPUT_OUTPUT = 1
INPUT_ONLY = 2

# Map states, as returned by GetWindowAttributes.
IS_UNMAPPED = 0
IS_UNVIEWABLE = 1
IS_VIEWABLE = 2

# Window gravity values (subset; the WM cares about NorthWest + Unmap).
UNMAP_GRAVITY = 0
NORTHWEST_GRAVITY = 1
STATIC_GRAVITY = 10

#: An outer box ``(x1, y1, x2, y2)``, half-open, border included.
Box = Tuple[int, int, int, int]

#: Mints every child-list stamp.  One counter for the process, so no two
#: windows, in one tree or in two, share a value.
_next_stamp = itertools.count(1).__next__

#: The key of a valid root (a root has no parent stamp; every minted
#: stamp is positive).
_ROOT_KEY = 0


class TreeCaches:
    """Cache counters for one window tree, created by each root window
    and shared by every descendant.  ``geometry`` counts the windows
    :meth:`Window._validate` found valid (hits) or re-derived (misses),
    and geometry changes (invalidations)."""

    __slots__ = (
        "geometry_hits",
        "geometry_misses",
        "geometry_invalidations",
        "index_hits",
        "index_misses",
        "stacking_invalidations",
        "interest_hits",
        "interest_misses",
        "interest_invalidations",
        "region_hits",
        "region_misses",
        "region_invalidations",
    )

    def __init__(self) -> None:
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero the hit/miss/invalidation counters."""
        self.geometry_hits = 0
        self.geometry_misses = 0
        self.geometry_invalidations = 0
        self.index_hits = 0
        self.index_misses = 0
        self.stacking_invalidations = 0
        self.interest_hits = 0
        self.interest_misses = 0
        self.interest_invalidations = 0
        self.region_hits = 0
        self.region_misses = 0
        self.region_invalidations = 0

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/invalidation counts per cache family."""
        return {
            "geometry": {
                "hits": self.geometry_hits,
                "misses": self.geometry_misses,
                "invalidations": self.geometry_invalidations,
            },
            "stacking_index": {
                "hits": self.index_hits,
                "misses": self.index_misses,
                "invalidations": self.stacking_invalidations,
            },
            "interest": {
                "hits": self.interest_hits,
                "misses": self.interest_misses,
                "invalidations": self.interest_invalidations,
            },
            "region": {
                "hits": self.region_hits,
                "misses": self.region_misses,
                "invalidations": self.region_invalidations,
            },
        }


class Window:
    """One window in the simulated server.

    The WM never touches these directly; clients operate through
    :class:`~repro.xserver.client.ClientConnection`, which mediates all
    mutation through the server so redirect/notify semantics hold.
    """

    def __init__(
        self,
        wid: int,
        parent: Optional["Window"],
        rect: Rect,
        border_width: int = 0,
        win_class: int = INPUT_OUTPUT,
        override_redirect: bool = False,
        owner: Optional[int] = None,
    ):
        self.id = wid
        self.caches = parent.caches if parent is not None else TreeCaches()
        self._parent = parent
        self._rect = rect
        self._border_width = border_width
        self.win_class = win_class
        self.override_redirect = override_redirect
        self.win_gravity = NORTHWEST_GRAVITY
        self.owner = owner  # client id that created the window
        self._mapped = False
        self.destroyed = False
        self.children: List[Window] = []  # bottom-to-top
        from .properties import PropertyMap  # local import to avoid cycle

        self.properties = PropertyMap()
        self.event_masks: Dict[int, EventMask] = {}
        self.do_not_propagate_mask = EventMask.NoEvent
        self.background: Optional[str] = None
        self.cursor: Optional[str] = None
        self._shape: Optional["ShapeRegion"] = None
        self._index: Optional[List[Tuple["Window", Box]]] = None
        # Minted anew whenever something a child's cached values read
        # changes, this window's own origin and clip included.
        self._child_stamp = _next_stamp()
        # The parent's stamp the origin and clip were computed under
        # (-1: never), and the clip (None: not computed under this key).
        self._key = -1
        self._origin = Point(0, 0)
        self._clip: Optional[Region] = None
        self._all_masks: Optional[EventMask] = None
        self._selecting: Dict[EventMask, List[int]] = {}
        if parent is not None:
            parent.children.append(self)
            parent._child_changed(self)

    # -- identity & tree -------------------------------------------------

    def __repr__(self) -> str:
        return f"<Window {self.id:#x} {self._rect} mapped={self._mapped}>"

    @property
    def is_root(self) -> bool:
        return self._parent is None

    @property
    def parent(self) -> Optional["Window"]:
        return self._parent

    def reparent(self, new_parent: "Window") -> None:
        """Move this window to the top of *new_parent*'s children; the
        caller positions it."""
        old_parent = self._parent
        old_parent.children.remove(self)
        old_parent._child_changed(self)
        self._parent = new_parent
        new_parent.children.append(self)
        self._invalidate_geometry()

    def detach(self) -> None:
        """Unlink a destroyed window from its parent's children."""
        parent = self._parent
        if parent is not None and self in parent.children:
            parent.children.remove(self)
            parent._child_changed(self)

    def root(self) -> "Window":
        win = self
        while win._parent is not None:
            win = win._parent
        return win

    def ancestors(self) -> Iterator["Window"]:
        """The chain of ancestors, nearest first (excluding self)."""
        win = self._parent
        while win is not None:
            yield win
            win = win._parent

    def is_ancestor_of(self, other: "Window") -> bool:
        return any(anc is self for anc in other.ancestors())

    # -- cache invalidation ------------------------------------------------

    def _invalidate_geometry(self) -> None:
        """This window's box or place in the tree changed: restamp the
        parent, or, on a root, drop its own key (every cached value in
        the tree is derived from the root's)."""
        caches = self.caches
        caches.geometry_invalidations += 1
        parent = self._parent
        if parent is None:
            self._key = -1
            caches.region_invalidations += 1
        else:
            parent._child_changed(self)

    def _child_changed(self, child: "Window") -> None:
        """*child*'s box changed, or it was added to, removed from or
        moved within this window's children: every child's cached
        values may read that, the stacking index only if *child* is
        mapped."""
        self._restamp()
        if child._mapped:
            self._drop_index()

    def _restamp(self) -> None:
        """Mint a new child-list stamp: every child's key is stale."""
        self._child_stamp = _next_stamp()
        self.caches.region_invalidations += 1

    def _validate(self) -> None:
        """Make the root origin of every window from the root down to
        this one valid under its parent's current stamp.

        Walks up while each key matches; from the first stale window
        down it recomputes the origin, forgets the clip and mints the
        window's own stamp, which makes the next window's key stale in
        turn.  Each window on the way counts one geometry hit or
        miss."""
        node = self
        parent = node._parent
        depth = 1
        while parent is not None and node._key == parent._child_stamp:
            node = parent
            parent = node._parent
            depth += 1
        caches = self.caches
        if parent is None and node._key == _ROOT_KEY:
            caches.geometry_hits += depth
            return
        chain: List[Window] = []
        node = self
        while node._parent is not None:
            chain.append(node)
            node = node._parent
        if node._key == _ROOT_KEY:
            hits, misses = 1, 0
        else:
            hits, misses = 0, 1
            rect = node._rect
            node._origin = Point(rect.x, rect.y)
            node._key = _ROOT_KEY
            node._clip = None
            node._child_stamp = _next_stamp()
        parent = node
        for win in reversed(chain):
            stamp = parent._child_stamp
            if win._key == stamp:
                hits += 1
            else:
                misses += 1
                origin = parent._origin
                bw = parent._border_width
                rect = win._rect
                win._origin = Point(
                    origin.x + bw + rect.x, origin.y + bw + rect.y
                )
                win._key = stamp
                win._clip = None
                win._child_stamp = _next_stamp()
            parent = win
        caches.geometry_hits += hits
        caches.geometry_misses += misses

    def _drop_index(self) -> None:
        if self._index is not None:
            self._index = None
            self.caches.stacking_invalidations += 1

    # -- geometry ---------------------------------------------------------

    @property
    def shape(self) -> Optional["ShapeRegion"]:
        """The bounding shape (None = rectangular).  Siblings' clip
        regions treat a shaped window as transparent, so a change
        restamps the parent."""
        return self._shape

    @shape.setter
    def shape(self, value: Optional["ShapeRegion"]) -> None:
        if value is not self._shape:
            self._shape = value
            if self._parent is not None:
                self._parent._restamp()

    @property
    def rect(self) -> Rect:
        return self._rect

    @rect.setter
    def rect(self, value: Rect) -> None:
        if value != self._rect:
            self._rect = value
            self._invalidate_geometry()

    @property
    def border_width(self) -> int:
        return self._border_width

    @border_width.setter
    def border_width(self, value: int) -> None:
        if value != self._border_width:
            self._border_width = value
            self._invalidate_geometry()

    @property
    def x(self) -> int:
        return self._rect.x

    @property
    def y(self) -> int:
        return self._rect.y

    @property
    def width(self) -> int:
        return self._rect.width

    @property
    def height(self) -> int:
        return self._rect.height

    def position_in_root(self) -> Point:
        """The window's origin in root coordinates (inside the border),
        cached under the parent's stamp (see :meth:`_validate`)."""
        self._validate()
        return self._origin

    def rect_in_root(self) -> Rect:
        origin = self.position_in_root()
        return Rect(origin.x, origin.y, self._rect.width, self._rect.height)

    def outer_rect(self) -> Rect:
        """The window rect including its border, in parent coordinates."""
        bw = self._border_width
        return Rect(
            self._rect.x,
            self._rect.y,
            self._rect.width + 2 * bw,
            self._rect.height + 2 * bw,
        )

    def outer_rect_in_root(self) -> Rect:
        """The window rect including its border, in root coordinates."""
        origin = self.position_in_root()
        bw = self._border_width
        return Rect(
            origin.x - bw,
            origin.y - bw,
            self._rect.width + 2 * bw,
            self._rect.height + 2 * bw,
        )

    # -- map state ---------------------------------------------------------

    @property
    def mapped(self) -> bool:
        return self._mapped

    @mapped.setter
    def mapped(self, value: bool) -> None:
        if value != self._mapped:
            self._mapped = value
            parent = self._parent
            if parent is not None:
                parent._restamp()
                parent._drop_index()

    @property
    def viewable(self) -> bool:
        """Mapped, with every ancestor mapped too (not cached: the walk
        up stops at the first unmapped window)."""
        win: Optional[Window] = self
        while win._mapped:
            win = win._parent
            if win is None:
                return True
        return False

    @property
    def map_state(self) -> int:
        if not self._mapped:
            return IS_UNMAPPED
        return IS_VIEWABLE if self.viewable else IS_UNVIEWABLE

    # -- event masks ---------------------------------------------------------

    def select_input(self, client_id: int, mask: EventMask) -> None:
        if mask == EventMask.NoEvent:
            if self.event_masks.pop(client_id, None) is None:
                return
        else:
            if self.event_masks.get(client_id) == mask:
                return
            self.event_masks[client_id] = mask
        self._invalidate_interest()

    def drop_client(self, client_id: int) -> None:
        """Forget a disconnected client's selection on this window."""
        if self.event_masks.pop(client_id, None) is not None:
            self._invalidate_interest()

    def _invalidate_interest(self) -> None:
        self._all_masks = None
        self._selecting.clear()
        self.caches.interest_invalidations += 1

    def mask_for(self, client_id: int) -> EventMask:
        return self.event_masks.get(client_id, EventMask.NoEvent)

    def all_masks(self) -> EventMask:
        """Union of every client's selection on this window (cached)."""
        combined = self._all_masks
        if combined is not None:
            self.caches.interest_hits += 1
            return combined
        self.caches.interest_misses += 1
        combined = EventMask.NoEvent
        for mask in self.event_masks.values():
            combined |= mask
        self._all_masks = combined
        return combined

    def clients_selecting(self, mask: EventMask) -> List[int]:
        """Client ids that selected *mask* here (cached per mask; the
        returned list is shared — callers must not mutate it)."""
        cached = self._selecting.get(mask)
        if cached is not None:
            self.caches.interest_hits += 1
            return cached
        self.caches.interest_misses += 1
        result = [cid for cid, sel in self.event_masks.items() if sel & mask]
        self._selecting[mask] = result
        return result

    def redirect_client(self) -> Optional[int]:
        """The client holding SubstructureRedirect on this window."""
        holders = self.clients_selecting(EventMask.SubstructureRedirect)
        return holders[0] if holders else None

    # -- stacking -------------------------------------------------------------

    def stacking_index(self) -> List[Tuple["Window", Box]]:
        """Top-to-bottom ``(child, box)`` pairs for the mapped children,
        each box the child's outer rectangle (border included) relative
        to this window's interior.

        This is the index the server descends in `_window_at` / pointer
        queries and the clip cache reads siblings from; it is rebuilt
        only after one of this window's own children changed."""
        index = self._index
        if index is not None:
            self.caches.index_hits += 1
            return index
        self.caches.index_misses += 1
        index = []
        for child in reversed(self.children):
            if child._mapped:
                rect = child._rect
                bw = child._border_width
                index.append((child, (
                    rect.x - bw,
                    rect.y - bw,
                    rect.x + rect.width + bw,
                    rect.y + rect.height + bw,
                )))
        self._index = index
        return index

    def child_at_in_root(self, x: int, y: int) -> Optional["Window"]:
        """The topmost mapped child containing root point (x, y),
        honouring borders and SHAPE, via the stacking index."""
        index = self.stacking_index()
        if not index:
            return None
        origin = self.position_in_root()
        bw = self._border_width
        local_x = x - origin.x - bw
        local_y = y - origin.y - bw
        for child, (x1, y1, x2, y2) in index:
            if x1 <= local_x < x2 and y1 <= local_y < y2:
                shape = child._shape
                if shape is not None:
                    rect = child._rect
                    if not shape.contains(local_x - rect.x, local_y - rect.y):
                        continue
                return child
        return None

    # -- visible (clip) region ------------------------------------------------

    def clip_region(self) -> Region:
        """The window's visible region in root coordinates.

        Defined as the window's rectangle (inside its border) clipped
        to the parent's visible region, minus the outer rectangles of
        opaque siblings stacked above — where "opaque" means mapped,
        unshaped, INPUT_OUTPUT.  Shaped and INPUT_ONLY siblings are
        treated as transparent (an under-approximation of occlusion:
        the cost is at most a spurious Expose, never a missing one).
        An unmapped window, or one under an unviewable ancestor, has an
        empty region.  A window's own children are *not* subtracted.

        Cached per window under the same key as the root origin (see
        :meth:`_validate`).  After validating the chain, a lookup
        computes the clips it forgot, top-down from the nearest
        ancestor that still holds one; each clip computed counts one
        region miss, a clip found counts one hit."""
        self._validate()
        caches = self.caches
        clip = self._clip
        if clip is not None:
            caches.region_hits += 1
            return clip
        # A window's clip is forgotten only with its descendants' (it
        # mints its stamp when it does), so the windows missing a clip
        # are the bottom of the chain.
        chain = [self]
        node = self._parent
        while node is not None and node._clip is None:
            chain.append(node)
            node = node._parent
        if node is None:
            root = chain.pop()
            clip = root._clip = Region.from_rect(root._rect)
            caches.region_misses += 1
        else:
            clip = node._clip
        for win in reversed(chain):
            clip = win._clip = win._compute_clip(clip)
        caches.region_misses += len(chain)
        return clip

    def _compute_clip(self, parent_clip: Region) -> Region:
        """One level of the top-down clip computation (non-root)."""
        if not self._mapped or parent_clip.empty:
            return Region.EMPTY
        parent = self._parent
        parent_origin = parent._origin
        dx = parent_origin.x + parent._border_width
        dy = parent_origin.y + parent._border_width
        # The window's box, in the parent's interior coordinates, as the
        # stacking index holds its siblings' boxes.
        rect = self._rect
        left = rect.x
        top = rect.y
        right = left + rect.width
        bottom = top + rect.height
        region = parent_clip.intersect_box(
            left + dx, top + dy, right + dx, bottom + dy
        )
        if region.empty:
            return region
        # The siblings above this window are the index entries before
        # it (the index holds every mapped child, so it is found).  A
        # box that misses the window costs four compares; only one that
        # meets it is checked for opacity and moved to root coordinates.
        for above, (x1, y1, x2, y2) in parent.stacking_index():
            if above is self:
                break
            if x2 <= left or x1 >= right or y2 <= top or y1 >= bottom:
                continue
            if above._shape is not None or above.win_class == INPUT_ONLY:
                continue
            region = region.subtract_box(x1 + dx, y1 + dy, x2 + dx, y2 + dy)
            if region.empty:
                break
        return region

    def sibling_index(self) -> int:
        if self._parent is None:
            raise BadMatch(self.id, "root window has no siblings")
        return self._parent.children.index(self)

    def check_restack(self, mode: int, sibling: Optional["Window"]) -> None:
        """Validate a :meth:`restack` request, changing nothing
        (ConfigureWindow checks before applying any field)."""
        if self._parent is None:
            raise BadMatch(self.id, "cannot restack a root window")
        if sibling is self:
            raise BadMatch(self.id, "window is its own sibling")
        if sibling is not None and sibling._parent is not self._parent:
            raise BadMatch(sibling.id, "sibling has a different parent")
        if mode not in (ABOVE, BELOW, TOP_IF, BOTTOM_IF, OPPOSITE):
            raise BadValue(mode, "bad stack mode")

    def restack(self, mode: int, sibling: Optional["Window"] = None) -> None:
        """Apply an X StackMode relative to an optional sibling.

        Modes: Above(0) Below(1) TopIf(2) BottomIf(3) Opposite(4); the
        conditional modes use occlusion, which we approximate with
        geometric overlap between mapped siblings.  The arguments must
        already pass :meth:`check_restack`.
        """
        parent = self._parent
        siblings = parent.children

        def overlaps_any(candidates: List["Window"]) -> bool:
            # Occlusion via region algebra: the union of the mapped
            # candidates' outer rects, intersected with ours.  Same
            # truth value as pairwise overlap, but bands collapse
            # shared edges so heavily tiled siblings don't degrade to
            # O(candidates) rect tests on every conditional restack.
            mine = Region.from_rect(self.outer_rect())
            covered = Region.union_all(
                other.outer_rect() for other in candidates if other.mapped
            )
            return not covered.intersect(mine).empty

        def occluded_by_sibling() -> bool:
            my_index = siblings.index(self)
            if sibling is not None:
                candidates = (
                    [sibling] if siblings.index(sibling) > my_index else []
                )
            else:
                candidates = siblings[my_index + 1:]
            return overlaps_any(candidates)

        def occludes_sibling() -> bool:
            my_index = siblings.index(self)
            if sibling is not None:
                candidates = (
                    [sibling] if siblings.index(sibling) < my_index else []
                )
            else:
                candidates = siblings[:my_index]
            return overlaps_any(candidates)

        if mode == ABOVE:
            siblings.remove(self)
            if sibling is None:
                siblings.append(self)
            else:
                siblings.insert(siblings.index(sibling) + 1, self)
            parent._child_changed(self)
        elif mode == BELOW:
            siblings.remove(self)
            if sibling is None:
                siblings.insert(0, self)
            else:
                siblings.insert(siblings.index(sibling), self)
            parent._child_changed(self)
        elif mode == TOP_IF:
            if occluded_by_sibling():
                self.restack(ABOVE, None)
        elif mode == BOTTOM_IF:
            if occludes_sibling():
                self.restack(BELOW, None)
        elif occluded_by_sibling():  # OPPOSITE
            self.restack(ABOVE, None)
        elif occludes_sibling():
            self.restack(BELOW, None)

    def sibling_below(self) -> Optional["Window"]:
        index = self.sibling_index()
        return self._parent.children[index - 1] if index > 0 else None
