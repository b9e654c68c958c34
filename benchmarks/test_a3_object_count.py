"""A3 — ablation: decoration cost vs object count.

swm's pitch is that look-and-feel is assembled from objects; the cost
is that every object is an X window plus resource lookups.  We generate
decorations of increasing complexity (1, 4, 8, 16 objects) and measure
manage-time requests and latency — quantifying §8's "performance
penalty ... because of the extra overhead" as a function of policy
complexity.
"""

import pytest

from repro.clients import XLoad
from repro.core.templates import load_template
from repro.core.wm import Swm
from repro.xserver import XServer

from .conftest import fresh_server, report


def decoration_with(buttons: int) -> str:
    """A resource text defining a titlebar with *buttons* buttons."""
    parts = [f"button b{i} +{i}+0" for i in range(buttons)]
    parts.append("panel client +0+1")
    definition = " ".join(parts)
    lines = [f"Swm*panel.generated: {definition}",
             "Swm*decoration: generated",
             "Swm*iconPanel: Xicon",
             "Swm*panel.Xicon: button iconimage +C+0",
             "Swm*font: 8x13"]
    for i in range(buttons):
        lines.append(f"Swm*button.b{i}.bindings: <Btn1> : f.raise")
    return "\n".join(lines)


def manage_once(buttons: int):
    server = fresh_server()
    from repro.xrm import ResourceDatabase

    db = ResourceDatabase()
    db.load_string(decoration_with(buttons))
    wm = Swm(server, db, places_path="/tmp/a3.places")
    before = server.stats().get("requests")
    app = XLoad(server, ["xload", "-geometry", "+100+100"])
    wm.process_pending()
    requests = server.stats().get("requests") - before
    managed = wm.managed[app.wid]
    objects = sum(1 for _ in managed.decoration.iter_tree())
    return requests, objects


def test_a3_request_scaling():
    lines = [f"{'objects':>8s} {'requests to manage':>19s}"]
    results = {}
    for buttons in (0, 3, 7, 15):
        requests, objects = manage_once(buttons)
        results[objects] = requests
        lines.append(f"{objects:>8d} {requests:>19d}")
    report("A3: manage-time requests vs decoration complexity", lines)
    counts = sorted(results.items())
    # Monotone growth, roughly linear in object count (each object is
    # one window + one map + label property).
    for (obj_a, req_a), (obj_b, req_b) in zip(counts, counts[1:]):
        assert req_b > req_a
        per_object = (req_b - req_a) / (obj_b - obj_a)
        assert 1 <= per_object <= 8


@pytest.mark.benchmark(group="a3")
@pytest.mark.parametrize("buttons", [0, 7, 15])
def test_a3_manage_latency(benchmark, buttons):
    server = fresh_server()
    from repro.xrm import ResourceDatabase

    db = ResourceDatabase()
    db.load_string(decoration_with(buttons))
    wm = Swm(server, db, places_path="/tmp/a3.places")

    def cycle():
        app = XLoad(server, ["xload", "-geometry", "+100+100"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        wm.unmanage(managed)
        app.quit()
        wm.process_pending()

    benchmark(cycle)
