"""The seeded chaos workload with the cache oracle installed.

`test_chaos_wm.replay_workload` launches, moves and loses clients under
swm with the standard fault plan.  With the oracle of
``tests/clip_oracle.py`` wrapped around ``Window.position_in_root``,
``Window.viewable`` and ``Window.clip_region``, every root origin,
viewability bit and clip the server reads (for a hit test, a notify or
an Expose), and every live window's three values read after each step,
are compared with references recomputed from scratch up the window's
ancestor chain.  So a change the caches fail to notice (a map, a
reparent into a frame, a window killed or destroyed mid-manage) fails
at the read that returned the stale value, under whatever seed CI
picks.  These reads issue no request, so the fault log equals the one
the same seed gives without the oracle.
"""

from ..clip_oracle import install_cache_oracle
from .test_chaos_wm import replay_workload


def read_every_cache(server):
    for window in list(server.windows.values()):
        window.position_in_root()
        window.viewable
        window.clip_region()


def test_replay_workload_reads_only_fresh_clips(chaos_seed, tmp_path,
                                                monkeypatch):
    plain = replay_workload(chaos_seed, str(tmp_path / "places-plain"))
    checked = install_cache_oracle(monkeypatch)
    log = replay_workload(chaos_seed, str(tmp_path / "places"),
                          after_step=read_every_cache)
    assert checked["origin"] and checked["viewable"] and checked["clip"], (
        f"a cached read was never checked: {dict(checked)}"
    )
    assert log and log == plain
