"""The seeded chaos workload with the clip oracle installed.

`test_chaos_wm.replay_workload` launches, moves and loses clients under
swm with the standard fault plan.  With the oracle of
``tests/clip_oracle.py`` wrapped around ``Window.clip_region``, every
clip the server reads for an Expose, and every live window's clip read
after each step, is compared with a clip recomputed from scratch down
the window's ancestor chain.  So a change the clip cache fails to
notice (a map, a reparent into a frame, a window killed or destroyed
mid-manage) fails at the read that returned the stale region, under
whatever seed CI picks.  Reading a clip issues no request, so the fault
log equals the one the same seed gives without the oracle.
"""

from ..clip_oracle import install_clip_oracle
from .test_chaos_wm import replay_workload


def read_every_clip(server):
    for window in list(server.windows.values()):
        window.clip_region()


def test_replay_workload_reads_only_fresh_clips(chaos_seed, tmp_path,
                                                monkeypatch):
    plain = replay_workload(chaos_seed, str(tmp_path / "places-plain"))
    checked = install_clip_oracle(monkeypatch)
    log = replay_workload(chaos_seed, str(tmp_path / "places"),
                          after_step=read_every_clip)
    assert checked, "no clip region was read"
    assert log and log == plain
