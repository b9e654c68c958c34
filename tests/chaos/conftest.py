"""Seeding for the chaos suite.

All chaos tests draw their determinism from one *base seed*, read from
the ``CHAOS_SEED`` environment variable (default 1337).  Each test
derives a private per-test seed from the base seed and its own node id,
so two tests never share a fault sequence and adding a test does not
shift its neighbours' sequences.

To replay a failing CI run locally, copy the base seed from the
terminal summary line::

    CHAOS_SEED=<seed> PYTHONPATH=src python -m pytest tests/chaos -q
"""

import os

import pytest

from repro.core.subsystems.restart import RestartController
from repro.session.places import collect_entries, format_places
from repro.session.soak import derive_seed

DEFAULT_SEED = 1337


def base_seed() -> int:
    return int(os.environ.get("CHAOS_SEED", DEFAULT_SEED))


@pytest.fixture
def chaos_seed(request) -> int:
    """This test's private seed, derived from CHAOS_SEED + node id."""
    return derive_seed(base_seed(), request.node.nodeid)


@pytest.fixture
def checkpoint_oracle(monkeypatch):
    """Check every checkpoint the restart controller builds from its
    memo of formatted entries against a fresh snapshot of every client,
    ``format_places(collect_entries(wm))``.  Yields the checked texts."""
    checked = []
    cached_text = RestartController.checkpoint_text

    def checkpoint_text(controller):
        text = cached_text(controller)
        assert text == format_places(collect_entries(controller.wm)), (
            "the checkpoint memo drifted from the live session"
        )
        checked.append(text)
        return text

    monkeypatch.setattr(RestartController, "checkpoint_text", checkpoint_text)
    return checked


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On a red chaos cell, dump every live tracer's flight recorder
    (repro.xserver.trace) so CI can upload the last seconds of protocol
    history.  No-op unless SWM_FLIGHT_DIR is set — setting it is also
    what auto-enables tracing on every server the test built."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    from repro.xserver import trace

    directory = trace.flight_dir()
    if directory is None:
        return
    paths = trace.dump_all(directory, item.nodeid, seed=base_seed())
    if paths:
        report.sections.append(
            ("flight recorder", "\n".join(paths))
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seed = base_seed()
    terminalreporter.write_line(
        f"chaos base seed: {seed} "
        f"(replay: CHAOS_SEED={seed} pytest tests/chaos -q)"
    )
