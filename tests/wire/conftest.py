"""Seeding for the wire suite.

Same discipline as the chaos suite: one base seed from the environment
(``WIRE_SEED``, falling back to ``CHAOS_SEED``, default 1337), mixed
with each test's node id so adding a test never shifts its neighbours'
random streams.  Replay a CI failure with::

    WIRE_SEED=<seed> PYTHONPATH=src python -m pytest tests/wire -q
"""

import os

import pytest

from repro.session.soak import derive_seed

DEFAULT_SEED = 1337


def base_seed() -> int:
    raw = os.environ.get("WIRE_SEED") or os.environ.get("CHAOS_SEED")
    return int(raw) if raw else DEFAULT_SEED


@pytest.fixture
def wire_seed(request) -> int:
    """This test's private seed, derived from WIRE_SEED + node id."""
    return derive_seed(base_seed(), request.node.nodeid)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.write_line(
        f"wire base seed: {base_seed()} "
        f"(replay: WIRE_SEED={base_seed()} pytest tests/wire -q)"
    )
