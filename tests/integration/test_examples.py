"""Every example script runs cleanly and prints what it promises."""

import io
import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

EXPECTED_OUTPUT = {
    "quickstart.py": ["Managed windows:", "Figure 1"],
    "virtual_desktop_rooms.py": ["room", "Sticky clock stayed"],
    "session_roundtrip.py": ["Session restored exactly"],
    "custom_look_and_feel.py": ["OpenLook+ emulation", "OSF/Motif emulation",
                                "bottombar"],
    "swmcmd_remote_control.py": ["question_arrow", "prompt ended: True"],
    "multiple_desktops.py": ["desktop 0", "desktop 2",
                             "f.sendtodesktop"],
}


def run_example(name: str) -> str:
    captured = io.StringIO()
    stdout = sys.stdout
    sys.stdout = captured
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.stdout = stdout
    return captured.getvalue()


@pytest.mark.parametrize("name", sorted(EXPECTED_OUTPUT))
def test_example_runs(name):
    output = run_example(name)
    for marker in EXPECTED_OUTPUT[name]:
        assert marker in output, f"{name}: missing {marker!r} in output"


def test_all_examples_covered():
    scripts = {path.name for path in EXAMPLES.glob("*.py")}
    assert scripts == set(EXPECTED_OUTPUT)


def test_module_demo_runs(capsys):
    import repro.__main__ as demo

    assert demo.main([]) == 0
    output = capsys.readouterr().out
    assert "1010, 359" in output


@pytest.mark.parametrize("interval", ["0", "-1", "nan"])
@pytest.mark.parametrize("command", ["serve", "connect"])
def test_heartbeat_interval_must_be_positive(command, interval, capsys):
    """The wire has one lifecycle: no flag value switches it off."""
    import repro.__main__ as cli

    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--heartbeat-interval", interval])
    assert exited.value.code == 2
    assert "must be > 0" in capsys.readouterr().err
