"""Smoke tests: every shipped example must run clean (deliverable b)."""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = [
    "quickstart.py",
    "update_storm.py",
    "early_detection.py",
    "waypoint_policy.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script, capsys, monkeypatch):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, script))
    assert os.path.exists(path), path
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_examples_list_is_complete():
    shipped = {
        f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")
    }
    assert shipped == set(EXAMPLES), "update EXAMPLES when adding examples"
