"""Helpers shared by the test modules that start `python -m ualg` children."""

import os
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def child_env(**overrides: str) -> dict[str, str]:
    """The environment for a child interpreter: this one's, with the
    checkout's `src` first on PYTHONPATH (pytest's `pythonpath` setting
    reaches only the pytest process) and `overrides` applied."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env
