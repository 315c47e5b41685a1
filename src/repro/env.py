"""Environment-variable parsing shared by every configuration module."""

from __future__ import annotations

import os


def env_int(name: str, default: int) -> int:
    """The integer in ``$name``; unset, blank or unparsable falls back to ``default``."""
    try:
        return int(os.environ.get(name, "") or default)
    except ValueError:
        return default
