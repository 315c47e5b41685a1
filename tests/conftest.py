"""The one place the suite saves and restores engine settings.

Every test, and every test module, runs between a ``settings.snapshot()``
and a ``settings.restore()``: a test (or a module-scoped fixture) pins
what it needs with ``settings.configure`` and never puts anything back.
The ambient store is whatever ``REPRO_*`` seeded — the CI legs differ in
nothing else — so a leak here silently turns a leg into the default one.
The same per-test fixture restarts the worker pool's batch numbering, the
one other piece of process-wide state a test's outcome depended on.
"""

from __future__ import annotations

import itertools

import pytest

from repro import settings
from repro.engine import parallel

#: the store as the environment seeded it; this file is imported before
#: any test module, so nothing has had the chance to configure yet
AMBIENT = settings.snapshot()


def pin_defaults(*names: str) -> None:
    """Set the named settings to their built-in defaults, whatever the
    environment seeded."""
    settings.configure(**{name: settings.ROWS[name].default for name in names})


def restart_batch_numbering() -> None:
    """Fault injection keys on ``(batch, task)`` and batches are numbered
    process-wide: restarted per test, the task an injected fault lands
    on depends on the test alone, so a chaos-leg failure reproduces by
    running that one test."""
    parallel._batch_counter = itertools.count()


def _restoring():
    saved = settings.snapshot()
    yield
    settings.restore(saved)


@pytest.fixture(scope="module", autouse=True)
def _module_settings(request):
    """Undo module-scoped pins; every module must hand on the ambient store
    (so it also started from it — import-time configures are caught here)."""
    yield from _restoring()
    now = settings.snapshot()
    leaked = {name: (AMBIENT[name], now[name]) for name in now if now[name] != AMBIENT[name]}
    assert not leaked, f"{request.module.__name__} leaves settings changed: {leaked}"


@pytest.fixture(autouse=True)
def _test_settings(_module_settings):
    restart_batch_numbering()
    yield from _restoring()
