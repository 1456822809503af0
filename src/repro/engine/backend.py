"""The array library the engines compute with: NumPy, on the host.

Every engine module imports ``numpy`` directly.  This module only names
that choice for run records: ``perfbench/run.py`` stamps
``resolve_backend().name`` into each result file.
"""

from __future__ import annotations

from types import SimpleNamespace

_NUMPY = SimpleNamespace(name="numpy")


def resolve_backend() -> SimpleNamespace:
    """The engines' array library; its ``name`` is ``"numpy"``."""
    return _NUMPY
