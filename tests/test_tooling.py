"""Checks that the benchmark's tooling still fits the package.

``perfbench/tracing.py`` wraps the names listed in its ``WRAPPED`` table when
a traced run starts; a name that the package no longer has breaks that run
only then, outside this suite.  This test catches it here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_resolves():
    missing = []
    for path, attribute, _span in _load_tracing().WRAPPED:
        module, _, cls = path.partition(".")
        owner = importlib.import_module(f"surrband.{module}")
        if cls:
            owner = getattr(owner, cls, None)
        if not hasattr(owner, attribute):
            missing.append(f"surrband.{path}.{attribute}")
    assert not missing, missing
