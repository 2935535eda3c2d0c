"""The benchmark tracer wraps bellsim functions by name: every name in its
``BOUNDARIES`` table must still exist, or a traced benchmark run stops."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bellbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("bellbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_boundary_resolves():
    missing = []
    for module_name, quals in _boundaries().items():
        for qual in quals:
            owner = importlib.import_module(f"bellsim.{module_name}")
            for attr in qual.split("."):
                owner = getattr(owner, attr, None)
            if not callable(owner):
                missing.append(f"bellsim.{module_name}.{qual}")
    assert missing == []
