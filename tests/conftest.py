import importlib.util
import sys
from functools import cache
from pathlib import Path

import pytest

SPECGEN = Path(__file__).resolve().parent.parent / "perfbench" / "specgen.py"


@cache
def _specgen():
    spec = importlib.util.spec_from_file_location("perfbench_specgen", SPECGEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workload():
    """generate(name, seed): the benchmark's seeded specs of a workload."""
    if not SPECGEN.exists():
        pytest.skip("perfbench/specgen.py is not in this checkout")
    return _specgen().generate
