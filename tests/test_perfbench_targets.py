"""Every name the benchmark's tracer patches still exists in the program.

``perfbench/tracer.py`` looks its targets up by string. Renaming or
deleting one of them breaks only the separate ``python3 -m pytest
perfbench`` run, so this check keeps it in the main suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [target[:3] for target in tracer.TARGETS
               if target[2] not in vars(tracer.target_owner(target))]
    assert missing == []
