"""The benchmark's per-layer trace hooks name code that exists in src/."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "starlock"


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_src() -> None:
    tracer = load_tracer()
    for name in tracer.MODULES:
        assert Path(importlib.import_module(f"starlock.{name}").__file__).parent == SRC
    for prefix, modname, path, _, _ in tracer.TARGETS:
        scope = vars(importlib.import_module(f"starlock.{modname}"))
        owner, _, attr = path.rpartition(".")
        if owner:  # a method must be defined on its class itself
            assert isinstance(scope.get(owner), type), prefix
            scope = vars(scope[owner])
        assert attr in scope, prefix
        assert callable(scope[attr]) or isinstance(scope[attr], classmethod), prefix
