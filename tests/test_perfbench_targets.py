"""The benchmark tracer's targets exist in the package.

`perfbench/tracer.py` wraps each `(module, attribute path)` of its `TARGETS`
when a run asks for `--trace 1`, and a name that no longer resolves breaks
that run.  This test reads the list (the tracer imports only the standard
library) and resolves every entry the way the tracer installs it: a method
from its class's own namespace, a function from its module.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _tracer()
    missing = []
    for mod_name, path in tracer.TARGETS:
        module = importlib.import_module(f"juliaspec.{mod_name}")
        if "." in path:
            cls_name, meth = path.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(f"{mod_name}.{path}")
    assert missing == []
    names = {f"{mod_name}.{path}" for mod_name, path in tracer.TARGETS}
    assert set(tracer.COUNTERS) <= names  # a counter on an unwrapped name would read 0
