"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps functions of
`src/radfact` by name and reads two internals; these tests fail when a
refactor moves one of them, instead of the traced run breaking silently."""

import json
import os
import subprocess
import sys

from radfact import finring as fr
from radfact.finideal import all_ideals
from radfact.sspengine import radical_closure

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")

# Loads spans.py without writing bytecode next to it, then resolves every
# target the way Tracer.install does, after nothing but `import radfact.cli`.
RESOLVE = """
import importlib.util, json, sys
import radfact.cli
spec = importlib.util.spec_from_file_location("spans_under_test", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
missing = []
for modname, path, _ in spans.TARGETS:
    mod = sys.modules.get(modname)
    if mod is None:
        missing.append(modname)
    elif "." in path:
        cls_name, attr = path.split(".")
        if attr not in vars(getattr(mod, cls_name, object)):
            missing.append(modname + "." + path)
    elif not callable(getattr(mod, path, None)):
        missing.append(modname + "." + path)
print(json.dumps({"targets": len(spans.TARGETS), "missing": missing}))
"""


def test_every_traced_target_resolves_after_importing_the_cli():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                                      os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", RESOLVE, SPANS], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out)
    assert result["targets"] > 0
    assert result["missing"] == []


def test_internals_the_tracer_reads():
    ring = fr.make_zn(12)
    assert isinstance(radical_closure(ring).parent, dict)
    ring = fr.make_zn(12)
    assert "ideals" not in ring._cache
    ideals = all_ideals(ring)
    assert len(ring._cache["ideals"]) == len(ideals)
