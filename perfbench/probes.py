"""Fresh-process probes: interpreter set-up, cold CLI jobs and import times.

Each probe starts one child interpreter at a time and waits for it, so the
benchmark process never runs concurrently with its probes.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

PROBE_TIMEOUT_S = 60


def _run(argv, env, cwd):
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          timeout=PROBE_TIMEOUT_S)
    return perf_counter() - t0, proc


def setup_time(env, cwd) -> float:
    """Spawn to exit of an interpreter whose only work is `import radfact.cli`."""
    wall, proc = _run([sys.executable, "-c", "import radfact.cli"], env, cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"import radfact.cli failed: {proc.stderr.decode()[-400:]}")
    return wall


def reference_time(env, cwd) -> float:
    """Spawn to exit of an interpreter that imports numpy and nothing of radfact.

    No change to the program can move it, so the ratio of a probe to the
    references taken just before and after it measures the program at a
    fixed machine speed (see `speed.REFERENCE_NOMINAL_S`).
    """
    wall, proc = _run([sys.executable, "-c", "import numpy"], env, cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"import numpy failed: {proc.stderr.decode()[-400:]}")
    return wall


def cold_job(env, cwd, command, input_path):
    """Spawn to exit of `python -m radfact.cli`; returns (seconds, exit code, report)."""
    wall, proc = _run([sys.executable, "-m", "radfact.cli", "--input", input_path, command],
                      env, cwd)
    return wall, proc.returncode, proc.stdout.decode()


def import_times(env, cwd) -> dict:
    """Cumulative import seconds of numpy, sympy and radfact's own modules.

    `-X importtime` nests each import under the one that triggered it; numpy
    and sympy are imported by radfact, so radfact's own share is its
    cumulative time minus theirs.
    """
    _, proc = _run([sys.executable, "-X", "importtime", "-c", "import radfact.cli"], env, cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"import radfact.cli failed: {proc.stderr.decode()[-400:]}")
    cumulative = {}
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, us, raw_name = line[len("import time:"):].split("|")
        name = raw_name.strip()
        top = raw_name.rstrip() == " " + name       # no nesting indent
        if name in ("numpy", "sympy") and name not in cumulative:
            cumulative[name] = int(us) / 1e6
        if top and (name == "radfact" or name.startswith("radfact.")):
            cumulative["radfact"] = cumulative.get("radfact", 0.0) + int(us) / 1e6
    numpy_s = cumulative.get("numpy", 0.0)
    sympy_s = cumulative.get("sympy", 0.0)
    return {"import.numpy_s": numpy_s, "import.sympy_s": sympy_s,
            "import.radfact_s": cumulative.get("radfact", 0.0) - numpy_s - sympy_s}
