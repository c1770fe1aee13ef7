"""Importing the eight layers loads no module outside mfchern beyond a fixed
set.  The benchmark's setup_s times a cold import of the package with no
bytecode cache, so a new module-level import of a library shows there before
any job runs."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAYERS = ("rings", "forms", "geometry", "mf", "connection", "cech", "hochschild", "cohomology")
ALLOWED = {"__future__", "_decimal", "decimal", "fractions", "numbers"}

CHILD = f"""
import importlib, json, sys
before = set(sys.modules)
for layer in {LAYERS!r}:
    importlib.import_module("mfchern." + layer)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_layers_import_only_the_known_standard_modules():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "mfchern.rings" in loaded, loaded
    new = sorted(m for m in loaded if m != "mfchern" and not m.startswith("mfchern."))
    extra = sorted(set(new) - ALLOWED)
    assert not extra, (
        f"importing mfchern now also loads {extra}; every new module-level import adds "
        f"to the benchmark's setup_s (a cold import without a bytecode cache), so import "
        f"it inside the function that needs it, or list it here with its measured setup_s"
    )
