"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

Import cycles only bite when a module is the *first* one loaded, so each
subpackage gets its own subprocess.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__)
    if m.ispkg
)


def test_subpackages_discovered():
    assert {"repro.maintenance", "repro.traversal", "repro.bvh"} <= set(
        SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_import_in_fresh_interpreter(name):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import {name}"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
