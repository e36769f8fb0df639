"""Every ``repro`` package imports on its own, in a fresh interpreter.

Inside one test process the first import warms ``sys.modules`` for the
rest, which hides import cycles: ``import repro.sched`` used to fail in
a fresh interpreter (``repro.sched.builders`` -> ``repro.core`` ->
``repro.core.comm`` -> ``repro.sched.engine`` -> ``repro.sched.builders``)
while passing in any process that had imported ``repro.core`` first.
"""

import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)

#: The schedule modules that the cycle used to break, imported first.
SCHED_MODULES = ["repro.sched.ir", "repro.sched.cost",
                 "repro.sched.builders", "repro.sched.engine"]


@pytest.mark.parametrize("module", PACKAGES + SCHED_MODULES)
def test_imports_in_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_subpackage_is_listed():
    assert "repro.sched" in PACKAGES and "repro.core" in PACKAGES
    assert "repro.apps.gcmc" in PACKAGES
