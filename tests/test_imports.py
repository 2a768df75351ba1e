"""The package root loads its exports on first use.

``import repro.sim`` is all the bare engine needs, so it must not compile
the model: the root's exports resolve through a module ``__getattr__``.
Each check runs in a fresh interpreter, since this one has the whole
package loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_engine_imports_without_the_model():
    loaded = run_python(
        "import sys, repro.sim\n"
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.startswith('repro'))))").split()
    assert "repro.sim" in loaded
    for model in ("repro.core", "repro.clib", "repro.cluster"):
        assert model not in loaded, loaded


def test_root_exports_resolve_on_first_use():
    out = run_python(
        "from repro import ClioCluster, ClioParams, Permission\n"
        "import repro\n"
        "print(ClioCluster.__module__, ClioParams.__module__,"
        " Permission.__module__)\n"
        "print(all(hasattr(repro, name) for name in repro.__all__))\n"
        "try:\n"
        "    repro.NoSuchExport\n"
        "except AttributeError as exc:\n"
        "    print('AttributeError', exc)\n")
    assert out.splitlines() == [
        "repro.cluster repro.params repro.core.addr",
        "True",
        "AttributeError module 'repro' has no attribute 'NoSuchExport'",
    ]
