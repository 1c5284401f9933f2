"""The package namespace: every public name is imported on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netprice


def test_exports_are_the_defining_modules_objects():
    assert len(netprice.__all__) == len(set(netprice.__all__)) == 50
    for name in netprice.__all__:
        module = importlib.import_module(f"netprice.{netprice._MODULE_OF[name]}")
        assert getattr(netprice, name) is getattr(module, name), name


def test_submodule_and_star_imports():
    from netprice import core

    assert core is importlib.import_module("netprice.core") is netprice.core
    namespace = {}
    exec("from netprice import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(netprice.__all__)
    assert set(netprice.__all__) <= set(dir(netprice))


def test_unknown_name():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        netprice.nope
    with pytest.raises(ImportError):
        exec("from netprice import nope", {})


def test_import_loads_no_submodule_or_numpy():
    code = (
        "import sys, netprice; dir(netprice); "
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'netprice.')))); "
        "print(netprice.engine.simulate is netprice.simulate)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(netprice.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n") == ["[]", "True", ""]
