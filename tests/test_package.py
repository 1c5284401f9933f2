"""The package namespace loads modules on first use; the CLI starts lean."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import netprice


def test_exports_are_the_defining_modules_objects():
    assert len(netprice.__all__) == len(set(netprice.__all__)) == 48
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


def _fresh_interpreter(code: str, **env: str) -> list[str]:
    """Run ``code`` in a new interpreter without OPENBLAS_NUM_THREADS unless
    given in ``env``; return its stdout lines."""
    child_env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    child_env.update(PYTHONPATH=str(Path(netprice.__file__).parents[1]), **env)
    result = subprocess.run([sys.executable, "-c", code], env=child_env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_readme_quick_start_prints_its_comments():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    # each print's expected output is the first word of its "# " comment
    expected = [re.search(r"#\s*(\S+)", line).group(1)
                for line in blocks[0].splitlines() if line.startswith("print(")]
    assert expected and _fresh_interpreter(blocks[0]) == expected


def test_import_loads_no_submodule_or_numpy():
    code = (
        "import os, sys, netprice; dir(netprice); "
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'netprice.')))); "
        "print(netprice.engine.simulate is netprice.simulate); "
        "netprice.exact_opt; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    assert _fresh_interpreter(code) == ["[]", "True", "None"]


def test_generators_import_only_core():
    code = (
        "import sys, netprice.generators; "
        "print(sorted(m for m in sys.modules if m.startswith('netprice.')))"
    )
    assert _fresh_interpreter(code) == ["['netprice.core', 'netprice.generators']"]


def test_cli_import_runs_one_blas_thread_and_no_multiprocessing():
    code = (
        "import os, sys, netprice.cli; "
        "print(os.environ['OPENBLAS_NUM_THREADS']); "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent')))); "
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)"
    )
    assert _fresh_interpreter(code) == ["1", "[]", "1"]


def test_cli_import_keeps_a_preset_blas_thread_count():
    code = "import os, netprice.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_interpreter(code, OPENBLAS_NUM_THREADS="2") == ["2"]
