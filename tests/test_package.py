"""The package namespace, the README's Library example and the modules a run loads."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import openchain

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_all_names_resolve():
    missing = [name for name in openchain.__all__ if not hasattr(openchain, name)]
    assert missing == []


def test_namespace_is_what_readme_says():
    # README: the names its example uses, plus load_config and __version__;
    # so a deleted or unused name does not stay exported
    used = set(re.findall(r"\boc\.(\w+)", readme_python_block()))
    assert set(openchain.__all__) == used | {"load_config", "__version__"}


def test_readme_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(readme_python_block(), str(README), "exec"), namespace)
    capsys.readouterr()
    # the figures the README's comments document
    assert namespace["series"]["p_region"][-1] == pytest.approx(0.82, abs=0.01)
    assert abs(namespace["columns"]["entropy"][-1] - np.log(2.0)) <= 1e-2


#: run in a fresh process, because the test process has scipy loaded already
#: (``support.py``) and the pool tests start process pools; argv[1:] are bath
#: configs, each run once, and the first is swept too. A serial run needs
#: neither a pool nor numpy.ma (which np.union1d and np.quantile load).
IMPORT_GUARD = """
import sys
import openchain.cli
loaded = set(sys.modules)
unused = ("scipy", "concurrent", "multiprocessing", "numpy.ma")
found = sorted(m for m in loaded if any(m == u or m.startswith(u + ".") for u in unused))
assert not found, f"import openchain.cli loaded {len(found)} unused modules: {found[:3]}"
for config in sys.argv[1:]:
    assert openchain.cli.main(["run", config]) == 0
assert openchain.cli.main(["sweep", sys.argv[1], "--vary", "zeta", "--values", "0.05,0.1"]) == 0
added = sorted(set(sys.modules) - loaded)
assert not added, f"the runs and a sweep imported {added}"
"""

#: the bath configs of the guard, one per scenario that reads a bath; on the
#: tilted 22-site switch the bath runs cut both modes and sites (lindblad._reach)
BATH_CONFIGS = {
    "dissipative-transport": "ensemble_size = 3\n[chain]\ns = 10\n",
    "cnot-superposed": "",
    "cnot-classical": "[chain]\ng = 2\n",
}


def test_cli_import_loads_no_scipy_and_a_run_imports_nothing(tmp_path):
    configs = []
    for scenario, body in BATH_CONFIGS.items():
        configs.append(tmp_path / f"{scenario}.ini")
        configs[-1].write_text(
            f"[experiment]\nscenario = {scenario}\noutput = {tmp_path / scenario}\n{body}"
            "[bath]\nbeta = 1\nzeta = 0.05\n[grid]\nt_max = 50\ndt = 1\n"
        )
    src = str(Path(openchain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, *map(str, configs)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
