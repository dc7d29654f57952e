"""The package namespace and the README's Library example."""

import re
from pathlib import Path

import numpy as np
import pytest

import openchain

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    missing = [name for name in openchain.__all__ if not hasattr(openchain, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    capsys.readouterr()
    # the figures the README's comments document
    assert namespace["series"].p_region[-1] == pytest.approx(0.82, abs=0.01)
    assert abs(namespace["run"].entropy[-1] - np.log(2.0)) <= 1e-2
