"""Every demo runs to completion from a scratch working directory."""

import os
import subprocess
import sys

import pytest

from cli_env import checkout_env

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs(name, tmp_path):
    res = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=checkout_env())
    assert res.returncode == 0, res.stderr
