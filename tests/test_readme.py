"""The README's Python examples run as written."""
import os
import re
import subprocess
import sys
from pathlib import Path

import toricbdiv

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    # the child imports the package from where this process found it
    src = str(Path(toricbdiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    printed = []
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        printed += proc.stdout.splitlines()
    # the quick start's volume, mass and Chern-Weil verdict
    assert printed[:3] == ["4", "4", "equal"]
