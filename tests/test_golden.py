"""Golden CLI corpus: every recorded invocation prints the same bytes and exit code,
on a first run and again on a second run in the same process.

The corpus lives in tests/golden and is written by tests/golden/generate.py;
regenerating it is a change to what this test checks.
"""
import json
from pathlib import Path

import pytest

from golden.generate import invoke

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_report(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    # argparse wraps help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN / "expected" / f"{case['id']}.txt").read_bytes()
    # the second run in the same process reads what the first left in the caches
    for _ in range(2):
        code, text = invoke(case["argv"])
        assert text.encode("utf-8") == expected
        assert code == case["exit"]
