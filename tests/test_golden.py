"""Golden CLI corpus: every recorded invocation prints the same bytes and exit code,
on a first run and again on a second run in the same process.

The corpus lives in tests/golden and is written by tests/golden/generate.py;
regenerating it is a change to what this test checks.
"""
import hashlib
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


def _with_offset(data, offset: str):
    """The JSON value with every metric piece given the offset."""
    if isinstance(data, list):
        return [_with_offset(x, offset) for x in data]
    if isinstance(data, dict):
        out = {k: _with_offset(v, offset) for k, v in data.items()}
        if "slope" in out:
            out["offset"] = offset
        return out
    return data


def test_reports_differ_only_in_the_scenario_hash_when_every_offset_changes(tmp_path, monkeypatch):
    # the invariants read only the slopes' hull, so an offset moves no output
    digests = {}
    for path in GOLDEN.glob("*.json"):
        raw = path.read_bytes()
        data = json.loads(raw)
        rewritten = _with_offset(data, "-9/7")
        if rewritten != data:
            raw_new = (json.dumps(rewritten, indent=1) + "\n").encode("utf-8")
            digests[hashlib.sha256(raw).hexdigest()] = hashlib.sha256(raw_new).hexdigest()
            raw = raw_new
        (tmp_path / path.name).write_bytes(raw)
    assert len(digests) >= 5
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    moved = 0
    for case in CASES:
        expected = (GOLDEN / "expected" / f"{case['id']}.txt").read_text(encoding="utf-8")
        for old, new in digests.items():
            expected = expected.replace(old, new)
        code, text = invoke(case["argv"])
        assert (code, text) == (case["exit"], expected), case["id"]
        moved += text != (GOLDEN / "expected" / f"{case['id']}.txt").read_text(encoding="utf-8")
    assert moved >= 40
