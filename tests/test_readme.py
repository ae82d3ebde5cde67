"""Every python block of README.md runs as written, and every Python name it
puts in backticks exists in the code."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
# a plain or dotted Python name, possibly called with no arguments: `graphon_mse`,
# `FitResult.from_json`, `verify()`
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*(?:\(\))?")


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_backticked_names_occur_in_the_code():
    code = "\n".join(path.read_text() for folder in ("src", "tools", "tests", "bench")
                     for path in sorted((ROOT / folder).rglob("*.py")))
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = {span.removesuffix("()") for span in spans if NAME.fullmatch(span)}
    assert names
    missing = sorted(name for name in names
                     if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", code))
    assert not missing, f"README.md names {missing}, which occur nowhere in the code"
