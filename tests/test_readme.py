"""README.md's "Library use" block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under Library use"
    namespace = {}
    exec(compile(block[1], "README.md", "exec"), namespace)
    assert namespace["t"].m == 11  # the loop ran
