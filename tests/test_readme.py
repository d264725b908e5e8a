"""The README's library quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_first_python_block_of_the_readme_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})
