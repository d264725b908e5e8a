"""The README's library quick start and command lines run as written."""

import pathlib
import re

from ellgenus.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_first_python_block_of_the_readme_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})


def test_the_command_lines_of_the_readme_exit_0(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    commands = sorted({
        tuple(line.partition("#")[0].split()[1:])
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("ellgenus ")
    })
    assert commands, "README.md has no ellgenus command line"
    # the commands read cp2.json, the first line of the input-format block
    first_input = re.search(r"```json\n(.*?)\n", text).group(1)
    (tmp_path / "cp2.json").write_text(first_input, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(list(argv)) == 0, argv
        capsys.readouterr()
