"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return block


def test_readme_example_prints_its_comments():
    block = python_block()
    expected = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    printed = []

    def capture(*args):
        printed.append(" ".join(str(a) for a in args))

    exec(compile(block, str(README), "exec"), {"print": capture})
    assert expected and printed == expected
