"""README's Python examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

_README = Path(__file__).parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_EXPECTED = re.compile(r"\)\s+# (.*)$")


def test_readme_python_blocks_print_what_they_say():
    blocks = _BLOCK.findall(_README.read_text())
    assert blocks
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(_README), "exec"), {})
        prints = [line for line in block.splitlines()
                  if line.startswith("print(")]
        printed = out.getvalue().splitlines()
        assert len(printed) == len(prints), out.getvalue()
        for line, got in zip(prints, printed):
            expected = _EXPECTED.search(line)
            if expected:
                assert got == expected.group(1), line
