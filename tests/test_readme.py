"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_output_comments():
    section = README.read_text().split("## Library use", 1)[1]
    lines = re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()
    # the block ends with its printed lines, each as a "# " comment
    expected = []
    while lines[-1].startswith("# "):
        expected.insert(0, lines.pop()[2:])
    assert expected
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile("\n".join(lines), str(README), "exec"), {})
    assert printed.getvalue().splitlines() == expected
