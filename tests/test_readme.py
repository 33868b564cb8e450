"""The README's Python examples run as written and show what their comments say."""

import ast
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.DOTALL)


def _shown(block):
    # run the block statement by statement; collect each bare expression's value
    namespace, shown = {}, []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            shown.append(eval(code, namespace))
        else:
            exec(code, namespace)
    return shown


def test_readme_examples_show_their_commented_values():
    quick_start, selection = BLOCKS
    expected = [
        (quick_start, ["0f0b110d", 8, [(0, 5, 15), (1, 1, 11), (2, 7, 17), (3, 3, 13)]]),
        (selection, [0, frozenset({0})]),
    ]
    for block, values in expected:
        assert _shown(block) == values
        # the comments show these values as written
        for value in values:
            assert repr(value) in block, value
