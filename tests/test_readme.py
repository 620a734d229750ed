"""The README's library tour runs as written, and what its comments claim
holds: each `==` line is true, each integer comment is the line's value, and
each snake_case name a comment mentions exists in the package.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import thetaparity as tp
from thetaparity import quadarith as qa

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_source():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_tour():
    source = tour_source()
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                         namespace)
            values[node.lineno] = value
            if isinstance(node.value, ast.Compare):
                assert value, ast.get_source_segment(source, node)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    lines = tokenize.generate_tokens(io.StringIO(source).readline)
    comments = [(t.start[0], t.string.lstrip("# ")) for t in lines
                if t.type == tokenize.COMMENT]
    assert comments
    for line, text in comments:
        for name in re.findall(r"\b[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b", text):
            assert hasattr(tp, name) or hasattr(qa, name), (line, name)
        if re.fullmatch(r"-?\d+", text):
            assert values[line] == int(text), (line, text)
