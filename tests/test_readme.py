"""README's library quick tour runs as written, and the value in each
expression line's ``# value`` comment holds."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour():
    """The python block under README's "Library quick tour" heading."""
    section = README.read_text().split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def run_documented(source):
    """Run ``source`` statement by statement; returns (expression, value,
    documented value) for each expression statement, whose documented value
    is the literal that starts the comment on its last line."""
    lines = source.splitlines()
    namespace, out = {}, []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        comment = lines[node.end_lineno - 1].split("#", 1)[1]
        documented = ast.literal_eval(re.match(r"\s*([^\s,(]+)", comment).group(1))
        text = ast.get_source_segment(source, node)
        out.append((text, eval(compile(ast.Expression(node.value), "README.md", "eval"),
                               namespace), documented))
    return out


def test_quick_tour_values_hold():
    results = run_documented(quick_tour())
    assert [documented for _, _, documented in results] == [6, True, True, 3]
    for text, value, documented in results:
        assert value == documented, text


def test_a_wrong_documented_value_is_found():
    results = run_documented("x = 2\nx + 1  # 4 (off by one)\n")
    assert results == [("x + 1", 3, 4)]
