"""The Python examples of README.md run, and say what they print.

Each ```python block runs as written, statement by statement.  A
statement that is an expression ending in a comment, ``EXPR  # VALUE``,
is a documented value: ``repr(EXPR)`` must equal VALUE, which ends at
an em dash if the comment goes on to explain it.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    README.read_text(encoding="utf-8"), re.M | re.S)


def _comments(source):
    """line number -> text of the comment on that line"""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:] for t in tokens
            if t.type == tokenize.COMMENT}


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 4


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_example(block):
    comments = _comments(block)
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        comment = comments.get(stmt.end_lineno)
        if isinstance(stmt, ast.Expr) and comment is not None:
            value = eval(compile(ast.Expression(stmt.value), README.name,
                                 "eval"), namespace)
            assert repr(value) == comment.split("—")[0].strip(), \
                ast.get_source_segment(block, stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), README.name, "exec"),
                 namespace)
    assert checked, "a README example documents no value"
