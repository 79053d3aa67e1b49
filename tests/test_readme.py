"""README's library example runs as written, and its commented values hold.

The python block under "Library" is executed line by line; every line that
ends in a comment is checked against the value the comment states. A comment
this module does not know fails the test, so the example and its check
change together.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _expected(value, comment: str) -> None:
    if comment == "True":
        assert value is True
    elif comment == "<= 1e-10":
        assert value <= 1e-10
    elif comment == "weights (0.5, 0.5)":
        np.testing.assert_allclose(value.weights, [0.5, 0.5], rtol=0, atol=1e-12)
    elif comment == "decohered mixture":
        np.testing.assert_allclose(value, np.diag([0.5, 0.0, 0.0, 0.5]), rtol=0, atol=1e-12)
    elif comment == "(|00> + |11>)/sqrt(2)":
        np.testing.assert_allclose(value.reshape(-1), np.array([1, 0, 0, 1]) / np.sqrt(2), rtol=0, atol=1e-12)
    else:
        raise AssertionError(f"README comment {comment!r} has no check")


def test_library_example():
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None
    namespace: dict = {}
    checked = []
    for line in block.group(1).splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not comment:
            exec(code, namespace)
            continue
        (statement,) = ast.parse(code).body
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
        else:  # an assignment: its comment describes the assigned value
            exec(code, namespace)
            value = namespace[statement.targets[0].id]
        _expected(value, comment)
        checked.append(comment)
    assert checked == [
        "True",
        "True",
        "<= 1e-10",
        "True",
        "weights (0.5, 0.5)",
        "decohered mixture",
        "(|00> + |11>)/sqrt(2)",
        "<= 1e-10",
    ]
