"""Every public name of the library is reached from outside its definition.

A top-level public function or class of `src/liouville_lab`, and a public
method of such a class, must be named, as a whole word, somewhere other
than its own definition: in the library, a benchmark script, the acceptance
criteria or the README.  Code that only
its own unit tests call serves no command, bench op or paper claim, and is
deleted or promoted to an acceptance criterion instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "liouville_lab").glob("*.py"))
READERS = sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py", ROOT / "README.md",
]


def public_definitions(path):
    """(label, name, first line, last line) of each top-level public def or
    class and of each public method of a public class, decorators included,
    lines counted from 0."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in _public(tree.body):
        yield _span(node.name, node)
        if isinstance(node, ast.ClassDef):
            for method in _public(node.body):
                yield _span(f"{node.name}.{method.name}", method)


def _public(body):
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _span(label, node):
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return label, node.name, first - 1, node.end_lineno


def test_every_public_name_is_reached():
    texts = {path: path.read_text() for path in SRC + READERS}
    unreached = []
    for path in SRC:
        lines = texts[path].splitlines(keepends=True)
        for label, name, first, last in public_definitions(path):
            outside = "".join(lines[:first] + lines[last:])
            corpus = [outside] + [t for p, t in texts.items() if p != path]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in corpus):
                unreached.append(f"{path.name}:{label}")
    assert unreached == []
