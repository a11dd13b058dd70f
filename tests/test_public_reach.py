"""Every public name of the library is called from code outside its
definition.

A top-level public function or class of `src/liouville_lab`, and a public
method of such a class, must occur as a Python name token somewhere other
than its own definition: in the library, a benchmark script or the
acceptance criteria.  Names in strings, docstrings and comments do not
count, and neither does the README.  Code that only its own unit tests call
serves no command, bench op or paper claim, and is deleted or promoted to an
acceptance criterion instead.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_definitions(path):
    """(label, name, first line, last line) of each top-level public def or
    class and of each public method of a public class, decorators included,
    lines counted from 1."""
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
    return label, node.name, first, node.end_lineno


def code_names(text):
    """(name, line) of each NAME token of Python source, outside strings
    and comments."""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]


def unreached(root):
    """The public definitions of root/src/liouville_lab that no code token
    of the library (outside the definition itself), of root/bench/*.py or
    of root/tests/test_acceptance.py names, as "file:label"."""
    sources = sorted((root / "src" / "liouville_lab").glob("*.py"))
    readers = sorted((root / "bench").glob("*.py")) + [
        root / "tests" / "test_acceptance.py"]
    tokens = {path: list(code_names(path.read_text()))
              for path in sources + readers}
    out = []
    for path in sources:
        for label, name, first, last in public_definitions(path):
            if not any(word == name
                       and (p != path or not first <= line <= last)
                       for p, found in tokens.items() for word, line in found):
                out.append(f"{path.name}:{label}")
    return out


def test_every_public_name_is_reached():
    assert unreached(ROOT) == []


def _tree(tmp_path, module, acceptance="", readme=""):
    lib = tmp_path / "src" / "liouville_lab"
    lib.mkdir(parents=True)
    (lib / "mod.py").write_text(module)
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(acceptance)
    (tmp_path / "README.md").write_text(readme)
    return tmp_path


def test_mentions_outside_code_do_not_reach(tmp_path):
    module = '''\
"""doc_only is named in this docstring."""

# comment_only is named in this comment
LABEL = "string_only"


def doc_only():
    pass


def comment_only():
    pass


def string_only():
    pass


def readme_only():
    pass
'''
    root = _tree(tmp_path, module, readme="`readme_only()` runs it")
    assert unreached(root) == ["mod.py:doc_only", "mod.py:comment_only",
                               "mod.py:string_only", "mod.py:readme_only"]


def test_a_call_in_code_reaches(tmp_path):
    module = '''\
def called():
    pass


class Kit:
    def method(self):
        return called()
'''
    acceptance = "from liouville_lab import mod\n\nmod.Kit().method()\n"
    assert unreached(_tree(tmp_path, module, acceptance)) == []


def test_a_call_in_its_own_body_does_not_reach(tmp_path):
    module = '''\
def recurse(n):
    """recurse calls itself."""
    return recurse(n - 1) if n else 0


class Node:
    def walk(self):
        return self.walk()
'''
    assert unreached(_tree(tmp_path, module)) == [
        "mod.py:recurse", "mod.py:Node", "mod.py:Node.walk"]
