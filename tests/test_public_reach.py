"""Every public name of the library is called from code outside its
definition.

A top-level public function or class of `src/liouville_lab`, and a public
method of such a class, must be referenced somewhere other than its own
definition: in the library, a benchmark script or the acceptance criteria.
A top-level def counts only for a reference that resolves to its module: a
bare name in that module that no enclosing function binds, a name imported
from it, or an attribute of the imported module.  A method counts for any
attribute of its name.  Names in strings, docstrings, comments and keyword
arguments do not count, and neither does the README.  Code that only its
own unit tests call serves no command, bench op or paper claim, and is
deleted or promoted to an acceptance criterion instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "liouville_lab"


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


def references(tree, own=None):
    """(module, name, line) of each load of a library module's top-level
    name in a parsed file, and (attribute, line) of each attribute load.
    own is the file's module when it is one of the library's."""
    modules, imported = {}, {}  # local name -> module, -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, mod = alias.name.partition(".")
                if top == PACKAGE:
                    modules[alias.asname or top] = (
                        mod if alias.asname else PACKAGE)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # a relative import, inside the package
                base = f"{PACKAGE}.{base}".rstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if base == PACKAGE:
                    modules[local] = alias.name
                elif base.startswith(PACKAGE + "."):
                    imported[local] = (base[len(PACKAGE) + 1:], alias.name)
    names, attrs = [], []
    for node, bound in _loads(tree, frozenset()):
        if isinstance(node, ast.Attribute):
            attrs.append((node.attr, node.lineno))
            mod = _module_of(node.value, modules)
            if mod not in (None, PACKAGE):
                names.append((mod, node.attr, node.lineno))
        elif node.id in imported:
            names.append((*imported[node.id], node.lineno))
        elif own and node.id not in bound and node.id not in modules:
            names.append((own, node.id, node.lineno))
    return names, attrs


def _module_of(node, modules):
    """The library module (or the package) an expression names, else None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if (isinstance(node, ast.Attribute)
            and _module_of(node.value, modules) == PACKAGE):
        return node.attr
    return None


def _loads(node, bound):
    """(Name or Attribute node, names bound by its enclosing functions) of
    each load below node."""
    for child in ast.iter_child_nodes(node):
        inner = bound
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            inner = bound | _bound_names(child)
        elif (isinstance(child, (ast.Name, ast.Attribute))
              and isinstance(child.ctx, ast.Load)):
            yield child, bound
        yield from _loads(child, inner)


def _bound_names(fn):
    """The parameters of a function and the names its body stores."""
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [
        a for a in (args.vararg, args.kwarg) if a]
    stores = {node.id for node in ast.walk(fn)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return stores | {a.arg for a in params}


def unreached(root):
    """The public definitions of root/src/liouville_lab that no code of the
    library (outside the definition itself), of root/bench/*.py or of
    root/tests/test_acceptance.py references, as "file:label"."""
    sources = sorted((root / "src" / "liouville_lab").glob("*.py"))
    readers = sorted((root / "bench").glob("*.py")) + [
        root / "tests" / "test_acceptance.py"]
    names, attrs = [], []
    for path in sources + readers:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = references(tree, path.stem if path in sources else None)
        names += [(path, *ref) for ref in found[0]]
        attrs += [(path, *ref) for ref in found[1]]
    out = []
    for path in sources:
        for label, name, first, last in public_definitions(path):
            refs = (attrs if "." in label else
                    [(p, n, line) for p, mod, n, line in names
                     if mod == path.stem])
            if not any(n == name and (p != path or not first <= line <= last)
                       for p, n, line in refs):
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


def test_a_same_named_attribute_or_keyword_does_not_reach(tmp_path):
    module = '''\
def norm(v):
    pass


class Form:
    @classmethod
    def zero(cls):
        pass
'''
    acceptance = ("import numpy as np\n\n"
                  "np.linalg.norm([3.0, 4.0])\n"
                  "dict(zero=True)\n")
    assert unreached(_tree(tmp_path, module, acceptance)) == [
        "mod.py:norm", "mod.py:Form", "mod.py:Form.zero"]


def test_a_local_of_the_same_name_does_not_reach(tmp_path):
    module = '''\
def preset():
    pass


def take(preset):
    return preset


def assign():
    preset = 1
    return preset
'''
    acceptance = "from liouville_lab import mod\n\nmod.take(0)\nmod.assign()\n"
    assert unreached(_tree(tmp_path, module, acceptance)) == ["mod.py:preset"]


def test_each_import_form_reaches(tmp_path):
    module = '''\
def by_name():
    pass


def by_alias():
    pass


def by_package():
    pass
'''
    acceptance = ("import liouville_lab\n"
                  "import liouville_lab.mod as m\n"
                  "from liouville_lab.mod import by_name\n\n"
                  "by_name()\nm.by_alias()\nliouville_lab.mod.by_package()\n")
    assert unreached(_tree(tmp_path, module, acceptance)) == []
