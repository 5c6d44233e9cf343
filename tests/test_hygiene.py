"""Source hygiene: no unused imports, no rational arithmetic in the
package, no package code that only the tests call, no slot or dataclass
field that nothing reads, package imports at the top of their modules, and
no work at import time.  All six are read off the syntax tree, so no linter
is needed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "montes").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# the callers that count: the package itself and the benchmark
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(path):
    """Names bound by an import in the module and never read in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    # a package __init__ imports in order to re-export
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert found == []


def test_no_fractions_in_the_package():
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "fractions" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_package_code_only_the_tests_call():
    # A name is read as a variable, an attribute or an import.  Attributes
    # are matched by name alone, so a method counts as called when any
    # attribute of that name is read.  Dunder methods are called by the
    # language itself.
    reads = []
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                reads.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                reads.append((path, node.lineno, node.name))
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(
                name == node.name
                and (where != path or not node.lineno <= line <= node.end_lineno)
                for where, line, name in reads
            ):
                found.append(f"{path.name}:{node.lineno}: {node.name}")
    assert found == []


def declared_attributes(path):
    """(line, name) of every __slots__ entry and dataclass field in a module."""
    out = []
    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(cls, ast.ClassDef):
            continue
        dataclass = any(
            (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
            for d in cls.decorator_list
        )
        for node in cls.body:
            if dataclass and isinstance(node, ast.AnnAssign):
                out.append((node.lineno, node.target.id))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                out += [(node.lineno, elt.value) for elt in node.value.elts]
    return out


def test_no_attribute_that_nothing_reads():
    # An attribute counts as read when the package or the benchmark loads
    # any attribute of that name; stores and deletes do not count.
    reads = {
        node.attr
        for path in CALLERS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = [
        f"{path.name}:{line}: {name}"
        for path in PACKAGE
        for line, name in declared_attributes(path)
        if name not in reads
    ]
    assert found == []


def test_one_function_level_import_of_the_package():
    # cli.py imports idealgen inside the helper that runs factor and bench,
    # so that a run without --generators never loads it; every other import
    # of a package module sits at the top of its module
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if node in tree.body:
                continue
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "montes"
            ):
                found.append((path.name, node.module, [a.name for a in node.names]))
            elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "montes" for a in node.names
            ):
                found.append((path.name, None, [a.name for a in node.names]))
    assert found == [("cli.py", "idealgen", ["compute_generators"])]


def test_no_call_at_import_time():
    # What a module runs when it is imported is paid by every run, `montes
    # factor` and the benchmark's set-up alike, so a module-level statement
    # of the package calls nothing: no table or cache is built at import.
    # Definitions and the `__main__` guard do not count; the one exception
    # is the constant polynomial x of zpoly.
    found = []
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'":
                continue
            if any(isinstance(node, ast.Call) for node in ast.walk(stmt)):
                found.append(f"{path.name}: {ast.unparse(stmt)}")
    assert found == ["zpoly.py: X = IntPolynomial((0, 1))"]
