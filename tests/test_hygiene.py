"""Source hygiene: no unused imports, no rational arithmetic in the
package, no package code that only the tests call, no slot or dataclass
field that nothing reads, package imports at the top of their modules, no
work at import time, one powering loop, input errors raised only where input
arrives, no error class that nothing raises, no exception raised outside
errors.py's classes, every phi-adic expansion read lazily and every package
polygon read with a bound, and every name the benchmark imports from the
program still there.  The first eleven are read off the syntax tree, so no
linter is needed; the last also imports what it finds."""

import ast
from pathlib import Path

from montes import errors

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


def test_one_powering_loop():
    # Every power in the package goes through ffield._power, left to right
    # from the top bit: a loop that reads the bits of an exponent, by bin()
    # or by shifting it right, is a second square-and-multiply.
    found = []
    for path in PACKAGE:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (path.name, fn.name) == ("ffield.py", "_power"):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "bin"
                ) or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)):
                    found.append(f"{path.name}:{node.lineno}: {fn.name}")
    assert found == []


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


def raised_exceptions():
    """(module, innermost function, class, name) of every `raise Name` and
    `raise Name(...)` in the package, with class the montes.errors class of
    that Name, or None when Name is not one."""
    found = []

    def visit(node, module, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                cls = vars(errors).get(exc.id) if isinstance(exc, ast.Name) else None
                if not (isinstance(cls, type) and issubclass(cls, errors.MontesError)):
                    cls = None
                found.append((module, fn, cls, ast.unparse(exc)))
            visit(child, module, fn)

    for path in PACKAGE:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def raised_errors():
    """(module, innermost function, class) of every `raise Name(...)` in the
    package whose Name is a class of montes.errors."""
    return [(module, fn, cls) for module, fn, cls, _ in raised_exceptions() if cls]


def test_input_errors_raised_only_where_input_arrives():
    # Input is refused where it arrives: the CLI, the corpus families and
    # driver.py's checks on (f, p).  A failed precondition deeper down is a
    # program fault (exit code 3), with one exception: value_at_prime's
    # ZeroAtTheta, which idealgen catches.
    found = [
        f"{module}: {fn} raises {cls.__name__}"
        for module, fn, cls in raised_errors()
        if issubclass(cls, errors.InputError)
        and module not in ("cli.py", "corpus.py", "driver.py")
        and (module, fn, cls) != ("types.py", "value_at_prime", errors.ZeroAtTheta)
    ]
    assert found == []


def test_every_error_class_is_raised():
    declared = {
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and cls.__module__ == errors.__name__
    }
    raised = {cls for _, _, cls in raised_errors()}
    assert sorted(cls.__name__ for cls in declared - raised) == ["MontesError"]


def test_the_package_raises_only_its_own_errors():
    # cli.main maps a package error to exit code 2 or 3; any other exception
    # would escape it as a traceback.  The one exception is the
    # AttributeError of IntPolynomial's immutability, the language's own.
    found = [(module, fn, name) for module, fn, cls, name in raised_exceptions() if not cls]
    assert found == [("zpoly.py", "__setattr__", "AttributeError")]


def test_every_expansion_is_read_lazily():
    # phi_expand yields one digit per division, so a reader pays only for
    # the digits it pulls: every call is the iterable of a for loop, which
    # may break (enumerate passes it through), or an argument of islice or
    # next, never a list.  newton_data reads every digit unless its caller
    # passes a bound, so every package call passes one.
    lazy, found = [], []

    def visit(node, parent, module, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, node, module, child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name == "phi_expand":
                    outer = node if isinstance(node, ast.Call) else None
                    wrapped = getattr(outer and outer.func, "id", None)
                    in_for = isinstance(node, ast.For) and node.iter is child
                    if wrapped == "enumerate":
                        in_for = isinstance(parent, ast.For) and parent.iter is node
                    lazy.append(in_for or wrapped in ("islice", "next"))
                if name == "newton_data" and len(child.args) + len(child.keywords) < 2:
                    found.append((module, fn))
            visit(child, node, module, fn)

    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, None, path.name, None)
    assert lazy and all(lazy)
    assert found == []


def test_the_benchmark_imports_resolve():
    # perfbench imports from the program, at the top of a module or inside
    # a function; a name that moved or went away breaks the benchmark, not
    # the tests, and test_no_unused_imports could force such a name out.
    import importlib
    import inspect

    names = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("montes"):
                names += [(node.module, alias.name) for alias in node.names]
    assert ("montes.idealgen", "value_at_prime") in names
    for module, name in names:
        found = importlib.import_module(module)
        if not hasattr(found, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    from montes.driver import factor_prime

    assert {"seed", "refine"} <= set(inspect.signature(factor_prime).parameters)
