import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defined(tree):
    """The names of the module's top-level functions and classes and of each
    class's methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef))


def test_every_definition_has_a_caller_outside_the_tests():
    # code that only tests call belongs in the tests, so the package carries
    # no second path that the pipeline never takes
    referenced = set()
    for directory in ("src", "scripts", "stagebench"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    unreferenced = [
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src" / "minidapt").glob("*.py"))
        for name in _defined(ast.parse(path.read_text(encoding="utf-8")))
        if not (name.startswith("__") and name.endswith("__")) and name not in referenced]
    assert unreferenced == []


def _parameters_with_defaults(tree):
    """(function, parameter, position) for each parameter with a default of
    every def in the module, nested ones too. A class's `__init__` goes by
    the class name, and a method's `self` or `cls` takes no position; a
    keyword-only parameter has position None."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                if cls is not None and not any(
                        getattr(d, "id", None) == "staticmethod" for d in child.decorator_list):
                    positional = positional[1:]
                name = cls.name if cls is not None and child.name == "__init__" else child.name
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield name, arg.arg, i
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None
                yield from walk(child, None)
            else:
                yield from walk(child, cls)
    yield from walk(tree, None)


def _passed_arguments(directories):
    """(called name, keyword or position) for every argument of every call
    in the directories, with "*" for a call that passes `*` or `**`; a name
    bound by `from … import x as y` resolves to x."""
    passed = set()
    for directory in directories:
        for path in (ROOT / directory).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            aliases = {a.asname: a.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    name = aliases.get(name, name)
                    passed.update((name, "*" if isinstance(arg, ast.Starred) else i)
                                  for i, arg in enumerate(node.args))
                    passed.update((name, kw.arg or "*") for kw in node.keywords)
    return passed


def _unpassed(paths, directories):
    passed = _passed_arguments(directories)
    return [f"{path.name}:{function}({parameter})"
            for path in paths
            for function, parameter, position in _parameters_with_defaults(
                ast.parse(path.read_text(encoding="utf-8")))
            if not {(function, parameter), (function, position), (function, "*")} & passed]


def test_every_parameter_with_a_default_is_passed_outside_the_tests():
    # a default that only tests override is a knob nobody turns: it is a
    # constant, and a test reads the constant instead
    assert _unpassed(sorted((ROOT / "src" / "minidapt").glob("*.py")),
                     ["src", "scripts", "stagebench"]) == []


def test_every_test_helper_parameter_with_a_default_is_passed():
    # the same rule for the shared test helpers, whose callers are the tests
    assert _unpassed([ROOT / "tests" / "conftest.py"], ["tests"]) == []


def test_every_module_level_import_is_read():
    unread = []
    for directory in ("src", "tests", "scripts"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":  # imports there are the package's names
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unread += [f"{path.relative_to(ROOT)}:{bound}"
                       for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                       for alias in node.names
                       if (bound := alias.asname or alias.name.split(".")[0]) not in read]
    assert unread == []
