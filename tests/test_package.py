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
