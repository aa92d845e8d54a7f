"""No module imports a name that it never uses.

No linter is installed, so this is a stdlib ``ast`` scan of the top-level
imports of the package modules (except ``__init__.py``, which re-exports),
the tests and the scripts.  A name counts as used when it appears anywhere
in the module as an identifier.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _modules() -> list[Path]:
    package = [p for p in (ROOT / "src" / "bnlocus").glob("*.py") if p.name != "__init__.py"]
    return sorted(package + list((ROOT / "tests").glob("*.py")) + list((ROOT / "scripts").glob("*.py")))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert [hit for path in _modules() for hit in unused_imports(path)] == []
