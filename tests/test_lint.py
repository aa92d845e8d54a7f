"""No module imports a name that it never uses, the package defines no
private name and no method that nothing uses, no package module binds one
top-level name twice or makes a public alias, and no package module imports
``dataclasses``.

No linter is installed, so this is a stdlib ``ast`` scan of the package
modules and the tests.  An import counts as used when the name appears
anywhere in its module as an identifier (``__init__.py`` is skipped, since
it re-exports).  A private top-level function, class or constant of
the package, or a method of a package class that is not a dunder, counts
as used when any module names it outside its own definition, as an
identifier, an attribute or an imported name; the test modules count.  The
check goes by name alone, so a method shares its uses with every other
attribute of that name.  A second
top-level binding (a def, class, assignment or import) silently shadows the
first, so a public wrapper left above an older body of the same name would
leave one of the two dead.  A public top-level name bound to a bare name or
an attribute (``Rat = Fraction``) is a second public name for one object,
so a caller has two spellings of one question.  ``dataclasses`` and the ``inspect`` it loads
were most of the time ``import bnlocus`` took, so the records are
namedtuples or classes with ``__slots__``.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _modules() -> list[Path]:
    package = [p for p in (ROOT / "src" / "bnlocus").glob("*.py") if p.name != "__init__.py"]
    return sorted(package + list((ROOT / "tests").glob("*.py")))


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


def _private_definitions(tree: ast.Module):
    """(name, node) for each private top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _definitions(tree: ast.Module):
    """The private top-level definitions, then ("Class.method", node) for
    each method of a top-level class whose name is not a dunder."""
    yield from _private_definitions(tree)
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))):
                    yield f"{cls.name}.{node.name}", node


def _units(tree: ast.Module):
    """The top-level statements, each class split into its bases, decorators
    and body statements, so that one method's body can use another."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from node.bases + node.keywords + node.decorator_list + node.body
        else:
            yield node


def _references(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def dead_private_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in _modules() + [ROOT / "src" / "bnlocus" / "__init__.py"]}
    # the names each unit references, so that a definition's own units do not count
    refs = [(unit, _references(unit)) for tree in trees.values() for unit in _units(tree)]
    dead = []
    for path, tree in trees.items():
        if path.parent.name != "bnlocus":
            continue
        for label, node in _definitions(tree):
            name, own = label.rsplit(".", 1)[-1], {id(sub) for sub in ast.walk(node)}
            if not any(name in names for unit, names in refs if id(unit) not in own):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno}: {label}")
    return sorted(dead)


def test_no_dead_private_names():
    assert dead_private_names() == []


def _top_level_bindings(tree: ast.Module):
    """Each name a top-level statement binds: defs, classes, assignment
    targets (unpacked too), annotated targets and imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def rebound_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    counts = Counter(_top_level_bindings(tree))
    return [f"{path.relative_to(ROOT)}: {name} bound {n} times" for name, n in counts.items() if n > 1]


def test_no_top_level_name_bound_twice():
    package = sorted((ROOT / "src" / "bnlocus").glob("*.py"))
    assert [hit for path in package for hit in rebound_names(path)] == []


def public_aliases(path: Path) -> list[str]:
    """Each public top-level name that an assignment binds to a bare name or
    an attribute, such as ``Rat = Fraction``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, (ast.Name, ast.Attribute)):
            hits += [f"{path.relative_to(ROOT)}:{node.lineno}: {t.id}" for t in targets
                     if isinstance(t, ast.Name) and not t.id.startswith("_")]
    return hits


def test_no_public_alias():
    package = sorted((ROOT / "src" / "bnlocus").glob("*.py"))
    assert [hit for path in package for hit in public_aliases(path)] == []


def dataclasses_imports(path: Path) -> list[str]:
    """Each import of ``dataclasses`` in a module, at any depth."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        hits += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names
                 if name.split(".")[0] == "dataclasses"]
    return hits


def test_package_does_not_import_dataclasses():
    package = sorted((ROOT / "src" / "bnlocus").glob("*.py"))
    assert [hit for path in package for hit in dataclasses_imports(path)] == []
