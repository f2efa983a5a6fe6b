"""Every public function and method of ``mskd`` has a caller in the library itself.

A public name that only tests call is a wrapper to delete, and its tests are
restated on the library's own paths. The check reads the source with ``ast``:
a name counts as called when some module other than ``__init__`` loads it
(``ast.Load``) as a name, calls it as an attribute (``x.name(...)``), or loads
it as an attribute that is no field of a library dataclass (reading
``trace.mean_kl`` is not a call of ``CompiledObjective.mean_kl``). Matching by
name alone is coarse (a method shares the count of every attribute of its
name), but it never counts a test as a caller. Likewise every name a module
imports is loaded in that module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mskd"

# names kept only because perfbench/probes.py wraps them by name for the traced benchmark
PROBE_PINNED = {
    "core.Sampler.choice": "probed as core.sampler, the per-draw sampler count",
    "distill.sgd_train": "probed as distill.sgd through its runner import",
    "distill.classic_uniform_train": "probed as distill.sgd through its runner import",
    "composition.UnifiedWeightOperator.unified_weight": "probed as composition.unified_weight",
    "composition.UnifiedWeightOperator.ensemble_target": "probed as composition.ensemble_target",
    "distill.CompiledObjective.mean_kl": "probed as distill.eval",
}
# imports kept only because perfbench/probes.py wraps the importing module's binding
PROBE_IMPORTS = {
    "distill.normalize_exact": "probed as core.normalize_exact",
    "runner.sgd_train": "probed as distill.sgd",
    "runner.classic_uniform_train": "probed as distill.sgd",
}


def _public_definitions(tree: ast.Module, module: str):
    """``module.name`` and ``module.Class.method`` of each public def, with its bare name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _dataclass_fields(tree: ast.Module):
    """The field names of each ``@dataclass`` class of a module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            yield from (item.target.id for item in node.body if isinstance(item, ast.AnnAssign))


def _loaded_names(tree: ast.Module, fields: set[str]):
    """Names loaded, attributes called, and other attributes loaded that are no field."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and (
                id(node) in called or node.attr not in fields):
            yield node.attr


def _library_names() -> tuple[dict[str, str], set[str]]:
    """Every public definition, and every name the library (bar ``__init__``) loads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    fields = {name for tree in trees.values() for name in _dataclass_fields(tree)}
    defined, loaded = {}, set()
    for path, tree in trees.items():
        defined.update(_public_definitions(tree, path.stem))
        if path.name != "__init__.py":
            loaded |= set(_loaded_names(tree, fields))
    return defined, loaded


def test_every_public_name_has_a_library_caller():
    defined, loaded = _library_names()
    uncalled = {name for name, bare in defined.items() if bare not in loaded}
    assert uncalled - PROBE_PINNED.keys() == set()


def test_probe_pinned_names_are_still_needed():
    # a pinned name the library comes to call, or one that goes, leaves this list
    defined, loaded = _library_names()
    assert PROBE_PINNED.keys() <= defined.keys()
    assert {name for name in PROBE_PINNED if defined[name] in loaded} == set()


def _unloaded_imports() -> set[str]:
    """``module.name`` of each name a module (bar ``__init__``) imports and never loads."""
    unloaded = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unloaded |= {f"{path.stem}.{name}" for name in imported - loaded}
    return unloaded


def test_every_import_is_loaded():
    assert _unloaded_imports() - PROBE_IMPORTS.keys() == set()


def test_probe_imports_are_still_unloaded():
    # a pinned import the module comes to load, or one that goes, leaves this list
    assert PROBE_IMPORTS.keys() <= _unloaded_imports()
