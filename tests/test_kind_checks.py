"""Each experiment kind is declared once, in ``params.PARAMS``, with its checks beside it.

``params.KIND_CHECKS`` holds each kind's checks across config sections, and
``runner.parse_config_dict`` runs them in one loop. The CLI module keeps no
rule of its own for one kind: the guard below reads ``runner.py`` with ``ast``
and fails on any comparison of ``kind`` (or ``<object>.kind``) with a string
literal, so a new per-kind rule goes into the registry. A second guard reads
every library signature with ``inspect`` and fails on a keyword default that
repeats the ``PARAMS`` default of a field of the same name: the runner passes
each such value, so the schema's default is the only one.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import mskd
from mskd import runner
from mskd.params import KIND_CHECKS, PARAMS

RUNNER = Path(__file__).resolve().parent.parent / "src" / "mskd" / "runner.py"
KINDS = ("appendix_a", "conformance", "train", "rate", "fixed_point", "perturbation",
         "variance", "safety", "pareto")


def test_every_kind_has_a_schema_and_a_suite():
    assert tuple(PARAMS) == runner.EXPERIMENT_KINDS == KINDS
    assert tuple(runner._SUITES) == KINDS
    assert KIND_CHECKS.keys() <= PARAMS.keys()
    assert all(isinstance(checks, tuple) and all(map(callable, checks))
               for checks in KIND_CHECKS.values())


def test_list_kinds_prints_each_kind_once_in_order(capsys):
    assert runner.main(["list-kinds"]) == 0
    assert capsys.readouterr().out == "".join(f"{kind}\n" for kind in KINDS)


def _is_kind(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "kind"
            or isinstance(node, ast.Attribute) and node.attr == "kind")


def _is_text(node: ast.expr) -> bool:
    """A string literal, or a tuple, list or set literal holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_text, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_runner_compares_no_kind_with_a_string_literal():
    tree = ast.parse(RUNNER.read_text(encoding="utf-8"))
    found = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and any(map(_is_kind, [node.left, *node.comparators]))
             and any(map(_is_text, [node.left, *node.comparators]))]
    assert found == []


def _library_functions():
    """(qualified name, function) of each function and method an ``mskd`` module defines.

    The constructors of the config classes are left out: their defaults are the declarations
    that ``params.schema`` reads (a class with ``FIELDS``).
    """
    for info in pkgutil.iter_modules(mskd.__path__):
        module = importlib.import_module(f"mskd.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for name, fn in members:
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not (name == "__init__" and hasattr(obj, "FIELDS"))):
                    yield f"{module.__name__}.{fn.__qualname__}", fn


def _same_json_value(a, b) -> bool:
    """Whether a keyword default ``a`` is the JSON value ``b`` (a bool is no number)."""
    return (type(a) in (bool, int, float, str, list)
            and isinstance(a, bool) == isinstance(b, bool) and a == b)


def test_no_library_default_repeats_a_params_default():
    declared = [(name, entry[1]) for schema in PARAMS.values() for name, entry in schema.items()]
    repeated = sorted({f"{qualname}: {p.name}={p.default!r}"
                       for qualname, fn in _library_functions()
                       for p in inspect.signature(fn).parameters.values()
                       for name, default in declared
                       if p.name == name and _same_json_value(p.default, default)})
    assert repeated == []
