"""Checks of the typed fields of an experiment config and of its ``params``.

``read_section`` reads the bounds, operator and trainer sections field by
field: each value must be a JSON value of its field's kind, and a field name
the section does not know is an error. Each experiment kind reads its own
fields from ``params``, with defaults for absent ones. ``param_errors`` names
every field the kind does not read and every present field of the wrong type
or out of range. The config parser thus rejects such a config before anything
runs (``mskd validate`` and ``mskd run`` exit with code 2). Non-finite numbers
are left to the parser's own walk of the document.
"""

from __future__ import annotations

from .core import World


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(_is_number(x) for x in v)


def json_value(kind: type, value, name: str):
    """``value`` as ``kind`` if it is a JSON value of that kind (an integer passes as a float)."""
    if isinstance(value, bool) != (kind is bool) or \
            not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")
    return kind(value)


def read_section(section: dict, schema: dict, prefix: str = "") -> dict:
    """Each field of ``schema`` read from ``section`` with its kind, or its default if absent."""
    unknown = [name for name in section if name not in schema]
    if unknown:
        raise ValueError(f"unknown field {prefix}{unknown[0]}")
    return {name: json_value(kind, section.get(name, default), prefix + name)
            for name, (kind, default) in schema.items()}


# field -> (JSON kind, default) of the bounds, operator and trainer sections (the
# trainer's seed defaults to the config's seed)
BOUNDS_FIELDS = {"w_min": (float, 0.01), "w_max": (float, 0.99), "lipschitz": (float, 25.0)}
OPERATOR_FIELDS = {"token": {"family": (str, "uniform"), "alpha": (float, 1.0),
                             "safety_adjustment": (bool, True)},
                   "task": {"family": (str, "uniform"), "tau": (float, 0.5)},
                   "context": {"family": (str, "uniform")}}
TRAINER_FIELDS = {"eta0": (float, 1.0), "steps": (int, 1000), "ridge": (float, 0.0),
                  "eval_every": (int, 100), "init_scale": (float, 0.0)}


def _param(ok, message):
    """A check of one ``params`` field: ``ok(value, world)`` or the error ``message``."""
    return lambda value, world: None if ok(value, world) else message


def _count(lo: int):
    return _param(lambda v, _: _is_int(v) and v >= lo, f"must be an integer >= {lo}")


_UNIT = _param(lambda v, _: _is_number(v) and 0 < v <= 1, "must be a number in (0, 1]")
_POSITIVE = _param(lambda v, _: _is_number(v) and v > 0, "must be a positive number")
_NONNEGATIVE = _param(lambda v, _: _is_number(v) and v >= 0, "must be a nonnegative number")
_NUMBER = _param(lambda v, _: _is_number(v), "must be a number")


def _labels(rows, world: World | None) -> str | None:
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) and all(_is_int(r.get(f)) for f in ("input", "context", "token"))
            for r in rows):
        return "must be a list of objects with integer input, context and token"
    if world is None:
        return None
    known = {"input": {x.id for x in world.inputs}, "context": {c.id for c in world.contexts},
             "token": range(world.vocab.size)}
    unknown = [f"{f} {r[f]}" for r in rows for f in known if r[f] not in known[f]]
    return "unknown " + ", ".join(unknown) if unknown else None


_SAFETY_PARAMS = {"s_min": _UNIT, "dual_step": _POSITIVE, "max_dual_iters": _count(1),
                  "labels": _labels}

# kind -> the checks of the params its suite reads; an absent field takes its default
PARAM_CHECKS = {
    "appendix_a": {"given_entropies": _param(
        lambda v, world: _is_numbers(v) and min(v, default=-1) >= 0
        and (world is None or len(v) == world.bank.k),
        "must be one nonnegative number per teacher")},
    "conformance": {"n_samples": _count(1), "scales": _param(
        lambda v, _: isinstance(v, list) and all(s in ("token", "task", "context") for s in v),
        "must be a list of 'token', 'task' and 'context'")},
    "train": {"compare_classic": _param(lambda v, _: isinstance(v, bool), "must be true or false")},
    "rate": {"n_seeds": _count(1), "kl_tol": _NONNEGATIVE, "slope_low": _NUMBER,
             "slope_high": _NUMBER},
    "fixed_point": {"beta": _UNIT, "max_iters": _count(1), "tol": _POSITIVE,
                    "n_pairs": _count(1), "n_starts": _count(0)},
    "perturbation": {"ridge": _POSITIVE, "deltas": _param(
        lambda v, _: _is_numbers(v) and min(v, default=-1) >= 0 and max(v) > 0,
        "must be a list of nonnegative numbers, at least one positive")},
    "variance": {"n_samples": _count(100), "init_scale": _NUMBER},
    "safety": {**_SAFETY_PARAMS, "s_min_inactive": _param(
        lambda v, _: v is None or (_is_number(v) and 0 < v <= 1),
        "must be null or a number in (0, 1]")},
    "pareto": {**_SAFETY_PARAMS, "mu_max": _NONNEGATIVE, "n_mu": _count(1), "ridge": _POSITIVE,
               "mu_grid": _param(
                   lambda v, _: v is None or (_is_numbers(v) and min(v, default=-1) >= 0
                                              and v == sorted(v)),
                   "must be null or a nonempty ascending list of nonnegative numbers")},
}


def param_errors(kind: str, params: dict, world: World | None) -> list[str]:
    """One line per field of ``params`` that the ``kind`` suite does not read or cannot run with."""
    found = [(name, "unknown field") for name in params if name not in PARAM_CHECKS[kind]]
    found += ((name, check(params[name], world))
              for name, check in PARAM_CHECKS[kind].items() if name in params)
    return [f"params.{name}: {problem}" for name, problem in found if problem]
