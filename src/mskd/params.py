"""Field schemas (kind, default, check) of every config object, and their reader.

A schema maps each field name to ``(JSON kind, default)`` or ``(JSON kind, default,
check, message)``, where a default of ``...`` marks a required field. The objects of
the world and each kind's ``params`` are declared here; the ``bounds``, each scale of
``operators``, the ``trainer``, the ``fixed_point`` and safety params and the ranged world
fields (``vocab.size``, ``importance``, ``measure_weight``, ``teachers.count``) are their
classes' ``FIELDS`` (``schema``), so the parser and the constructors check the same values.
``read_section`` resolves an object into a read-only mapping with every field of its
schema: absent fields take their defaults, and present ones come back as their kind. It
names every unknown, missing and bad field, one line per field, so a bad config exits
with code 2 before anything runs. The keys of ``PARAMS`` are the experiment kinds;
``KIND_CHECKS`` holds their cross-section checks.
"""

from __future__ import annotations

import re
from collections import Counter
from types import MappingProxyType

import numpy as np

from .core import (CONSTRUCTION_TOL, NONNEGATIVE, POSITIVE, UNIT, ContextSpec, ParseError, TaskSpec,
                   TeacherBank, VocabularySpec, World, at_least, field_problem, finite_sum)
from .distill import FIT_POINTS
from .dynamics import MIN_VARIANCE_SAMPLES, WeightUpdateConfig
from .safety import SafetyConfig


def _numbers(v: list) -> bool:
    """Whether every item of the list ``v`` is a JSON number (a bool is none)."""
    return set(map(type, v)) <= {int, float}


def read_section(section: dict, schema: dict, prefix: str, world: World | None = None):
    """``section`` resolved against ``schema``; a ``ParseError`` holds one line per bad field.

    Each field is judged by ``core.field_problem`` (``world`` None if it did not parse): an
    integer passes as a float and comes back as one, and null passes where the default is
    null. A field whose default is ``...`` is required, as is a ``section`` given as ``...``.
    A number whose float value is not finite, in a field of any kind, gets the line of the
    parser's walk of the document, ``path: non-finite number``, which the parser reports once.
    """
    if not isinstance(section, dict):
        problem = "missing field" if section is ... else "must be an object"
        raise ParseError(f"{prefix[:-1]}: {problem}")
    errors = [f"{prefix}{name}: unknown field" for name in section if name not in schema]
    fields = {}
    for name, (kind, default, *check) in schema.items():
        value = section.get(name, default)
        if value is ...:
            errors.append(f"{prefix}{name}: missing field")
        elif type(value) in (int, float) and not finite_sum([value]):  # whatever the kind
            errors.append(f"{prefix}{name}: non-finite number")
        elif (value is not None or default is not None) and (
                problem := field_problem(value, kind, *check, world=world)):
            errors.append(f"{prefix}{name}: {problem}")
        else:
            fields[name] = float(value) if kind is float and value is not None else value
    if errors:
        raise ParseError(*errors)
    return MappingProxyType(fields)


def schema(cls, **cli_defaults) -> dict:
    """A config dataclass's ``FIELDS`` as a schema, each default the class's unless given."""
    return {name: (kind, cli_defaults.get(name, getattr(cls, name, ...)), *check)
            for name, (kind, *check) in cls.FIELDS.items()}


_NUMBER_LIST = (lambda v, _: _numbers(v), "must be a list of numbers")


def _scores_by_task(scores: dict, _) -> bool | str:
    """Task ids written in decimal, each mapped to a list of numbers.

    A key is judged by its text alone: at most 4,300 digits, the most that
    Python reads as an integer, so ``int`` never sees one it would refuse.
    """
    bad = [k for k in scores if not re.fullmatch(r"0|-?[1-9][0-9]{0,4299}", k)]
    if bad:
        key = bad[0] if len(bad[0]) <= 24 else f"{bad[0][:12]}...({len(bad[0])} characters)"
        return f"task id {key!r} is not an integer in decimal"
    return all(isinstance(s, list) and _numbers(s) for s in scores.values())


# the objects of a world, by kind; a ranged field is its spec class's FIELDS entry
WORLD_FIELDS = {
    "world": {"vocab": (dict, ...), "inputs": (list, ...), "tasks": (list, ...),
              "contexts": (list, ...), "teachers": (dict, ...)},
    "vocab": {**schema(VocabularySpec), "safety_tokens": (
        list, [], lambda v, _: all(type(i) is int for i in v), "must be a list of token ids")},
    "input": {"id": (int, ...), "features": (list, ..., *_NUMBER_LIST)},
    "task": {"id": (int, ...), "inputs": (
        list, ..., lambda v, _: all(isinstance(p, list) and len(p) == 2 and type(p[0]) is int
                                    and _numbers(p[1:]) for p in v),
        "must be a list of [input id, weight] pairs"), **schema(TaskSpec)},
    "context": {"id": (int, ...), "features": (list, ..., *_NUMBER_LIST), **schema(ContextSpec),
                "safety_critical": (bool, False)},
    "teachers": {"count": schema(TeacherBank)["num_teachers"], "table": (list, ...),
                 "perf_scores": (dict, ..., _scores_by_task,
                                 "must map each task id to a list of numbers"),
                 "safety_scores": (list, ..., *_NUMBER_LIST)},
    "table cell": {"input": (int, ...), "context": (int, ...), "dists": (
        list, ..., lambda v, _: all(isinstance(r, list) and _numbers(r) for r in v),
        "must be a list of lists of numbers")},
}


def _labels(rows: list, world: World | None) -> bool | str:
    """Known ids, and one label for each (input, context) pair of positive measure."""
    fields = ("input", "context", "token")
    if not all(isinstance(r, dict) and r.keys() == set(fields)
               and all(type(r[f]) is int for f in fields) for r in rows):
        return False
    if world is None:
        return True
    known = {"input": {x.id for x in world.inputs}, "context": {c.id for c in world.contexts},
             "token": range(world.vocab.size)}
    pairs = Counter((r["input"], r["context"]) for r in rows)
    needed = [(world.inputs[x].id, world.contexts[c].id)
              for x, c in zip(*np.nonzero(world.pair_measure()))]
    problems = [f"unknown {f} {r[f]}" for r in rows for f in known if r[f] not in known[f]]
    problems += [f"two labels for (input {x}, context {c})" for (x, c), n in pairs.items() if n > 1]
    problems += [f"no label for (input {x}, context {c})" for x, c in needed if (x, c) not in pairs]
    return "; ".join(problems) or True


_SAFETY_PARAMS = {**schema(SafetyConfig, s_min=0.5), "labels": (
    list, ..., _labels, "must be a list of {input, context, token} objects of integers")}

# kind -> the params its suite reads; a "ridge" defaults to the trainer's ridge where
# that is positive
PARAMS = {
    "appendix_a": {"given_entropies": (
        list, [0.68, 1.52],
        lambda v, world: _numbers(v) and min(v, default=-1) >= 0
        and (world is None or len(v) == world.bank.k),
        "must be one nonnegative number per teacher")},
    "conformance": {"n_samples": (int, 1000, *at_least(1)), "scales": (
        list, ["token", "task", "context"],
        lambda v, _: 0 < len(v) == len({s for s in v if s in ("token", "task", "context")}),
        "must be a nonempty list of distinct scales: 'token', 'task' and 'context'")},
    "train": {"compare_classic": (bool, False)},
    "rate": {"n_seeds": (int, 10, *at_least(1)), "kl_tol": (float, 1e-3, *NONNEGATIVE),
             "slope_low": (float, -1.3), "slope_high": (float, -0.7)},
    "fixed_point": {**schema(WeightUpdateConfig), "n_pairs": (int, 100, *at_least(1)),
                    "n_starts": (int, 10, *at_least(0))},
    "perturbation": {"ridge": (float, 0.01, *POSITIVE), "deltas": (
        list, [1e-3, 1e-2, 1e-1],
        lambda v, _: _numbers(v) and min(v, default=-1) >= 0 and max(v) > 0,
        "must be a list of nonnegative numbers, at least one positive")},
    "variance": {"n_samples": (int, 10_000, *at_least(MIN_VARIANCE_SAMPLES)),
                 "init_scale": (float, 1.0, *NONNEGATIVE)},
    "safety": {**_SAFETY_PARAMS, "s_min_inactive": (float, None, *UNIT)},
    "pareto": {**_SAFETY_PARAMS, "mu_max": (float, 2.0, *NONNEGATIVE),
               "n_mu": (int, 20, *at_least(1)), "ridge": (float, 0.01, *POSITIVE)},
}


def _zero_mass(world: World, solved, per_cell: bool, solve: str) -> str | None:
    """The line naming the first token, in world order, whose log ``solve`` needs and no teacher
    holds: in one live cell of the ``solved`` contexts if ``per_cell``, else in all of an input's.
    Without ``per_cell`` an input that no task samples has no target at all, and its line says so."""
    pm = world.pair_measure()
    live = pm * solved != 0.0
    held = live[..., None] & (world.teacher_dists() > 0.0).any(axis=2)  # (N, C, V)
    unsampled = ~pm.any(axis=1)
    empty = np.argwhere(live[..., None] & ~held if per_cell  # (x, c, i) or (x, i)
                        else ~held.any(axis=1) & live.any(axis=1)[:, None] | unsampled[:, None])
    if len(empty):  # the first in world order
        x, *c, i = empty[0].tolist()
        if not c and unsampled[x]:
            return (f"world.tasks: input {world.inputs[x].id} has no sampling weight in any task; "
                    f"{solve} needs every input sampled")
        where = (f"at input {world.inputs[x].id}, context {world.contexts[c[0]].id}" if c
                 else f"in every live context of input {world.inputs[x].id}")
        return (f"world.teachers.table: token {i} has zero mass under every teacher {where}; "
                f"{solve} needs it positive in some teacher")
    return None


# kind -> its checks across the parsed sections, run in order: each takes (params, world,
# bounds, trainer), any of them None if it did not parse, and returns an error line or None
KIND_CHECKS = {
    "appendix_a": (lambda p, w, b, t: w and (w.bank.k != 2 or w.vocab.size < 3) and (
        f"world: an appendix_a run needs 2 teachers and at least 3 tokens, got K={w.bank.k}, "
        f"V={w.vocab.size}") or None,),  # the suite reads two weights, three ensemble entries
    "rate": (  # the fit reads ceil(steps / eval_every) records after step 0
        lambda p, w, b, t: t and (n := -(-t.steps // t.eval_every)) < FIT_POINTS and (
            f"trainer: a rate fit needs at least {FIT_POINTS} eval records after step 0, got "
            f"ceil(steps / eval_every) = {n}") or None,
        lambda p, w, b, t: p and p["slope_low"] > p["slope_high"] and (
            f"params: slope_low {p['slope_low']} exceeds slope_high {p['slope_high']}; "
            "no slope passes both rate checks") or None,
        lambda p, w, b, t: w and t and t.ridge == 0.0 and _zero_mass(
            w, True, False, "a ridge-free rate solve") or None),
    "fixed_point": (  # the contraction needs two weight vectors, the update every log
        lambda p, w, b, t: b and w and min(abs(w.bank.k * x - 1.0) for x in (
            b.w_min, b.w_max)) <= CONSTRUCTION_TOL and (
            f"bounds: admit one weight vector for K={w.bank.k}; a fixed_point run needs "
            "K*w_min < 1 < K*w_max") or None,
        lambda p, w, b, t: w and _zero_mass(w, True, True, "a fixed_point run") or None),
    "safety": (  # dual ascent needs strict convexity, the Jensen check a context to condition on
        lambda p, w, b, t: t and t.ridge <= 0 and (
            "trainer.ridge: must be positive for a safety run") or None,
        lambda p, w, b, t: w and not any(
            c.is_safety_critical and c.measure_weight > 0 for c in w.contexts) and (
            "world.contexts: a safety run needs a safety-critical context with positive "
            "measure_weight") or None,
        lambda p, w, b, t: w and _zero_mass(w, [c.is_safety_critical for c in w.contexts],
                                            False, "a ridge-free safety solve") or None),
}
