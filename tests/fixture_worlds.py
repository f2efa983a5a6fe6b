"""The toy worlds of the tests, read from the bundled configs.

``configs/*.json`` are the one definition of the toy worlds. A world that no
config holds is an edit of a bundled document, made here.
"""

import importlib.util
import json
from pathlib import Path

from mskd.core import World
from mskd.runner import parse_config, parse_config_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GEN_WORLD = CONFIGS.parent / "perfbench" / "gen_world.py"


def bundled_doc(kind: str) -> dict:
    """A fresh copy of the bundled ``kind`` config document."""
    return json.loads((CONFIGS / f"{kind}.json").read_text())


def large_doc(kind: str, seed: int = 0) -> dict:
    """The benchmark's generated large-world ``kind`` document (``perturbation`` or ``safety``).

    ``perfbench/gen_world.py`` is loaded from its file: it is not part of the package.
    """
    spec = importlib.util.spec_from_file_location(GEN_WORLD.stem, GEN_WORLD)
    gen_world = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_world)
    return getattr(gen_world, f"{kind}_doc")(seed)


def appendix_world() -> World:
    """Two teachers over a three-token vocabulary, one cell, no safety set."""
    return parse_config(CONFIGS / "appendix_a.json").world


def convergence_world() -> World:
    """K=3, V=10, two tasks, two contexts, eight inputs.

    Each teacher places a cosine bump around the input's token at phase
    2*pi*k/3; the phases cancel, so the uniform mixture is exactly uniform and
    the ridge bias at the regularized optimum stays below the convergence
    tolerances, while the teachers' entropies still differ.
    """
    return parse_config(CONFIGS / "train.json").world


def conformance_world(kind: str = "sharp_safe") -> World:
    """Tiered three-teacher bank whose teachers differ only by temperature.

    ``sharp_safe`` ranks the sharpest teacher safest and best; ``flat_safe``
    is the same bank with each score list reversed, so the flattest teacher
    ranks safest and best.
    """
    doc = bundled_doc("conformance")
    if kind == "flat_safe":
        teachers = doc["world"]["teachers"]
        for scores in (teachers["safety_scores"], *teachers["perf_scores"].values()):
            scores.reverse()
    elif kind != "sharp_safe":
        raise ValueError(f"unknown conformance world kind {kind!r}")
    return parse_config_dict(doc).world


def zero_entry_world() -> World:
    """The convergence world with zero entries and safety tokens {0, 3}.

    Teacher k's row at the n-th table cell keeps token i only where
    ``(i + n + k) % (k + 3)`` is nonzero, renormalized, so the rows hold
    different numbers of zeros at different places.
    """
    doc = bundled_doc("train")
    world = doc["world"]
    world["vocab"]["safety_tokens"] = [0, 3]
    for n, cell in enumerate(world["teachers"]["table"]):
        for k, row in enumerate(cell["dists"]):
            kept = [p if (i + n + k) % (k + 3) else 0.0 for i, p in enumerate(row)]
            cell["dists"][k] = [p / sum(kept) for p in kept]
    return parse_config_dict(doc).world


def zero_measure_world() -> World:
    """The convergence world with input 1's task weights moved to input 0: 1 is never sampled."""
    doc = bundled_doc("train")
    for task in doc["world"]["tasks"]:
        weights = dict(task["inputs"])
        weights[0], weights[1] = weights[0] + weights[1], 0.0
        task["inputs"] = [[i, weights[i]] for i, _ in task["inputs"]]
    return parse_config_dict(doc).world


def safety_world() -> World:
    """Two teachers, five tokens, two safety-critical contexts.

    Teacher 1 concentrates on the label and teacher 2 hedges; at input 2 in
    context 1 both aim off the label, so unconstrained distillation lands
    below high safety thresholds and the constraint activates.
    """
    return parse_config(CONFIGS / "safety.json").world


def safety_world_labels() -> dict[tuple[int, int], int]:
    """Ground truth for the safety world, consistent per input on safety contexts."""
    rows = parse_config(CONFIGS / "safety.json").params["labels"]
    return {(r["input"], r["context"]): r["token"] for r in rows}


def safety_world_conflicting_labels() -> dict[tuple[int, int], int]:
    """Safety labels that conflict at input 2 across the two safety contexts.

    No single per-input distribution satisfies both, so the achievable
    expected safety tops out strictly below 1.
    """
    return {**safety_world_labels(), (2, 1): 1}


def appendix_safety_world() -> World:
    """The appendix world with a safety-critical context, a plain one and safety token 0."""
    doc = bundled_doc("appendix_a")
    world = doc["world"]
    world["vocab"]["safety_tokens"] = [0]
    world["contexts"] = [{**world["contexts"][0], "measure_weight": 0.5, "safety_critical": True},
                         {"id": 1, "features": [1.0], "measure_weight": 0.5}]
    world["teachers"]["table"].append({**world["teachers"]["table"][0], "context": 1})
    return parse_config_dict(doc).world


def appendix_labels() -> dict[tuple[int, int], int]:
    """Ground truth for the two-context appendix world: token a everywhere."""
    return {(0, 0): 0, (0, 1): 0}


def world_to_dict(world: World) -> dict:
    """A world in the config schema: the reference that the parser inverts."""
    return {
        "vocab": {"size": world.vocab.size,
                  "safety_tokens": sorted(world.vocab.safety_tokens)},
        "inputs": [{"id": x.id, "features": x.features.tolist()} for x in world.inputs],
        "tasks": [{"id": t.id,
                   "inputs": [[i, w] for i, w in zip(t.input_ids, t.input_weights.tolist())],
                   "importance": t.importance} for t in world.tasks],
        "contexts": [{"id": c.id, "features": c.features.tolist(),
                      "measure_weight": c.measure_weight,
                      "safety_critical": c.is_safety_critical} for c in world.contexts],
        "teachers": {
            "count": world.bank.k,
            "table": [{"input": x, "context": c, "dists": world.bank.dists(x, c).tolist()}
                      for x in sorted(world.bank.input_index)
                      for c in sorted(world.bank.context_index)],
            "perf_scores": {str(t): s.tolist()
                            for t, s in sorted(world.bank.perf_scores.items())},
            "safety_scores": world.bank.safety_scores.tolist(),
        },
    }
