"""Seeded generator for the benchmark's large-world config documents.

The documents follow the config schema that ``mskd.runner.parse_config``
reads. They are built with numpy alone, so the program under test sees only
the generated JSON. The same seed always gives the same document.

World shape (both experiments of the ``large`` workload share it):

- K = 4 teachers whose distributions are softmax(base / temperature) over
  one shared base-logit vector per (input, context) cell, with temperatures
  spread evenly over 0.6..1.6;
- V = 32 tokens, of which 0 and 1 are safety tokens;
- N = 32 inputs, J = 2 tasks with Dirichlet input weights, C = 4 contexts
  of equal measure, context 0 safety-critical.

The numbers of both worlds come from one template world, drawn from
``TEMPLATE_SEED``; the workload seed renames it. Every seed draws new input
and context ids and new feature vectors, and seed 0 keeps the template's
names. For the perturbation experiment the seed also permutes the input
order and the non-safety token ids, and draws the perturbation direction,
so the arithmetic differs between seeds while the compile work stays the
same. For the safety experiment the order is kept, so every seed runs the
same arithmetic. That matters for its dual ascent: a Newton block whose
gradient lands just above the tolerance can stall in line searches that
cannot decrease f below its rounding error, for all 200 iterations (about
5.7k evaluations). Whether a block stalls changes with the last bits of the
input: on worlds drawn per seed, or permuted, ``run_s`` of the safety
experiment varied 4-8x between seeds. The template stalls in two block
solves, so that cost is part of every run.
"""

from __future__ import annotations

import numpy as np

K_TEACHERS = 4
VOCAB = 32
SAFETY_TOKENS = (0, 1)
N_INPUTS = 32
N_TASKS = 2
N_CONTEXTS = 4
FEATURE_DIM = 4
BASE_LOGIT_SCALE = 1.0
LIPSCHITZ = 25.0
TEMPLATE_SEED = 0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _template() -> dict:
    rng = _rng(TEMPLATE_SEED, 0)
    temps = np.linspace(0.6, 1.6, K_TEACHERS)
    base = BASE_LOGIT_SCALE * rng.normal(size=(N_INPUTS, N_CONTEXTS, VOCAB))
    return {
        "dists": _softmax_rows(base[:, :, None, :] / temps[None, None, :, None]),
        "task_weights": rng.dirichlet(np.ones(N_INPUTS), size=N_TASKS),
        "perf": rng.uniform(0.6, 0.9, size=(N_TASKS, K_TEACHERS)),
        "safety": rng.uniform(0.5, 1.0, size=K_TEACHERS),
    }


def relabelling(seed: int, permute: bool) -> dict:
    """New names for the template's inputs, tokens and contexts.

    ``inputs`` and ``contexts`` give the new id of each template index,
    ``order`` the template indices in their new order and ``tokens`` the new
    id of each template token.
    """
    if seed == 0:
        return {"inputs": np.arange(N_INPUTS), "order": np.arange(N_INPUTS),
                "tokens": np.arange(VOCAB), "contexts": np.arange(N_CONTEXTS)}
    rng = _rng(seed, 1)
    ids = np.sort(rng.choice(1_000_000, size=N_INPUTS + N_CONTEXTS, replace=False))
    inputs, contexts = ids[:N_INPUTS], ids[N_INPUTS:]
    order, tokens = np.arange(N_INPUTS), np.arange(VOCAB)
    if permute:
        order = rng.permutation(N_INPUTS)
        free = np.array([t for t in tokens if t not in SAFETY_TOKENS])
        tokens[free] = rng.permutation(free)
    return {"inputs": inputs[np.argsort(order)], "order": order,
            "tokens": tokens, "contexts": contexts}


def large_world(seed: int, permute: bool) -> tuple[dict, dict]:
    """The world section of a config, plus labels of the safety experiment.

    Labels map (input id, context id) to token ``x mod 2`` on the
    safety-critical context, where x is the template index of the input,
    and to teacher 0's most likely token elsewhere.
    """
    t = _template()
    names = relabelling(seed, permute)
    x_id, c_id, order = names["inputs"], names["contexts"], names["order"]
    dists = np.empty_like(t["dists"])
    dists[..., names["tokens"]] = t["dists"]
    rng = _rng(seed, 2)
    world = {
        "vocab": {"size": VOCAB, "safety_tokens": list(SAFETY_TOKENS)},
        "inputs": [{"id": int(x_id[x]), "features": rng.normal(size=FEATURE_DIM).tolist()}
                   for x in order],
        "tasks": [{"id": j, "inputs": [[int(x_id[x]), float(t["task_weights"][j, x])]
                                       for x in order],
                   "importance": 1.0 / N_TASKS} for j in range(N_TASKS)],
        "contexts": [{"id": int(c_id[c]), "features": rng.normal(size=FEATURE_DIM).tolist(),
                      "measure_weight": 1.0 / N_CONTEXTS, "safety_critical": c == 0}
                     for c in range(N_CONTEXTS)],
        "teachers": {
            "count": K_TEACHERS,
            "table": [{"input": int(x_id[x]), "context": int(c_id[c]),
                       "dists": dists[x, c].tolist()}
                      for x in order for c in range(N_CONTEXTS)],
            "perf_scores": {str(j): t["perf"][j].tolist() for j in range(N_TASKS)},
            "safety_scores": t["safety"].tolist(),
        },
    }
    labels = {(int(x_id[x]), int(c_id[c])):
              int(x % 2) if c == 0 else int(np.argmax(dists[x, c, 0]))
              for x in order for c in range(N_CONTEXTS)}
    return world, labels


def perturbation_doc(seed: int) -> dict:
    """The ``perturbation`` experiment on the large world (compile-bound)."""
    world, _ = large_world(seed, permute=True)
    return {
        "kind": "perturbation",
        "seed": seed,
        "world": world,
        "bounds": {"w_min": 0.001, "w_max": 0.999, "lipschitz": LIPSCHITZ},
        "operators": {"token": {"family": "family_a", "alpha": 1.0},
                      "task": {"family": "family_c", "tau": 0.5},
                      "context": {"family": "family_c"}},
        "params": {"deltas": [1e-3, 3e-3, 1e-2], "ridge": 0.01},
    }


def safety_doc(seed: int) -> dict:
    """The ``safety`` experiment on the large world (Newton-bound)."""
    world, labels = large_world(seed, permute=False)
    return {
        "kind": "safety",
        "seed": seed,
        "world": world,
        "bounds": {"w_min": 0.05, "w_max": 0.95, "lipschitz": LIPSCHITZ},
        "operators": {"token": {"family": "uniform"},
                      "task": {"family": "uniform"},
                      "context": {"family": "family_a"}},
        "trainer": {"eta0": 1.0, "steps": 100, "ridge": 0.01, "seed": seed,
                    "eval_every": 50},
        "params": {"s_min": 0.9, "s_min_inactive": 0.1, "dual_step": 40.0,
                   "max_dual_iters": 200,
                   "labels": [{"input": x, "context": c, "token": y}
                              for (x, c), y in labels.items()]},
    }
