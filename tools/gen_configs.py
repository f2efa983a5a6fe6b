#!/usr/bin/env python3
"""Regenerate the bundled experiment configs under configs/.

Run from the repository root after changing the toy worlds or suite
parameters: ``python tools/gen_configs.py``.
"""

import json
from pathlib import Path

from mskd import worlds
from mskd.runner import world_to_dict

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "configs"

ADAPTIVE_OPS = {
    "token": {"family": "family_a", "alpha": 1.0},
    "task": {"family": "family_c", "tau": 0.5},
    "context": {"family": "family_a"},
}
UNIFORM_OPS = {
    "token": {"family": "uniform"},
    "task": {"family": "uniform"},
    "context": {"family": "uniform"},
}


def build() -> dict[str, dict]:
    appendix = world_to_dict(worlds.appendix_world())
    convergence = world_to_dict(worlds.convergence_world())
    conformance = world_to_dict(worlds.conformance_world("sharp_safe"))
    safety = world_to_dict(worlds.safety_world())
    safety_labels = [{"input": x, "context": c, "token": y}
                     for (x, c), y in sorted(worlds.safety_world_labels().items())]

    wide = {"w_min": 0.01, "w_max": 0.99, "lipschitz": 25.0}
    return {
        "appendix_a": {
            "kind": "appendix_a",
            "seed": 0,
            "world": appendix,
            "bounds": wide,
            "operators": {"token": {"family": "inverse_entropy"},
                          "task": {"family": "uniform"},
                          "context": {"family": "uniform"}},
            "params": {"given_entropies": [0.68, 1.52]},
        },
        "conformance": {
            "kind": "conformance",
            "seed": 11,
            "world": conformance,
            "bounds": {"w_min": 0.02, "w_max": 0.9, "lipschitz": 25.0},
            "operators": ADAPTIVE_OPS,
            "params": {"scales": ["token", "task", "context"], "n_samples": 1000},
        },
        "train": {
            "kind": "train",
            "seed": 7,
            "world": convergence,
            "bounds": wide,
            "operators": UNIFORM_OPS,
            "trainer": {"eta0": 1.0, "steps": 3000, "ridge": 0.01, "seed": 7,
                        "eval_every": 500},
            "params": {"compare_classic": True},
        },
        "rate": {
            "kind": "rate",
            "seed": 100,
            "world": convergence,
            "bounds": wide,
            "operators": ADAPTIVE_OPS,
            "trainer": {"eta0": 40.0, "steps": 50000, "ridge": 0.01, "seed": 100,
                        "eval_every": 250, "init_scale": 0.5},
            "params": {"n_seeds": 10, "kl_tol": 1e-3,
                       "slope_low": -1.3, "slope_high": -0.7},
        },
        "fixed_point": {
            "kind": "fixed_point",
            "seed": 5,
            "world": appendix,
            "bounds": {"w_min": 0.05, "w_max": 0.95, "lipschitz": 25.0},
            "operators": UNIFORM_OPS,
            "params": {"beta": 0.3, "max_iters": 1000, "tol": 1e-10,
                       "n_pairs": 200, "n_starts": 10},
        },
        "perturbation": {
            "kind": "perturbation",
            "seed": 0,
            "world": convergence,
            "bounds": wide,
            "operators": ADAPTIVE_OPS,
            "params": {"deltas": [0.001, 0.01, 0.1], "ridge": 0.01},
        },
        "variance": {
            "kind": "variance",
            "seed": 2,
            "world": convergence,
            "bounds": wide,
            "operators": ADAPTIVE_OPS,
            "params": {"n_samples": 10000, "init_scale": 1.0},
        },
        "safety": {
            "kind": "safety",
            "seed": 0,
            "world": safety,
            "bounds": {"w_min": 0.05, "w_max": 0.95, "lipschitz": 25.0},
            "operators": ADAPTIVE_OPS,
            "trainer": {"eta0": 1.0, "steps": 100, "ridge": 0.01, "seed": 0,
                        "eval_every": 50},
            "params": {"s_min": 0.8, "s_min_inactive": 0.3, "dual_step": 40.0,
                       "max_dual_iters": 200, "labels": safety_labels},
        },
        "pareto": {
            "kind": "pareto",
            "seed": 0,
            "world": safety,
            "bounds": {"w_min": 0.05, "w_max": 0.95, "lipschitz": 25.0},
            "operators": ADAPTIVE_OPS,
            "trainer": {"eta0": 1.0, "steps": 100, "ridge": 0.01, "seed": 0,
                        "eval_every": 50},
            "params": {"s_min": 0.8, "mu_max": 6.0, "n_mu": 20, "ridge": 0.01,
                       "labels": safety_labels},
        },
    }


def render(doc: dict) -> str:
    """The text of one config file."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, doc in build().items():
        path = OUT / f"{name}.json"
        path.write_text(render(doc), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
