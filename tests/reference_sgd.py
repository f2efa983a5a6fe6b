"""The per-run SGD loop the stacked trainer must reproduce bit for bit.

One run at a time, one Python step per sample: the init and sample streams,
the step order (gradient at the pre-decay row, ridge decay of the whole
table, then the row update) and the evaluation records that
``distill.train_stack`` keeps for every run of its stack.
"""

import numpy as np

from mskd.core import NonFiniteLoss, seeded_sampler, softmax
from mskd.distill import CompiledObjective, TrainerConfig, TrainTrace


def reference_sgd(compiled: CompiledObjective, config: TrainerConfig,
                  seed: int) -> tuple[np.ndarray, TrainTrace]:
    world = compiled.world
    n, v = len(world.inputs), world.vocab.size
    init_rng, sample_rng = seeded_sampler(seed).spawn(2)
    if config.init_scale > 0:
        theta = config.init_scale * init_rng.normal(size=(n, v))
    else:
        theta = np.zeros((n, v))
        init_rng.normal(size=(n, v))  # keep stream layout identical either way

    records = []

    def record(step: int, lr: float) -> None:
        loss = compiled.loss(theta)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss diverged at step {step}")
        g = compiled.grad(theta)
        records.append((step, loss, compiled.mean_kl(theta),
                        float(np.linalg.norm(g)), lr))

    record(0, config.eta0)
    t = 0
    for block in world.sample_index_blocks(sample_rng, config.steps):
        for tj, xi, ci in zip(*(a.tolist() for a in block)):
            eta = config.eta0 / (1.0 + t)
            sgd_step(theta, compiled.targets, tj, xi, ci, eta, config.ridge)
            t += 1
            if t % config.eval_every == 0 or t == config.steps:
                record(t, eta)
    return theta, TrainTrace(*np.array(records, dtype=np.float64).T)


def sgd_step(theta: np.ndarray, targets: np.ndarray, tj: int, xi: int, ci: int,
             eta: float, ridge: float) -> None:
    """One single-sample step in place: ridge decay, then the gradient at input ``xi``."""
    g = softmax(theta[xi]) - targets[tj, xi, ci]
    if ridge > 0:
        theta *= 1.0 - eta * ridge
    theta[xi] -= eta * g
