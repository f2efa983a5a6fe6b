"""Probes around the public calls of each ``mskd`` module, for the traced run.

Modules import one another's functions by name, so a function is wrapped in
the namespace of each module that calls it: ``mskd.safety.minimize_blockwise``
and ``mskd.distill.minimize_blockwise`` become separate probes, which also
tells the callers apart. Methods are wrapped on their class. Nothing under
``src/`` changes; the probes exist only in the traced worker process.

Per-step ``softmax`` is too hot to wrap; its time stays in the self time of
``distill.sgd``. Solver work is counted by wrapping the ``block_fgh``
argument of ``minimize_blockwise``, without a span per evaluation.
"""

from __future__ import annotations

import inspect
import math

from tracer import Tracer


def _counted(tracer: Tracer, fn, key: str, amount=None):
    """``fn`` that adds ``amount(bound arguments)`` (default 1) to ``key`` per call."""
    if amount is None:
        def once(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return once
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.count(key, amount(bound.arguments))
        return fn(*args, **kwargs)

    return wrapper


def _draws(size) -> int:
    if size is None:
        return 1
    return int(math.prod(size)) if isinstance(size, tuple) else int(size)


def _cells(args) -> int:
    world = args["world"]
    return len(world.tasks) * len(world.inputs) * len(world.contexts)


def _newton(tracer: Tracer, name: str, fn):
    evals = name + ".fgh_evals"

    def wrapper(theta0, block_fgh, *args, **kwargs):
        tracer.count(name + ".blocks", len(theta0))

        def counted_fgh(xi, row):
            tracer.count(evals)
            return block_fgh(xi, row)

        return fn(theta0, counted_fgh, *args, **kwargs)

    return wrapper


def _on_return(fn, after):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the probed calls of an imported ``mskd`` in place."""
    from mskd import composition, core, distill, dynamics, operators, runner, safety

    def probe(owner, attr: str, name: str, adapt=None) -> None:
        fn = getattr(owner, attr)
        if adapt is not None:
            fn = adapt(fn)
        setattr(owner, attr, tracer.wrap(name, fn))

    # core: sampler draws, exact normalisation, world construction at parse time
    probe(core.Sampler, "choice", "core.sampler",
          lambda f: _counted(tracer, f, "core.sampler.draws"))
    for attr in ("uniform", "normal", "integers"):
        probe(core.Sampler, attr, "core.sampler",
              lambda f: _counted(tracer, f, "core.sampler.draws", lambda a: _draws(a["size"])))
    for mod in (composition, distill):
        probe(mod, "normalize_exact", "core.normalize_exact")
    for attr in ("World", "TeacherBank"):
        probe(runner, attr, "core.world_build")

    # operators: per-scale evaluation, bounded normalisation, conformance
    probe(operators.TokenOperator, "weights", "operators.token")
    probe(operators.TaskOperator, "weights", "operators.task")
    probe(operators.ContextOperator, "weights", "operators.context")
    for mod in (operators, dynamics):
        probe(mod, "clip_normalize", "operators.clip_normalize")
    for mod in (runner, safety):
        probe(mod, "check_conformance", "operators.conformance",
              lambda f: _counted(tracer, f, "operators.conformance.samples",
                                 lambda a: a["n_samples"]))

    # composition
    probe(composition.UnifiedWeightOperator, "unified_weight", "composition.unified_weight")
    probe(composition.UnifiedWeightOperator, "ensemble_target", "composition.ensemble_target")

    # distill: compile, objective evaluation, SGD, full-batch Newton
    for mod in (distill, dynamics, safety, runner):
        probe(mod, "compile_objective", "distill.compile",
              lambda f: _counted(tracer, f, "distill.compile.cells", _cells))
    for attr in ("loss", "grad", "mean_kl"):
        probe(distill.CompiledObjective, attr, "distill.eval")
    for attr in ("sgd_train", "classic_uniform_train"):
        probe(runner, attr, "distill.sgd",
              lambda f: _counted(tracer, f, "distill.sgd.steps", lambda a: a["config"].steps))
    probe(distill, "minimize_blockwise", "distill.newton",
          lambda f: _newton(tracer, "distill.newton", f))

    # safety: dual ascent and its Newton solves, measures, KKT, Jensen, Pareto
    probe(safety, "minimize_blockwise", "safety.newton",
          lambda f: _newton(tracer, "safety.newton", f))
    probe(runner, "dual_ascent_solve", "safety.dual",
          lambda f: _on_return(f, lambda r: tracer.count("safety.dual.outer_iters",
                                                         len(r.history))))
    for mod in (safety, runner):
        probe(mod, "expected_safety", "safety.expected_safety")
    probe(runner, "kkt_residuals", "safety.kkt")
    probe(runner, "jensen_preservation_check", "safety.jensen")
    probe(runner, "pareto_sweep", "safety.pareto")

    # dynamics
    probe(dynamics, "weight_update_T", "dynamics.weight_update")
    probe(runner, "iterate_to_fixed_point", "dynamics.fixed_point",
          lambda f: _on_return(f, lambda r: tracer.count("dynamics.fixed_point.iters",
                                                         r.n_iters)))
    probe(runner, "gradient_variance_ratio", "dynamics.variance",
          lambda f: _counted(tracer, f, "dynamics.variance.samples",
                             lambda a: 2 * a["n_samples"]))
    probe(runner, "perturbation_experiment", "dynamics.perturbation")
