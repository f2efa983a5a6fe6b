"""Config parsing, experiment dispatch, persistence, and CLI behavior."""

import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mskd.core import (SAMPLE_BLOCK, ContextSpec, MskdError, ParseError, TaskSpec,
                       VocabularySpec, WeightBounds)
from mskd.distill import TrainerConfig
from mskd.dynamics import WeightUpdateConfig
from mskd.operators import ContextOperator, TaskOperator, TokenOperator
from mskd.params import PARAMS, read_section, schema
from mskd.safety import SafetyConfig
from mskd.runner import (
    EXPERIMENT_KINDS,
    emit_summary,
    main,
    parse_config,
    parse_config_dict,
    run_experiment,
)

from fixture_worlds import CONFIGS, bundled_doc, large_doc, world_to_dict

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"
# bundled configs in the order the references number them; "rate" (index 0)
# is pinned in the benchmark's reduced variant, which trains RATE_SEEDS seeds
GOLDEN = ("appendix_a", "conformance", "train", "fixed_point", "perturbation",
          "variance", "safety", "pareto")
RATE_SEEDS = 2  # perfbench/run.py's RATE_SEEDS
# the generated 256-cell world's configs, in the order the "large" references number them
GOLDEN_LARGE = ("perturbation", "safety")


def minimal_doc(**overrides):
    doc = {
        "kind": "appendix_a",
        "seed": 0,
        "world": bundled_doc("appendix_a")["world"],
        "bounds": {"w_min": 0.01, "w_max": 0.99, "lipschitz": 25.0},
        "operators": {"token": {"family": "inverse_entropy"},
                      "task": {"family": "uniform"},
                      "context": {"family": "uniform"}},
        "params": {},
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_bundled_appendix_config(self):
        cfg = parse_config(CONFIGS / "appendix_a.json")
        assert cfg.kind == "appendix_a"
        assert cfg.world.bank.k == 2
        assert cfg.world.vocab.size == 3
        np.testing.assert_allclose(cfg.world.bank.dists(0, 0)[0], [0.8, 0.15, 0.05])

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_config(CONFIGS / "does_not_exist.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(p)

    def test_infeasible_bounds_named(self):
        doc = minimal_doc(bounds={"w_min": 0.6, "w_max": 0.9})
        with pytest.raises(ParseError) as exc:
            parse_config_dict(doc)
        assert "0.6" in str(exc.value)

    @pytest.mark.parametrize("w_min,w_max", [(0.5, 0.5), (0.1, 0.5), (0.5, 0.9)])
    def test_fixed_point_bounds_with_one_vector_rejected(self, w_min, w_max, tmp_path):
        # K = 2 teachers: K * w_min = 1 or K * w_max = 1 leaves only (0.5, 0.5), and no
        # sampled pair could measure the contraction
        doc = copy.deepcopy(BUNDLED_DOCS["fixed_point"])
        doc["bounds"].update(w_min=w_min, w_max=w_max)
        with pytest.raises(ParseError, match="bounds: admit one weight vector for K=2"):
            parse_config_dict(doc)
        assert _main_on(doc, "validate", tmp_path) == 2
        doc["kind"] = "appendix_a"  # the other kinds sample no pairs
        doc["params"] = {}
        parse_config_dict(doc)

    def test_unresolved_teacher_reference(self):
        doc = minimal_doc()
        doc["world"]["teachers"]["table"] = doc["world"]["teachers"]["table"][:0]
        with pytest.raises(ParseError) as exc:
            parse_config_dict(doc)
        assert "missing cell" in str(exc.value)

    def test_all_errors_collected(self):
        doc = minimal_doc(kind="nonsense", bounds={"w_min": 0.9, "w_max": 0.2})
        doc["world"]["tasks"][0]["importance"] = -1.0
        with pytest.raises(ParseError) as exc:
            parse_config_dict(doc)
        msg = str(exc.value)
        assert "kind" in msg and "bounds" in msg and "world" in msg

    def test_unknown_label_reference(self):
        doc = minimal_doc(kind="safety")
        doc["params"] = {"s_min": 0.5,
                         "labels": [{"input": 42, "context": 0, "token": 0}]}
        with pytest.raises(ParseError) as exc:
            parse_config_dict(doc)
        assert "unknown input 42" in str(exc.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999",
                                         pytest.param("1" + "0" * 400, id="401_digits")])
    def test_non_finite_number_rejected(self, tmp_path, literal):
        p = tmp_path / "nonfinite.json"
        p.write_text(json.dumps(minimal_doc()).replace('"lipschitz": 25.0',
                                                       f'"lipschitz": {literal}'))
        with pytest.raises(ParseError):
            parse_config(p)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_world_round_trips(self, kind):
        world = parse_config(CONFIGS / f"{kind}.json").world
        assert world_to_dict(world) == BUNDLED_DOCS[kind]["world"]

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_bundled_config_is_canonical_json(self, path):
        # configs are edited by hand: one layout keeps their diffs reviewable
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_overlong_task_id_named_shortened(self):
        doc = minimal_doc()
        doc["world"]["teachers"]["perf_scores"]["9" * 5000] = [0.8, 0.5]
        with pytest.raises(ParseError, match=r"world\.teachers\.perf_scores: task id "
                                             r"'9{12}\.\.\.\(5000 characters\)' is not"):
            parse_config_dict(doc)

    def test_missing_world_field_named_by_its_path(self):
        doc = minimal_doc()
        del doc["world"]["inputs"][0]["id"]
        with pytest.raises(ParseError, match=r"world\.inputs\[0\]\.id: missing field"):
            parse_config_dict(doc)

    def test_hash_ignores_output_path(self):
        a = parse_config_dict(minimal_doc())
        b = parse_config_dict(minimal_doc(out="/somewhere/else"))
        assert a.config_hash == b.config_hash

    def test_hash_changes_with_seed(self):
        a = parse_config_dict(minimal_doc(seed=0))
        b = parse_config_dict(minimal_doc(seed=1))
        assert a.config_hash != b.config_hash


class TestRunExperiment:
    def test_every_kind_has_a_bundled_config(self):
        for kind in EXPERIMENT_KINDS:
            assert (CONFIGS / f"{kind}.json").exists(), kind
            assert parse_config(CONFIGS / f"{kind}.json").kind == kind

    @pytest.mark.parametrize("kind", ["appendix_a", "conformance", "fixed_point",
                                      "perturbation", "variance", "safety", "pareto"])
    def test_bundled_config_passes(self, kind, tmp_path):
        record = run_experiment(parse_config(CONFIGS / f"{kind}.json"))
        assert record.passed, [a for a in record.assertions if not a["pass"]]
        out = emit_summary(record, tmp_path / kind, quiet=True)
        assert (out / "summary.json").exists()

    def test_rate_dispatch_reduced(self, tmp_path):
        # the bundled rate config runs the full ten-seed study (exercised by
        # the acceptance suite); here only the dispatch path, shrunk
        doc = json.loads((CONFIGS / "rate.json").read_text())
        doc["trainer"]["steps"] = 6000
        doc["trainer"]["eval_every"] = 100
        doc["params"]["n_seeds"] = 3
        doc["params"]["slope_low"] = -2.0
        doc["params"]["slope_high"] = -0.3
        record = run_experiment(parse_config_dict(doc))
        assert record.passed, [a for a in record.assertions if not a["pass"]]
        emit_summary(record, tmp_path, quiet=True)

    def test_train_config_bitwise_comparison(self, tmp_path):
        record = run_experiment(parse_config(CONFIGS / "train.json"))
        names = {a["name"]: a["pass"] for a in record.assertions}
        assert names["uniform_equals_classic_bitwise"]
        emit_summary(record, tmp_path / "train", quiet=True)

    def test_csv_bodies_are_deterministic(self, tmp_path):
        cfg = parse_config(CONFIGS / "appendix_a.json")
        out1 = emit_summary(run_experiment(cfg), tmp_path / "run1", quiet=True)
        out2 = emit_summary(run_experiment(cfg), tmp_path / "run2", quiet=True)
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_summary_schema(self, tmp_path):
        record = run_experiment(parse_config(CONFIGS / "appendix_a.json"))
        out = emit_summary(record, tmp_path, quiet=True)
        doc = json.loads((out / "summary.json").read_text())
        assert set(doc) == {"config_hash", "kind", "assertions"}
        assert all({"name", "expected", "measured", "tol", "pass"} <= set(a)
                   for a in doc["assertions"])

    def test_empty_record_refused(self, tmp_path):
        from mskd.core import MskdError
        from mskd.runner import RunRecord
        empty = RunRecord("x", "appendix_a", "0", "now")
        with pytest.raises(MskdError):
            emit_summary(empty, tmp_path)


def _assert_pinned_outputs(workload: str, prefix: str, cfg, out_dir: Path) -> None:
    pinned = {key[len(prefix):]: digest
              for key, digest in json.loads(REFERENCES.read_text())[workload].items()
              if key.startswith(prefix)}
    out = emit_summary(run_experiment(cfg), out_dir, quiet=True)
    produced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert produced == pinned


def test_micro_benchmarks_run_once():
    # the default run does not collect tests/bench_*.py; run each benchmark once
    tests = Path(__file__).resolve().parent
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--benchmark-disable", str(tests / "bench_sampling.py"),
                           str(tests / "bench_verify.py")],
                          cwd=tests.parent, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


# the traced benchmark's worker, cut to one config: install every probe, then run and emit
TRACED_RUN = """
import sys
sys.path[:0] = sys.argv[1:3]
import probes
from tracer import Tracer
from mskd.runner import emit_summary, parse_config, run_experiment
probes.install(Tracer())
record = run_experiment(parse_config(sys.argv[3]))
emit_summary(record, sys.argv[4], quiet=True)
sys.exit(0 if record.passed else 1)
"""


def test_traced_benchmark_probes_install(tmp_path):
    # perfbench/probes.py wraps public names of mskd by name: dropping one fails here;
    # the safety run passes the Newton kernel's return value through the solver's probe,
    # the fixed_point run the stacked traces through the iteration's probe, and the
    # pareto, perturbation and variance runs their call forms through the probes that
    # read arguments by name
    root = Path(__file__).resolve().parent.parent
    for name in ("appendix_a", "safety", "fixed_point", "conformance", "pareto", "perturbation",
                 "variance"):
        done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(root / "perfbench"),
                               str(root / "src"), str(CONFIGS / f"{name}.json"),
                               str(tmp_path / name)], capture_output=True, text=True)
        assert done.returncode == 0, done.stdout + done.stderr
        assert (tmp_path / name / "summary.json").is_file()


@pytest.mark.parametrize("kind,compiles", [("safety", 2), ("pareto", 1)])
def test_safety_experiments_compile_each_world_once(kind, compiles, monkeypatch):
    # safety: one objective for both dual solves and the KKT check, and one for the
    # Jensen check's restricted world; pareto: one objective for the whole sweep
    from mskd import distill, dynamics, runner, safety
    compile_objective, calls = distill.compile_objective, []

    def counted(*args, **kwargs):
        calls.append(args)
        return compile_objective(*args, **kwargs)

    for module in (distill, dynamics, runner, safety):  # each module calls its own import
        monkeypatch.setattr(module, "compile_objective", counted)
    assert run_experiment(parse_config(CONFIGS / f"{kind}.json")).passed
    assert len(calls) == compiles


def test_variance_run_draws_its_triples_in_one_pass(monkeypatch):
    # the configured and uniform operators and the one classical baseline share one stream:
    # one uniform call per SAMPLE_BLOCK block of the 10,000 triples, and nothing else draws one
    from mskd import core, dynamics, runner
    uniform, calls, variance_calls = core.Sampler.uniform, [], []
    ratio = dynamics.gradient_variance_ratio

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("size"))
        return uniform(self, *args, **kwargs)

    def counted_ratio(*args, **kwargs):
        variance_calls.append(args)
        return ratio(*args, **kwargs)

    monkeypatch.setattr(core.Sampler, "uniform", counted)
    monkeypatch.setattr(runner, "gradient_variance_ratio", counted_ratio)
    cfg = parse_config(CONFIGS / "variance.json")
    assert cfg.params["n_samples"] == 10_000
    assert run_experiment(cfg).passed
    assert len(variance_calls) == 1
    assert calls == [3 * SAMPLE_BLOCK] * 9 + [3 * (10_000 - 9 * SAMPLE_BLOCK)]


class TestGoldenOutputs:
    @pytest.mark.parametrize("index,name", list(enumerate(GOLDEN, start=1)))
    def test_outputs_match_pinned_digests(self, index, name, tmp_path):
        _assert_pinned_outputs("bundled", f"{index}-{name}/",
                               parse_config(CONFIGS / f"{name}.json"), tmp_path / name)

    def test_rate_outputs_match_pinned_digests(self, tmp_path):
        doc = json.loads((CONFIGS / "rate.json").read_text())
        doc["params"]["n_seeds"] = RATE_SEEDS
        _assert_pinned_outputs("bundled", "0-rate/", parse_config_dict(doc), tmp_path / "rate")

    # the bytes of the one-start, one-pair-at-a-time code at the edges of the fixed_point
    # params: no sampled start, and a single contraction pair
    @pytest.mark.parametrize("params,pinned", [
        ({"n_starts": 0}, {
            "fixed_point.csv": "7f527a4c65ee1f7f9471a82445eef47adb818210b8abc8f64de879d6687ffdf8",
            "results.csv": "1ab4f3552712780166f0db622c41cda186dc53bd40f2b7acd4a85ab3ed218a86",
            "summary.json": "737e4d00691c1c320cac59e359d65545d1a9abab679dac4d2b3b43bb507abbc9"}),
        ({"n_pairs": 1}, {
            "fixed_point.csv": "7f527a4c65ee1f7f9471a82445eef47adb818210b8abc8f64de879d6687ffdf8",
            "results.csv": "cebff90ec27fd3fce6da798938bdda65b2866858cff4a250f741e4b137ff5e32",
            "summary.json": "979b9078a0f6032f0e7db6cc33c4d041154ba83fdfc8575b02ab77e82d7ddd88"}),
    ], ids=["no_starts", "one_pair"])
    def test_fixed_point_edge_params_keep_their_bytes(self, params, pinned, tmp_path):
        doc = copy.deepcopy(BUNDLED_DOCS["fixed_point"])
        doc["params"].update(params)
        out = emit_summary(run_experiment(parse_config_dict(doc)), tmp_path, quiet=True)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == pinned

    @pytest.mark.parametrize("index,name", list(enumerate(GOLDEN_LARGE)))
    def test_large_world_outputs_match_pinned_digests(self, index, name, tmp_path):
        _assert_pinned_outputs("large", f"{index}-{name}/", parse_config_dict(large_doc(name)),
                               tmp_path / name)


# field values a fuzzed config may receive; HUGE is written to the file as 1e999
HUGE = "__overflowing_literal__"
MUTANTS = st.sampled_from([None, True, "abc", [], {}, [1, "x"], {"a": 1}, -1, 0, 2.5, 10 ** 400,
                           float("nan"), float("inf"), float("-inf"), HUGE])
BUNDLED_DOCS = {kind: json.loads((CONFIGS / f"{kind}.json").read_text())
                for kind in EXPERIMENT_KINDS}


def _mutate(doc, data) -> None:
    """Drop one field of ``doc``, or give it a new value of any type, in place."""
    node = doc
    while node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = copy.deepcopy(data.draw(MUTANTS))
            return


def _fuzzed_text(doc, data, fields: tuple | None = None) -> str:
    """``doc`` after one to three mutations, as JSON text.

    Each mutation stays within the top-level ``fields`` given, or else within
    ``params`` half the time and anywhere in the document the other half.
    """
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        within = fields or (("params",) if data.draw(st.booleans()) else tuple(doc))
        view = {key: doc.pop(key) for key in within if key in doc}
        _mutate(view, data)
        doc.update(view)
    return json.dumps(doc).replace(f'"{HUGE}"', "1e999")


def _edited_labels(kind: str, edit) -> list:
    """The bundled ``kind`` config's labels after ``edit(labels)`` in place."""
    labels = copy.deepcopy(BUNDLED_DOCS[kind]["params"]["labels"])
    edit(labels)
    return labels


def _labels_with_token(token: int) -> list:
    """The bundled safety labels with the first one's token replaced."""
    return _edited_labels("safety", lambda labels: labels[0].update(token=token))


# the bundled configs with the rate study cut to 2000 steps per seed, for fuzzed runs
QUICK_DOCS = {**BUNDLED_DOCS, "rate": {**BUNDLED_DOCS["rate"], "trainer": {
    **BUNDLED_DOCS["rate"]["trainer"], "steps": 2000, "eval_every": 100}}}


def _mutate_ranged_world_field(doc, data) -> None:
    """Give one world field that a spec class ranges a new value, in place: ``vocab.size``,
    a task's ``importance``, a context's ``measure_weight`` or ``teachers.count``."""
    world = doc["world"]
    node, name = data.draw(st.sampled_from([
        (world["vocab"], "size"), *((task, "importance") for task in world["tasks"]),
        *((ctx, "measure_weight") for ctx in world["contexts"]), (world["teachers"], "count")]))
    node[name] = copy.deepcopy(data.draw(st.one_of(MUTANTS, st.integers(-1, 4),
                                                   st.floats(-1.0, 1.5))))


class TestFuzzedConfigs:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_only_parse_errors_escape(self, data, tmp_path_factory):
        text = _fuzzed_text(BUNDLED_DOCS[data.draw(st.sampled_from(EXPERIMENT_KINDS))], data)
        try:
            parse_config_dict(json.loads(text))
        except ParseError:
            pass
        path = tmp_path_factory.mktemp("fuzz") / "config.json"
        path.write_text(text)
        assert main(["validate", str(path)]) in (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_validated_params_run(self, data):
        # a config that validates may fail its assertions or raise a typed
        # runtime error (exit 3), but no bare exception may escape the suite
        doc = copy.deepcopy(QUICK_DOCS[data.draw(st.sampled_from(EXPERIMENT_KINDS))])
        if data.draw(st.booleans()):
            _mutate_ranged_world_field(doc, data)
        text = _fuzzed_text(doc, data, fields=("seed", "trainer", "operators", "bounds", "params"))
        try:
            cfg = parse_config_dict(json.loads(text))
        except ParseError:
            return
        try:
            run_experiment(cfg)
        except MskdError:
            pass


class TestParamsSchema:
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_empty_params_resolve_to_the_declared_defaults(self, kind):
        # a required field (default ...) has no default: it is kept from the bundled config
        required = {name: BUNDLED_DOCS[kind]["params"][name]
                    for name, (_, default, *_) in PARAMS[kind].items() if default is ...}
        cfg = parse_config_dict({**BUNDLED_DOCS[kind], "params": required})
        assert dict(cfg.params) == {name: required.get(name, entry[1])
                                    for name, entry in PARAMS[kind].items()}

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_each_default_passes_its_check(self, kind):
        world = parse_config(CONFIGS / f"{kind}.json").world
        for name, (_, default, *check) in PARAMS[kind].items():
            assert default in (None, ...) or not check or check[0](default, world) is True, name

    def test_params_are_read_only(self):
        params = parse_config(CONFIGS / "rate.json").params
        with pytest.raises(TypeError):
            params["n_seeds"] = 1

    def test_integer_for_a_float_field_resolves_to_a_float(self):
        doc = copy.deepcopy(BUNDLED_DOCS["rate"])
        doc["params"]["kl_tol"] = 0
        kl_tol = parse_config_dict(doc).params["kl_tol"]
        assert type(kl_tol) is float and json.dumps(kl_tol) == "0.0"

    def test_ridge_defaults_to_the_trainers_and_rejects_null(self):
        doc = copy.deepcopy(BUNDLED_DOCS["pareto"])
        doc["trainer"]["ridge"] = 0.05
        doc["params"].pop("ridge", None)
        assert parse_config_dict(doc).params["ridge"] == 0.05
        doc["params"]["ridge"] = None
        with pytest.raises(ParseError, match="params.ridge"):
            parse_config_dict(doc)

    def test_every_bad_field_named(self):
        doc = copy.deepcopy(BUNDLED_DOCS["fixed_point"])
        doc["params"].update(beta=2.0, max_iters="many", n_starts=-1, betta=0.3)
        with pytest.raises(ParseError) as exc:
            parse_config_dict(doc)
        lines = str(exc.value).splitlines()[1:]
        assert [line.split(":")[0].strip("- ") for line in lines] == [
            "params.betta", "params.beta", "params.max_iters", "params.n_starts"]


# each config class: the CLI defaults its schema takes (params.schema), and the constructor
# arguments of the fields its FIELDS do not declare or the CLI defaults
CONFIG_CLASSES = [(TrainerConfig, {}, {}), (WeightBounds, {}, {}), (TokenOperator, {}, {}),
                  (TaskOperator, {}, {}), (ContextOperator, {}, {}),
                  (SafetyConfig, {"s_min": 0.5}, {"s_min": 0.5, "labels": {}}),
                  (WeightUpdateConfig, {}, {}), (VocabularySpec, {}, {}),
                  (TaskSpec, {}, {"id": 0, "input_ids": (0,), "input_weights": [1.0]}),
                  (ContextSpec, {}, {"id": 0, "features": [0.0]})]
# JSON values of every kind, with the edges of the checks: zeros, bounds, non-finite numbers,
# integers beyond the float range and the family names
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 3), st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 1e-300, 10 ** 400, -10 ** 400, 0.99, 0.999, 0.005]),
    st.text(max_size=3), st.sampled_from(["uniform", "inverse_entropy", "family_a", "family_b",
                                          "family_c", "family_z"]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(),
                                                         max_size=1))


def _breaks_a_cross_field_invariant(name: str, value) -> bool:
    """w_min above the default w_max, w_max below the default w_min, or a custom family,
    which needs a callable: rules between fields, which a section read alone does not judge."""
    number = type(value) in (int, float) and abs(value) < math.inf  # a NaN compares false
    return (name == "w_min" and number and value > WeightBounds.w_max
            or name == "w_max" and number and 0 < value < WeightBounds.w_min
            or name == "family" and value == "custom")


class TestConfigFields:
    @pytest.mark.parametrize("cls,cli_defaults,extra,name", [
        pytest.param(cls, cli_defaults, extra, name, id=f"{cls.__name__}.{name}")
        for cls, cli_defaults, extra in CONFIG_CLASSES for name in cls.FIELDS])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_parser_and_constructor_accept_the_same_values(self, cls, cli_defaults, extra, name,
                                                           data):
        # one FIELDS entry is both checks: the library once took a family C alpha of 0 and
        # the parser a lipschitz of 0, each of which the other refused
        value = data.draw(JSON_VALUES)
        assume(not _breaks_a_cross_field_invariant(name, value))
        try:
            fields = read_section({name: value}, schema(cls, **cli_defaults), "section.")
        except ParseError:
            fields = None
        try:
            built = cls(**{**extra, name: value})
        except MskdError:
            built = None
        assert (fields is None) == (built is None), (name, value, fields, built)
        if fields is not None:  # the section as read, defaults included, builds too
            cls(**{**extra, **fields})

    def test_empty_sections_build_the_class_defaults(self):
        # the dataclass default is the only default; the parser adds the trainer's seed (the
        # config's) and s_min's 0.5
        doc = copy.deepcopy(BUNDLED_DOCS["conformance"])
        doc.update(seed=7, bounds={}, operators={}, trainer={})
        cfg = parse_config_dict(doc)
        assert cfg.bounds == WeightBounds()
        assert cfg.operator.token_op == TokenOperator(safety_tokens=cfg.world.vocab.safety_tokens)
        assert (cfg.operator.task_op, cfg.operator.context_op) == (TaskOperator(), ContextOperator())
        assert cfg.trainer == TrainerConfig(seed=7)
        doc = copy.deepcopy(BUNDLED_DOCS["safety"])
        cfg = parse_config_dict({**doc, "params": {"labels": doc["params"]["labels"]}})
        labels = {(r["input"], r["context"]): r["token"] for r in cfg.params["labels"]}
        assert SafetyConfig(labels=labels, **{k: cfg.params[k] for k in SafetyConfig.FIELDS}) == \
            SafetyConfig(0.5, labels)
        params = parse_config_dict({**BUNDLED_DOCS["fixed_point"], "params": {}}).params
        assert WeightUpdateConfig(**{k: params[k] for k in WeightUpdateConfig.FIELDS}) == \
            WeightUpdateConfig()


def _main_on(doc: dict, command: str, tmp_path: Path, *flags: str) -> int:
    """The exit code of ``mskd <command>`` on ``doc`` written to a file (runs write under tmp)."""
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    return main([command, str(p), *out, *flags])


class TestCli:
    def test_list_kinds(self, capsys):
        assert main(["list-kinds"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENT_KINDS)

    def test_validate_ok(self, capsys):
        assert main(["validate", str(CONFIGS / "appendix_a.json")]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(minimal_doc(kind="nope")))
        assert main(["validate", str(p)]) == 2

    def test_run_pass_exit_zero(self, tmp_path):
        code = main(["run", str(CONFIGS / "appendix_a.json"),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0

    def test_run_failure_exit_one(self, tmp_path):
        doc = minimal_doc()
        doc["params"] = {"given_entropies": [0.2, 1.9]}  # wrong givens: assertions fail
        p = tmp_path / "fail.json"
        p.write_text(json.dumps(doc))
        assert main(["run", str(p), "--out", str(tmp_path / "o"), "--quiet"]) == 1

    def test_config_error_exit_two(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{]")
        assert main(["run", str(p)]) == 2

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unreadable_config_path_exit_two(self, tmp_path, command, capsys):
        out = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, str(CONFIGS), *out]) == 2  # a directory
        assert f"config file {CONFIGS} cannot be read" in capsys.readouterr().err

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under_file"])
    def test_unwritable_output_exit_three(self, tmp_path, under_file, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "o" if under_file else taken
        assert main(["run", str(CONFIGS / "appendix_a.json"), "--out", str(out), "--quiet"]) == 3
        assert "output error:" in capsys.readouterr().err

    def test_dual_stall_exit_three(self, tmp_path, capsys):
        doc = copy.deepcopy(BUNDLED_DOCS["safety"])
        doc["params"]["max_dual_iters"] = 1
        assert _main_on(doc, "run", tmp_path, "--quiet") == 3
        assert "dual ascent did not meet residual targets in 1 iterations" in \
            capsys.readouterr().err

    def test_diverging_training_exit_three(self, tmp_path, capsys):
        # eta0 1e5 overflows the logits in the first of 3 sample blocks; the records are
        # evaluated after the last, and the first one that diverged is named
        doc = copy.deepcopy(BUNDLED_DOCS["train"])
        doc["trainer"]["eta0"] = 1e5
        with np.errstate(all="ignore"):
            assert _main_on(doc, "run", tmp_path, "--quiet") == 3
        assert "loss diverged at step 500 (stack run 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("eta0", [1e5, 1e200])
    def test_diverging_training_prints_only_its_error(self, tmp_path, eta0):
        # the overflow is reported as the typed error alone: no numpy RuntimeWarning (with a
        # library source line) reaches stderr before it, under Python's default warning filter
        doc = copy.deepcopy(BUNDLED_DOCS["train"])
        doc["trainer"]["eta0"] = eta0
        (tmp_path / "config.json").write_text(json.dumps(doc))
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from mskd.runner import main; "
             "sys.exit(main(sys.argv[1:]))", "run", str(tmp_path / "config.json"),
             "--out", str(tmp_path / "o"), "--quiet"],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "default"},
            capture_output=True, text=True)
        assert done.returncode == 3
        assert re.fullmatch(r"runtime error: \[kind=train config=\w+\] "
                            r"loss diverged at step 500 \(stack run 0\)\n", done.stderr)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_nan_literal_exit_two(self, tmp_path, command):
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(minimal_doc()).replace('"lipschitz": 25.0', '"lipschitz": NaN'))
        assert main([command, str(p)]) == 2

    @pytest.mark.parametrize("kind,name,value", [("perturbation", "deltas", "abc"),
                                                 ("variance", "n_samples", "many"),
                                                 ("variance", "n_samples", 99),
                                                 ("rate", "n_seeds", 0),
                                                 ("safety", "labels", _labels_with_token(99)),
                                                 ("safety", "labels", _labels_with_token(-1)),
                                                 ("pareto", "labels", _labels_with_token(7)),
                                                 # a label row with an unknown field
                                                 ("safety", "labels", _edited_labels(
                                                     "safety", lambda ls: ls[0].update(tokn=1))),
                                                 # two labels for one (input, context) pair
                                                 ("safety", "labels", _edited_labels(
                                                     "safety", lambda ls: ls.append(
                                                         {**ls[0], "token": ls[1]["token"]}))),
                                                 # a positive-measure pair with no label
                                                 ("safety", "labels", _edited_labels(
                                                     "safety", lambda ls: ls.pop(0))),
                                                 ("pareto", "labels", _edited_labels(
                                                     "pareto", lambda ls: ls.pop(0)))])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_params_exit_two(self, tmp_path, kind, name, value, command, capsys):
        doc = copy.deepcopy(BUNDLED_DOCS[kind])
        doc["params"][name] = value
        assert _main_on(doc, command, tmp_path) == 2
        assert f"params.{name}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,path,value", [
        ("safety", ("world", "contexts", 0, "safety_critical"), "false"),
        ("safety", ("operators", "token", "safety_adjustment"), "false"),
        ("train", ("trainer", "steps"), 1.7),
        ("train", ("seed",), 3.9),
        ("appendix_a", ("world", "teachers", "count"), 2.7),
        ("appendix_a", ("world", "inputs", 0, "id"), True),
        ("safety", ("world", "vocab", "safety_tokens"), [0.5]),
        ("safety", ("params", "s_mn"), 0.9),
        ("pareto", ("params", "dual_step"), 1e-3),  # no pareto code reads the dual-ascent knobs
        ("pareto", ("params", "max_dual_iters"), 1),
        ("conformance", ("operators", "tokens"), {"family": "family_a"}),
        ("conformance", ("operators", "token", "alfa"), 2.0),
        ("appendix_a", ("bounds", "w_mni"), 0.05),
        ("appendix_a", ("world", "inputs", 0, "features"), ["0.0"]),
        ("appendix_a", ("world", "teachers", "table", 0, "dists"),
         [["0.8", "0.15", "0.05"], ["0.4", "0.35", "0.25"]]),
        ("appendix_a", ("world", "tasks", 0, "inputs", 0), [0, True]),
        ("appendix_a", ("world", "teachers", "perf_scores", "0_0"), [0.8, 0.5]),
        ("appendix_a", ("paramz",), {"given_entropies": [0.68, 1.52]}),
        ("safety", ("world", "contexts", 0, "safety_critcal"), True),
        ("conformance", ("operators", "token", "alpha"), -1),
        ("conformance", ("operators", "task", "tau"), 0),
        ("conformance", ("operators", "task", "tau"), -0.5),
        # a task id longer than any integer Python reads
        ("appendix_a", ("world", "teachers", "perf_scores"),
         {"0": [0.8, 0.5], "9" * 5000: [0.8, 0.5]}),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_mistyped_or_unknown_field_exit_two(self, tmp_path, kind, path, value, command,
                                                capsys):
        doc = copy.deepcopy(BUNDLED_DOCS[kind])
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert _main_on(doc, command, tmp_path) == 2
        assert str(path[-1]) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["trainer.ridge", "world.contexts", "measure_weight"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_safety_precondition_exit_two(self, tmp_path, field, command, capsys):
        # dual ascent needs a positive ridge, the Jensen check a safety-critical context of
        # positive measure to condition on
        doc = copy.deepcopy(BUNDLED_DOCS["safety"])
        if field == "trainer.ridge":
            doc["trainer"]["ridge"] = 0.0
        for context in doc["world"]["contexts"]:
            if field == "world.contexts":
                context["safety_critical"] = False
            elif field == "measure_weight":
                context["measure_weight"] = 0.0 if context["safety_critical"] else 1.0
        assert _main_on(doc, command, tmp_path) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["safety", "pareto"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_missing_labels_exit_two(self, tmp_path, kind, command, capsys):
        doc = copy.deepcopy(BUNDLED_DOCS[kind])
        del doc["params"]["labels"]
        assert _main_on(doc, command, tmp_path) == 2
        assert "params.labels: missing field" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["train", "conformance", "variance", "fixed_point"])
    @pytest.mark.parametrize("command,field", [("validate", "seed"), ("run", "seed"),
                                               ("validate", "trainer.seed"),
                                               ("run", "trainer.seed"), ("run", "--seed")])
    def test_negative_seed_exit_two(self, tmp_path, kind, command, field, capsys):
        doc, flag = copy.deepcopy(BUNDLED_DOCS[kind]), []
        if field == "seed":
            doc["seed"] = -1
        elif field == "trainer.seed":
            doc.setdefault("trainer", {})["seed"] = -1
        else:
            flag = ["--seed", "-1"]
        assert _main_on(doc, command, tmp_path, *flag) == 2
        assert f"- {field.lstrip('-')}: must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,section", [("train", "trainer"), ("variance", "params")])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_negative_init_scale_exit_two(self, tmp_path, kind, section, command, capsys):
        # a negative trainer init_scale once trained silently from zero logits
        doc = copy.deepcopy(BUNDLED_DOCS[kind])
        doc.setdefault(section, {})["init_scale"] = -1.0
        assert _main_on(doc, command, tmp_path) == 2
        assert f"- {section}.init_scale: must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field,value,line", [
        ("eta0", 0.0, "must be positive"), ("steps", -1, "must be nonnegative"),
        ("ridge", -1.0, "must be nonnegative"), ("eval_every", 0, "must be at least 1")])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_trainer_field_named_by_path(self, tmp_path, field, value, line, command, capsys):
        # TrainerConfig once reported these, as "trainer: eta0 must be positive", without the path
        doc = copy.deepcopy(BUNDLED_DOCS["train"])
        doc["trainer"][field] = value
        assert _main_on(doc, command, tmp_path) == 2
        assert f"- trainer.{field}: {line}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_bad_trainer_field_reported(self, tmp_path, capsys):
        # once only the first, as "trainer: eta0 must be positive"
        doc = copy.deepcopy(BUNDLED_DOCS["train"])
        doc["trainer"].update(eta0=0, steps=-1)
        assert _main_on(doc, "validate", tmp_path) == 2
        assert capsys.readouterr().err.endswith(
            "  - trainer.eta0: must be positive\n  - trainer.steps: must be nonnegative\n")

    @pytest.mark.parametrize("kind,params", [
        ("safety", {"s_min": 0.0, "dual_step": 0.0, "max_dual_iters": 0}),
        ("fixed_point", {"beta": 0.0, "max_iters": 0, "tol": 0.0})])
    def test_every_bad_config_field_named_in_one_run(self, tmp_path, kind, params, capsys):
        # bounds and the family names were once checked only by their constructors, which
        # named neither path nor value, and only the first bad field of a section
        doc = copy.deepcopy(BUNDLED_DOCS[kind])
        bad = {"bounds": {"w_min": -0.1, "w_max": 0.0, "lipschitz": 0.0},
               "operators.token": {"family": "family_z", "alpha": 0.0, "safety_adjustment": 1},
               "operators.task": {"family": "family_z", "tau": 0.0},
               "operators.context": {"family": "family_z"},
               "trainer": {"eta0": 0.0, "steps": -1, "ridge": -1.0, "eval_every": 0,
                           "init_scale": -1.0, "seed": -1},
               "params": params}
        doc.update(bounds=bad["bounds"], trainer=bad["trainer"], operators={
            scale: bad[f"operators.{scale}"] for scale in ("token", "task", "context")})
        doc["params"].update(params)
        assert _main_on(doc, "validate", tmp_path) == 2
        lines = capsys.readouterr().err.splitlines()[1:]
        assert [line.split(": ")[0] for line in lines] == [
            f"  - {section}.{name}" for section, fields in bad.items() for name in fields]
        assert "  - operators.context.family: must be one of 'uniform', 'inverse_entropy', " \
               "'family_a', 'family_b', 'family_c', 'custom'" in lines

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_every_bad_world_field_named_in_one_run(self, tmp_path, command, capsys):
        # the world specs once checked these fields alone: only the first was printed, without
        # its path, as "world: vocabulary size must be >= 2, got 1"; now each field gets a line,
        # in the order the world is read (vocab, inputs, tasks, contexts, teachers)
        doc = copy.deepcopy(BUNDLED_DOCS["train"])
        world = doc["world"]
        world["vocab"]["size"] = 1
        world["tasks"][0]["importance"] = -1
        world["contexts"][-1]["measure_weight"] = -1
        world["teachers"]["count"] = 0
        last = len(world["contexts"]) - 1
        assert _main_on(doc, command, tmp_path) == 2
        assert capsys.readouterr().err == (
            "config error: invalid config:\n"
            "  - world.vocab.size: must be at least 2\n"
            "  - world.tasks[0].importance: must be nonnegative\n"
            f"  - world.contexts[{last}].measure_weight: must be nonnegative\n"
            "  - world.teachers.count: must be at least 1\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_teacher_count_beyond_any_table_named_once(self, tmp_path, command, capsys):
        # a count whose float overflows was also built into a bank, whose line quoted all 401
        # digits; a finite count too large to allocate, with an empty table, read "teacher
        # cells must be numeric (K, V) arrays" where a count of 3 names the missing cell
        doc = copy.deepcopy(BUNDLED_DOCS["train"])
        doc["world"]["teachers"]["count"] = 10**400
        assert _main_on(doc, command, tmp_path) == 2
        assert capsys.readouterr().err == (
            "config error: invalid config:\n  - world.teachers.count: non-finite number\n")
        for count in (10**30, 3):
            doc["world"]["teachers"].update(count=count, table=[])
            assert _main_on(doc, command, tmp_path) == 2
            assert capsys.readouterr().err == (
                "config error: invalid config:\n"
                "  - world: teacher table missing cell: no entries for input 0\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_each_operator_scale_reported(self, tmp_path, command, capsys):
        # the three scales were read in one pass: the first bad scale hid the others
        doc = copy.deepcopy(BUNDLED_DOCS["conformance"])
        doc["operators"] = {"token": {"alpha": 0}, "task": {"tau": 0}, "context": {"famliy": "x"}}
        assert _main_on(doc, command, tmp_path) == 2
        assert capsys.readouterr().err.endswith(
            "  - operators.token.alpha: must be positive\n  - operators.task.tau: must be "
            "positive\n  - operators.context.famliy: unknown field\n")
        doc["operators"] = {"token": {"family": "custom"}, "context": {"family": "custom"}}
        assert _main_on(doc, command, tmp_path) == 2  # a constructor's error names its scale
        assert capsys.readouterr().err.endswith(
            "  - operators.token: custom token operator needs a callable\n"
            "  - operators.context: custom context operator needs a callable\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])  # NaN, Infinity, -Infinity
    @pytest.mark.parametrize("kind,path", [
        ("train", ("trainer", "ridge")), ("train", ("trainer", "eta0")),
        ("train", ("trainer", "steps")), ("train", ("bounds", "lipschitz")),
        ("conformance", ("operators", "task", "tau")), ("fixed_point", ("params", "beta")),
        ("safety", ("params", "max_dual_iters")), ("train", ("seed",))],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
    def test_non_finite_number_named_once(self, tmp_path, value, kind, path, capsys):
        # "ridge": NaN once gave a second line, "trainer.ridge: must be nonnegative"
        doc = copy.deepcopy(BUNDLED_DOCS[kind])
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        assert _main_on(doc, "validate", tmp_path) == 2
        assert capsys.readouterr().err == (
            f"config error: invalid config:\n  - {'.'.join(path)}: non-finite number\n")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_task_without_perf_scores_exit_two(self, tmp_path, command, capsys):
        doc = copy.deepcopy(BUNDLED_DOCS["conformance"])
        del doc["world"]["teachers"]["perf_scores"]["1"]
        assert _main_on(doc, command, tmp_path) == 2
        assert "world.teachers.perf_scores: no scores for task 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_grid_table_exit_two(self, tmp_path, command, capsys):
        doc = copy.deepcopy(BUNDLED_DOCS["safety"])
        del doc["world"]["teachers"]["table"][4]
        assert _main_on(doc, command, tmp_path) == 2
        assert "not a full grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_token_without_mass_in_a_live_cell_exit_two(self, tmp_path, command, capsys):
        # the weight update takes the log of each ensemble entry: a token no teacher
        # gives mass to in a cell of positive measure is rejected before the run
        doc = copy.deepcopy(BUNDLED_DOCS["fixed_point"])
        doc["world"]["teachers"]["table"][0]["dists"] = [[0.8, 0.2, 0.0], [0.4, 0.6, 0.0]]
        assert _main_on(doc, command, tmp_path) == 2
        assert ("world.teachers.table: token 2 has zero mass under every teacher at input 0, "
                "context 0") in capsys.readouterr().err
        doc["world"]["teachers"]["table"][0]["dists"][1] = [0.4, 0.35, 0.25]  # one teacher has it
        assert _main_on(doc, command, tmp_path) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("kind,token", [("rate", 9), ("safety", 4)])
    def test_token_without_mass_for_a_ridge_free_solve_exit_two(self, tmp_path, command, kind,
                                                                token, capsys):
        # rate at ridge 0 and the safety run's Jensen check solve for centered log targets:
        # a token that no teacher gives mass to in any live context of an input (for safety,
        # any live safety-critical context) has no finite logit, and is rejected before the run
        doc = copy.deepcopy(BUNDLED_DOCS[kind])
        if kind == "rate":
            doc["trainer"]["ridge"] = 0.0
        solved = {c["id"] for c in doc["world"]["contexts"]
                  if kind == "rate" or c["safety_critical"]}
        for cell in doc["world"]["teachers"]["table"]:
            if cell["input"] == 0 and cell["context"] in solved:
                cell["dists"] = [[*row[:-1], 0.0] for row in cell["dists"]]
                cell["dists"] = [[p / sum(row) for p in row] for row in cell["dists"]]
        assert _main_on(doc, command, tmp_path) == 2
        assert (f"world.teachers.table: token {token} has zero mass under every teacher in every "
                f"live context of input 0; a ridge-free {kind} solve needs it positive in some "
                "teacher") in capsys.readouterr().err
        if command == "validate":  # a positive ridge, or mass in a plain context, solves finitely
            if kind == "rate":
                doc["trainer"]["ridge"] = 0.01
            else:
                doc["world"]["contexts"] = [{**c, "safety_critical": True}
                                            for c in doc["world"]["contexts"]]
            assert _main_on(doc, command, tmp_path) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("kind,dropped", [("rate", 7), ("safety", 2)])
    def test_unsampled_input_for_a_ridge_free_solve_exit_two(self, tmp_path, command, kind,
                                                             dropped, capsys):
        # an input that no task samples has no target, so the centered-log solve has no
        # finite logits for it: its line names the input's sampling weight, not a token
        doc = copy.deepcopy(BUNDLED_DOCS[kind])
        if kind == "rate":
            doc["trainer"]["ridge"] = 0.0
        for task in doc["world"]["tasks"]:  # the dropped input's weight moves to the first
            moved = sum(w for x, w in task["inputs"] if x == dropped)
            task["inputs"] = [[x, w] for x, w in task["inputs"] if x != dropped]
            task["inputs"][0][1] += moved
        if kind == "safety":  # a pair of zero measure needs no label
            doc["params"]["labels"] = [r for r in doc["params"]["labels"] if r["input"] != dropped]
        assert _main_on(doc, command, tmp_path) == 2
        err = capsys.readouterr().err
        assert (f"- world.tasks: input {dropped} has no sampling weight in any task; a ridge-free "
                f"{kind} solve needs every input sampled\n") in err
        assert "zero mass" not in err
        if command == "validate" and kind == "rate":  # a positive ridge solves finitely
            doc["trainer"]["ridge"] = 0.01
            assert _main_on(doc, command, tmp_path) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("trainer,evals", [({"steps": 10}, 1), ({"eval_every": 60000}, 1),
                                               ({"steps": 2250}, 9), ({"steps": 0}, 0)])
    def test_rate_schedule_with_too_few_records_exit_two(self, tmp_path, command, trainer, evals,
                                                         capsys):
        # the power-law fit needs 10 eval records after step 0, ceil(steps / eval_every) of
        # them: a shorter schedule is rejected before any seed trains
        doc = copy.deepcopy(BUNDLED_DOCS["rate"])
        doc["trainer"].update(trainer)  # the bundled schedule records every 250 steps
        assert _main_on(doc, command, tmp_path) == 2
        assert ("trainer: a rate fit needs at least 10 eval records after step 0, got "
                f"ceil(steps / eval_every) = {evals}") in capsys.readouterr().err
        if command == "validate":  # one step more gives the tenth record
            doc["trainer"].update(steps=2251, eval_every=250)
            assert _main_on(doc, command, tmp_path) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rate_empty_slope_interval_exit_two(self, tmp_path, command, capsys):
        # no fitted slope passes both slope checks of an empty interval
        doc = copy.deepcopy(BUNDLED_DOCS["rate"])
        doc["params"].update(slope_low=-0.5, slope_high=-1.5)
        assert _main_on(doc, command, tmp_path) == 2
        assert "params: slope_low -0.5 exceeds slope_high -1.5" in capsys.readouterr().err
        if command == "validate":  # an interval of one slope is not empty
            doc["params"].update(slope_low=-1.0, slope_high=-1.0)
            assert _main_on(doc, command, tmp_path) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("world,got", [("two_tokens", "K=2, V=2"), ("one_teacher", "K=1, V=3")],
                             ids=["two_tokens", "one_teacher"])
    def test_appendix_world_the_suite_cannot_read_exit_two(self, tmp_path, command, world, got,
                                                           capsys):
        # the suite reads two teacher weights and three ensemble entries: such a world once
        # validated, then died in a bare IndexError at run time (exit 1)
        doc = copy.deepcopy(BUNDLED_DOCS["appendix_a"])
        teachers = doc["world"]["teachers"]
        if world == "two_tokens":
            doc["world"]["vocab"]["size"] = 2
            teachers["table"][0]["dists"] = [[0.8, 0.2], [0.4, 0.6]]
        else:
            teachers.update(count=1, perf_scores={"0": [0.8]}, safety_scores=[0.9])
            teachers["table"][0]["dists"] = teachers["table"][0]["dists"][:1]
            doc["bounds"]["w_max"] = 1.0
            doc["params"]["given_entropies"] = [0.68]
        assert _main_on(doc, command, tmp_path) == 2
        assert ("- world: an appendix_a run needs 2 teachers and at least 3 tokens, got "
                f"{got}\n") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("scales", [[], ["task", "task"]], ids=["empty", "repeated"])
    def test_conformance_scales_empty_or_repeated_exit_two(self, tmp_path, command, scales,
                                                           capsys):
        # no scale ran and passed "0/0 assertions"; a repeated one wrote two assertions of
        # one name
        doc = copy.deepcopy(BUNDLED_DOCS["conformance"])
        doc["params"]["scales"] = scales
        assert _main_on(doc, command, tmp_path) == 2
        assert ("- params.scales: must be a nonempty list of distinct scales: 'token', 'task' "
                "and 'context'\n") in capsys.readouterr().err
        if command == "validate":  # one scale is enough
            doc["params"]["scales"] = ["task"]
            assert _main_on(doc, command, tmp_path) == 0

    @pytest.mark.parametrize("kind,case", [("rate", "rate"), ("safety", "safety_context"),
                                           ("safety", "safety_mass"),
                                           ("safety", "safety_world_unparsed"),
                                           ("fixed_point", "fixed_point")])
    def test_kind_checks_report_every_line_in_order(self, kind, case):
        # one document trips several of a kind's cross-section checks: each reports its own
        # line, after the sections' own lines, in the order the checks are declared
        doc = copy.deepcopy(BUNDLED_DOCS[kind])
        if kind == "rate":
            doc["trainer"].update(steps=10, ridge=0.0)
            doc["params"].update(slope_low=-0.5, slope_high=-1.5)
        elif kind == "safety":
            doc["trainer"]["ridge"] = 0.0
        if case == "fixed_point":
            doc["bounds"].update(w_min=0.5, w_max=0.9)
            doc["params"]["beta"] = 2.0
            doc["world"]["teachers"]["table"][0]["dists"] = [[0.8, 0.2, 0.0], [0.4, 0.6, 0.0]]
        elif case == "safety_context":
            for context in doc["world"]["contexts"]:
                context["safety_critical"] = False
        elif case == "safety_world_unparsed":  # the checks that read no world still run
            del doc["world"]["teachers"]["perf_scores"]["0"]
        if case in ("rate", "safety_mass"):  # the last token, at input 0, in every solved cell
            solved = {c["id"] for c in doc["world"]["contexts"]
                      if kind == "rate" or c["safety_critical"]}
            for cell in doc["world"]["teachers"]["table"]:
                if cell["input"] == 0 and cell["context"] in solved:
                    cell["dists"] = [[*row[:-1], 0.0] for row in cell["dists"]]
                    cell["dists"] = [[p / sum(row) for p in row] for row in cell["dists"]]
        ridge_free = ("has zero mass under every teacher in every live context of input 0; a "
                      f"ridge-free {kind} solve needs it positive in some teacher")
        expected = {
            "rate": [
                "trainer: a rate fit needs at least 10 eval records after step 0, got "
                "ceil(steps / eval_every) = 1",
                "params: slope_low -0.5 exceeds slope_high -1.5; no slope passes both rate "
                "checks",
                f"world.teachers.table: token 9 {ridge_free}"],
            "safety_context": [
                "trainer.ridge: must be positive for a safety run",
                "world.contexts: a safety run needs a safety-critical context with positive "
                "measure_weight"],
            "safety_mass": [
                "trainer.ridge: must be positive for a safety run",
                f"world.teachers.table: token 4 {ridge_free}"],
            "fixed_point": [
                "params.beta: must lie in (0, 1]",
                "bounds: admit one weight vector for K=2; a fixed_point run needs "
                "K*w_min < 1 < K*w_max",
                "world.teachers.table: token 2 has zero mass under every teacher at input 0, "
                "context 0; a fixed_point run needs it positive in some teacher"],
            "safety_world_unparsed": [
                "world.teachers.perf_scores: no scores for task 0",
                "trainer.ridge: must be positive for a safety run"],
        }[case]
        with pytest.raises(ParseError) as exc:
            parse_config_dict(doc)
        assert str(exc.value) == "invalid config:\n  - " + "\n  - ".join(expected)

    def test_seed_override_changes_hash(self, tmp_path, capsys):
        p = CONFIGS / "appendix_a.json"
        main(["run", str(p), "--out", str(tmp_path / "a"), "--quiet"])
        main(["run", str(p), "--seed", "99", "--out", str(tmp_path / "b"), "--quiet"])
        ha = json.loads((tmp_path / "a" / "summary.json").read_text())["config_hash"]
        hb = json.loads((tmp_path / "b" / "summary.json").read_text())["config_hash"]
        assert ha != hb

    def test_seed_override_parses_once(self, tmp_path, monkeypatch):
        # the override once re-parsed the document that the first parse kept in the config
        parsed = []

        def counting(doc):
            parsed.append(doc)
            return parse_config_dict(doc)

        monkeypatch.setattr("mskd.runner.parse_config_dict", counting)
        doc = bundled_doc("train")
        assert _main_on(doc, "run", tmp_path, "--seed", "11", "--quiet") == 0
        seeded = {**doc, "seed": 11, "trainer": {**doc["trainer"], "seed": 11}}
        assert parsed == [seeded]
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["config_hash"] == parse_config_dict(seeded).config_hash

    @pytest.mark.parametrize("root", [False, True], ids=["trainer", "root"])
    def test_seed_override_of_a_non_object_exit_two(self, tmp_path, root, capsys):
        # --seed sets no field of a root or trainer that is not an object; the parse names it
        doc = [] if root else {**bundled_doc("train"), "trainer": []}
        assert _main_on(doc, "run", tmp_path, "--seed", "3") == 2
        assert ("config root must be a JSON object" if root else "- trainer: must be an object") \
            in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AWKD_OUT", str(tmp_path / "envout"))
        assert main(["run", str(CONFIGS / "appendix_a.json"), "--quiet"]) == 0
        produced = list((tmp_path / "envout").glob("appendix_a-*/summary.json"))
        assert len(produced) == 1
