"""The large-world generator is a pure function of the workload seed.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import json

import pytest

import gen_world
from mskd.runner import parse_config_dict


def config_hash(make, seed: int) -> str:
    return parse_config_dict(json.loads(json.dumps(make(seed)))).config_hash


@pytest.mark.parametrize("make", [gen_world.perturbation_doc, gen_world.safety_doc])
def test_config_hash_follows_the_seed(make):
    assert config_hash(make, 3) == config_hash(make, 3)
    assert config_hash(make, 3) != config_hash(make, 4)
    assert config_hash(make, 0) != config_hash(make, 3)


def test_safety_world_is_renamed_not_redrawn():
    base, renamed = gen_world.safety_doc(0), gen_world.safety_doc(5)
    table = [cell["dists"] for cell in base["world"]["teachers"]["table"]]
    assert [cell["dists"] for cell in renamed["world"]["teachers"]["table"]] == table
    assert [r["token"] for r in renamed["params"]["labels"]] == \
        [r["token"] for r in base["params"]["labels"]]
    assert [x["id"] for x in renamed["world"]["inputs"]] != \
        [x["id"] for x in base["world"]["inputs"]]
