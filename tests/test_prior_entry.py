"""Every prior query enters through PosePrior: families define only the math."""

import ast
from pathlib import Path

import pytest

from posepriors import modelio
from posepriors.priors import PosePrior
from posepriors.vae import VaeEnergyPrior

QUERIES = ("log_prob_many", "log_prob", "grad_log_prob")
RECOVERY = Path(__file__).resolve().parents[1] / "src" / "posepriors" / "recovery.py"


@pytest.mark.parametrize("cls", [*modelio.FAMILIES.values(), VaeEnergyPrior],
                         ids=lambda cls: cls.__name__)
def test_family_defines_no_query_method(cls):
    assert [name for name in QUERIES if name in vars(cls)] == []


def test_base_class_defines_every_query():
    assert [name for name in QUERIES if name not in vars(PosePrior)] == []


def prior_probes(source: str) -> list[int]:
    """Line of each getattr or hasattr call whose first argument is `prior`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr") and node.args
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "prior"]


def test_checker_flags_probes_of_the_prior():
    source = (
        "def start(obs, prior):\n"
        "    mode_fn = getattr(prior, 'mode', None)\n"
        "    size = getattr(obs, 'dim')\n"
        "    if hasattr(prior, 'mean_vector'):\n"
        "        return prior.mean_vector()\n"
    )
    assert sorted(prior_probes(source)) == [2, 4]


def test_recovery_does_not_probe_the_prior():
    assert prior_probes(RECOVERY.read_text(encoding="utf-8")) == []
