"""Every prior query enters through PosePrior: families define only the math."""

import ast
from pathlib import Path

import pytest

from posepriors import modelio
from posepriors.priors import PosePrior
from posepriors.vae import VaeEnergyPrior

QUERIES = ("log_prob_many", "grad_log_prob_many", "log_prob", "grad_log_prob")
REPO = Path(__file__).resolve().parents[1]
RECOVERY = REPO / "src" / "posepriors" / "recovery.py"
# The prior calls a recovery makes are counted by wrappers that count only
# log_prob and grad_log_prob and forward every other attribute uncounted.
# log_prob_bound is a model constant read once per recovery, not a pose query.
COUNTING_PRIORS = {"posebench": REPO / "posebench" / "workloads.py",
                   "tests": REPO / "tests" / "test_recovery.py"}
RECOVERY_READS = {"dim", "log_prob", "grad_log_prob", "mode", "mean_vector", "log_prob_bound"}


@pytest.mark.parametrize("cls", [*modelio.FAMILIES.values(), VaeEnergyPrior],
                         ids=lambda cls: cls.__name__)
def test_family_defines_no_query_method(cls):
    assert [name for name in QUERIES if name in vars(cls)] == []


# A family writes or reads its own JSON only where that differs from its PARAMS fields.
OWN_PARAMS_METHODS = {"GammaModel": {"to_params"}}


@pytest.mark.parametrize("model_type", [name for name, cls in modelio.FAMILIES.items()
                                        if issubclass(cls, PosePrior)])
def test_family_names_its_parameters_once(model_type):
    cls = modelio.FAMILIES[model_type]
    own = {name for name in ("to_params", "from_params") if name in vars(cls)}
    assert own == OWN_PARAMS_METHODS.get(cls.__name__, set())
    model = modelio.load_model(REPO / "tests" / "data" / f"{model_type}.json")
    assert list(model.to_params()) == list(cls.PARAMS)


def test_base_class_defines_every_query():
    assert [name for name in QUERIES if name not in vars(PosePrior)] == []


@pytest.mark.parametrize("cls", [PosePrior, *modelio.FAMILIES.values(), VaeEnergyPrior],
                         ids=lambda cls: cls.__name__)
def test_gradients_are_defined_over_rows_only(cls):
    # A point gradient is one row of _grad_rows; a point-only _grad would be a second path.
    assert not hasattr(cls, "_grad")
    assert hasattr(cls, "_grad_rows") == (issubclass(cls, PosePrior) and cls is not PosePrior)


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


def prior_reads(source: str) -> set[str]:
    """Every attribute read off a name `prior`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "prior"}


def counting_methods(source: str) -> dict[str, bool]:
    """CountingPrior's methods, each mapped to whether it adds to a self counter."""
    cls = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == "CountingPrior")
    return {fn.name: any(isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute)
                         and isinstance(node.target.value, ast.Name)
                         and node.target.value.id == "self" for node in ast.walk(fn))
            for fn in cls.body if isinstance(fn, ast.FunctionDef)}


def test_checkers_see_reads_and_counters():
    source = (
        "class CountingPrior:\n"
        "    def __getattr__(self, name):\n"
        "        return getattr(self.prior, name)\n"
        "    def value_and_grad(self, x):\n"
        "        self.calls += 1\n"
        "        return self.prior.value_and_grad(x)\n"
        "def run(prior, obs):\n"
        "    return prior.value_and_grad(obs.values), prior.dim\n"
    )
    assert prior_reads(source) == {"value_and_grad", "dim"}
    assert counting_methods(source) == {"__getattr__": False, "value_and_grad": True}


def test_recovery_reads_only_what_the_counting_priors_see():
    # A fused or batched query read here would escape both counters, and
    # prior_calls_per_pose would fall without less work being done.
    assert prior_reads(RECOVERY.read_text(encoding="utf-8")) <= RECOVERY_READS


@pytest.mark.parametrize("where", sorted(COUNTING_PRIORS))
def test_counting_prior_counts_only_the_two_queries(where):
    methods = counting_methods(COUNTING_PRIORS[where].read_text(encoding="utf-8"))
    assert methods == {"__init__": False, "__getattr__": False,
                       "log_prob": True, "grad_log_prob": True}
