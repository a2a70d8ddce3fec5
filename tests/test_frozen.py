"""Every model is a value: fixed once built, so no query answers from a stale state.

Each family is built four ways (constructed from the caller's arrays, loaded
from tests/data, deep-copied and pickled). An in-place edit of a parameter
array or of its Cholesky factor and a reassignment of a field all raise, and
dataclasses.replace answers as the same model built afresh from its edited
document, with its own fit_meta.
"""

import copy
import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepriors import linalg, modelio
from posepriors.priors import BoxLimitModel, GammaModel, GmmModel, MvnModel, TemporalGmmModel
from posepriors.vae import LossWeights, MlpLayer, MlpParams, VaeEnergyPrior, build_vae

DATA = Path(__file__).resolve().parent / "data"
FAMILIES = ["mvn", "gamma", "gmm", "temporal_gmm", "box", "vae"]
WAYS = ["constructed", "loaded", "deepcopied", "pickled"]


def _inputs(name: str) -> dict:
    """The caller's arrays a constructed 3-d model of the family is built from."""
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 3.0 * np.eye(3)
    mixture = dict(weights=np.array([0.4, 0.6]), means=rng.standard_normal((2, 3)),
                   covs=np.stack([cov, 2.0 * cov]))
    return {
        "mvn": dict(mean=rng.standard_normal(3), cov=cov),
        "gamma": dict(alpha=np.array([2.0, 1.5, 3.0]), beta=np.array([1.0, 2.0, 0.5]),
                      sign=np.array([1.0, -1.0, 1.0]), shift=np.array([0.1, -0.2, 0.0])),
        "gmm": mixture,
        "temporal_gmm": mixture,
        "box": dict(lo=-np.ones(3), hi=np.array([1.0, 0.5, 2.0]), stiffness=2.0),
    }[name]


CLASSES = {"mvn": MvnModel, "gamma": GammaModel, "gmm": GmmModel,
           "temporal_gmm": TemporalGmmModel, "box": BoxLimitModel}


def _vae_model(seed: int = 1):
    return build_vae(n_joints=1, latent_dim=2, hidden=(4,), seed=seed)


def _build(name: str, way: str):
    if way == "loaded":
        model = modelio.load_model(DATA / f"{name}.json")
        return VaeEnergyPrior(model) if name == "vae" else model
    model = VaeEnergyPrior(_vae_model()) if name == "vae" else CLASSES[name](**_inputs(name))
    if way == "deepcopied":
        return copy.deepcopy(model)
    if way == "pickled":
        return pickle.loads(pickle.dumps(model))
    return model


def _arrays(model) -> list:
    """Every array a query of the model answers from: its PARAMS arrays and their
    Cholesky factors, or the encoder's."""
    if isinstance(model, VaeEnergyPrior):
        return [a for layer in model.model.encoder.layers for a in (layer.weight, layer.bias)]
    factors = [model.chol] if isinstance(model, MvnModel) else getattr(model, "_chols", [])
    return [*(getattr(model, name) for name in model.PARAMS if name != "stiffness"),  # a float
            *(a for chol in factors for a in (chol.lower, chol.inverse))]


def _values(model) -> list:
    """The model and every frozen value it holds."""
    if isinstance(model, VaeEnergyPrior):
        vae = model.model
        return [model, vae, vae.encoder, vae.decoder, *vae.encoder.layers, *vae.decoder.layers]
    return [model]


def _answers(model, points: np.ndarray) -> list:
    """Bytes of batched and one-row values and gradients at the points."""
    return [model.log_prob_many(points).tobytes(), model.grad_log_prob_many(points).tobytes(),
            np.float64(model.log_prob(points[0])).tobytes(),
            model.grad_log_prob(points[0]).tobytes()]


EDITS = {
    "setitem": lambda a, i, v: a.__setitem__(np.unravel_index(i % a.size, a.shape), v),
    "add": lambda a, i, v: np.add(a, v, out=a),
    "fill": lambda a, i, v: a.fill(v),
    "copyto": lambda a, i, v: np.copyto(a, v),
}


def _edited(key: str, value: np.ndarray, step: float) -> np.ndarray:
    """The parameter moved by a positive step, inside the family's rules."""
    if key == "sign":
        return -value
    if key in ("mean", "means", "shift", "hi"):
        return value + step
    if key == "lo":
        return value - step
    return value * (1.0 + step)  # cov, covs, alpha, beta, weights, stiffness


def _fresh(model, key: str, value):
    """The model built afresh from its document with params[key] replaced by value."""
    doc = modelio.model_to_doc(value if key == "model" else model)
    if key != "model":
        doc["params"][key] = value
    fresh = modelio.model_from_doc(json.loads(modelio.canonical_dumps(doc)))
    return VaeEnergyPrior(fresh) if key == "model" else fresh


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(edit=st.sampled_from(sorted(EDITS)), index=st.integers(0, 100),
       value=st.floats(-2.0, 2.0), step=st.floats(0.25, 2.0))
def test_an_edit_raises_and_replace_builds_a_fresh_model(name, way, edit, index, value, step):
    model = _build(name, way)
    points = model.support_points(4, np.random.default_rng(index), 1e-6)
    before = _answers(model, points)

    for array in _arrays(model):
        with pytest.raises(ValueError, match="read-only"):
            EDITS[edit](array, index, value)
    for held in _values(model):
        for f in dataclasses.fields(held):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(held, f.name, getattr(held, f.name))
    assert _answers(model, points) == before
    assert _answers(copy.deepcopy(model), points) == before

    if way == "constructed" and name != "vae":
        for key, array in _inputs(name).items():
            if isinstance(array, np.ndarray):
                assert array.flags.writeable
                assert not np.shares_memory(array, getattr(model, key))

    for key in ["model"] if name == "vae" else model.PARAMS:
        new = _vae_model(2 + index) if key == "model" else _edited(key, getattr(model, key), step)
        fresh = _fresh(model, key, new)
        replaced = dataclasses.replace(model, **{key: new})
        points = fresh.support_points(4, np.random.default_rng(index), 1e-6)
        assert _answers(replaced, points) == _answers(fresh, points)


@pytest.mark.parametrize("cls", [*modelio.FAMILIES.values(), VaeEnergyPrior, MlpParams, MlpLayer,
                                 LossWeights], ids=lambda cls: cls.__name__)
def test_every_model_class_is_a_frozen_dataclass(cls):
    """A class not itself declared frozen would let attributes be set on its instances."""
    assert "__dataclass_params__" in vars(cls) and cls.__dataclass_params__.frozen


@pytest.mark.parametrize("name", FAMILIES)
def test_a_replaced_model_keeps_its_own_fit_meta(name):
    model = modelio.load_model(DATA / f"{name}.json")
    doc = modelio.canonical_dumps(modelio.model_to_doc(model))
    replaced = dataclasses.replace(model)
    replaced.fit_meta["seed"] = 99
    for value in replaced.fit_meta.values():
        if isinstance(value, list):
            value.append(0.0)
    assert modelio.canonical_dumps(modelio.model_to_doc(model)) == doc


def test_a_factor_is_read_only_and_leaves_the_callers_array_writeable():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    lower = np.linalg.cholesky(a)
    for factor in (linalg.cholesky(a), linalg.CholFactor(lower, 0.0, 0.0)):
        for array in (factor.lower, factor.inverse):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
    assert lower.flags.writeable
    assert not np.shares_memory(lower, linalg.CholFactor(lower, 0.0, 0.0).lower)
