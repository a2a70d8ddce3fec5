import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from posepriors import modelio, vae
from posepriors.errors import DataError
from posepriors.priors import (
    BoxLimitModel,
    GammaModel,
    GmmModel,
    TemporalGmmModel,
    box_from_data,
    fit_gmm_em,
    fit_mvn,
    fit_temporal_gmm,
)
from posepriors.posedata import MotionSequence, compute_deltas

NAMES = ["mvn", "gmm", "gamma", "box", "temporal_gmm", "vae"]


def all_models():
    rng = np.random.default_rng(55)
    x = rng.normal(0.0, 0.5, (200, 3))
    mvn = fit_mvn(x)
    gmm = fit_gmm_em(x, 2, seed=1, max_iter=50)
    gamma = GammaModel(
        alpha=[2.0, 1.5, 3.0], beta=[1.0, 2.0, 0.5], sign=[1, -1, 1],
        shift=[0.1, -0.2, 0.0],
        fit_meta={"seed": None, "jitter": None, "iterations": None, "final_loglik": None},
    )
    box = BoxLimitModel(lo=[-1.0, -2.0], hi=[1.0, 0.5], stiffness=3.0)
    seq = MotionSequence(
        timestamps=np.arange(20) / 30.0,
        poses=np.cumsum(rng.normal(0.0, 0.01, (20, 3)), axis=0),
    )
    temporal = fit_temporal_gmm(compute_deltas(seq), 1, seed=2, max_iter=50)
    vmodel = vae.build_vae(n_joints=2, latent_dim=2, hidden=(8,), seed=9)
    vmodel.fit_meta.update(seed=9, jitter=None, iterations=0, final_loglik=None)
    return {
        "mvn": mvn,
        "gmm": gmm,
        "gamma": gamma,
        "box": box,
        "temporal_gmm": temporal,
        "vae": vmodel,
    }


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["mvn", "gmm", "gamma", "box", "temporal_gmm", "vae"])
    def test_bytes_stable(self, name, tmp_path):
        model = all_models()[name]
        path = tmp_path / f"{name}.json"
        modelio.save_model(model, path)
        first = path.read_bytes()
        loaded = modelio.load_model(path)
        modelio.save_model(loaded, path)
        assert path.read_bytes() == first

    def test_integer_stiffness_box_bytes_stable(self, tmp_path):
        # The stiffness is stored as a float, so the first save already writes 1.0.
        model = box_from_data(np.random.default_rng(3).normal(0.0, 1.0, (20, 2)), stiffness=1)
        path = tmp_path / "box.json"
        modelio.save_model(model, path)
        first = path.read_bytes()
        modelio.save_model(modelio.load_model(path), path)
        assert path.read_bytes() == first
        assert b'"stiffness": 1.0' in first

    def test_document_fields(self):
        doc = modelio.model_to_doc(all_models()["mvn"])
        assert doc["format"] == "pose-prior v1"
        assert doc["model_type"] == "mvn"
        assert doc["dim"] == 3
        assert set(doc["fit_metadata"]) >= {"seed", "jitter", "iterations", "final_loglik"}

    def test_values_survive(self, tmp_path):
        models = all_models()
        mvn = models["mvn"]
        path = tmp_path / "m.json"
        modelio.save_model(mvn, path)
        loaded = modelio.load_model(path)
        assert np.array_equal(loaded.mean, mvn.mean)
        assert np.array_equal(loaded.cov, mvn.cov)
        x = np.array([0.1, -0.2, 0.3])
        assert loaded.log_prob(x) == mvn.log_prob(x)

    def test_temporal_type_preserved(self, tmp_path):
        path = tmp_path / "t.json"
        modelio.save_model(all_models()["temporal_gmm"], path)
        assert isinstance(modelio.load_model(path), TemporalGmmModel)

    def test_vae_loss_weights_survive(self, tmp_path):
        model = dataclasses.replace(all_models()["vae"],
                                    loss_weights=vae.LossWeights(1.0, 0.5, 2.0, 0.25, 1.5))
        path = tmp_path / "v.json"
        modelio.save_model(model, path)
        loaded = modelio.load_model(path)
        assert loaded.loss_weights == model.loss_weights
        r = np.eye(3)[None].repeat(2, axis=0)
        a = vae.total_loss(model, r, seed=4)
        b = vae.total_loss(loaded, r, seed=4)
        assert a == b

    @pytest.mark.parametrize("name", NAMES)
    def test_extra_param_keys_are_ignored(self, name):
        doc = json.loads(modelio.canonical_dumps(modelio.model_to_doc(all_models()[name])))
        first = modelio.canonical_dumps(doc)
        doc["params"]["note"] = "written by a later version"
        again = modelio.canonical_dumps(modelio.model_to_doc(modelio.model_from_doc(doc)))
        assert again == first

    def test_box_stiffness_loads_as_float(self):
        doc = modelio.model_to_doc(all_models()["box"])
        doc["params"]["stiffness"] = 3
        loaded = modelio.model_from_doc(doc)
        assert type(loaded.stiffness) is float
        assert modelio.model_to_doc(loaded)["params"]["stiffness"] == 3.0


class TestEarlierFiles:
    """tests/data holds one small model file per model_type, written by an
    earlier version of the library; the current one must re-save each of
    them byte for byte."""

    DATA = Path(__file__).parent / "data"

    @pytest.mark.parametrize("name", ["mvn", "gmm", "gamma", "box", "temporal_gmm", "vae"])
    def test_resave_reproduces_bytes(self, name):
        path = self.DATA / f"{name}.json"
        again = modelio.canonical_dumps(modelio.model_to_doc(modelio.load_model(path)))
        assert again == path.read_text(encoding="utf-8")

    def test_temporal_file_loads_as_temporal(self):
        assert isinstance(modelio.load_model(self.DATA / "temporal_gmm.json"), TemporalGmmModel)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            modelio.load_model(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="invalid JSON"):
            modelio.load_model(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "model_type": "mvn"}')
        with pytest.raises(DataError, match="pose-prior"):
            modelio.load_model(path)

    def test_unknown_model_type(self):
        with pytest.raises(DataError, match="unknown model_type"):
            modelio.model_from_doc(
                {"format": "pose-prior v1", "model_type": "mystery", "params": {}}
            )

    def test_malformed_params(self):
        with pytest.raises(DataError, match="malformed"):
            modelio.model_from_doc(
                {"format": "pose-prior v1", "model_type": "mvn", "params": {"mean": [0.0]}}
            )

    @pytest.mark.parametrize("name, change, match", [
        ("mvn", {"model_type": ["mvn"]}, "unknown model_type"),
        ("mvn", {"model_type": None}, "unknown model_type"),
        ("mvn", {"model_type": {"a": 1}}, "unknown model_type"),
        ("mvn", {"params": [0.0, 1.0]}, "malformed 'mvn'"),
    ] + [(name, {"fit_metadata": None}, f"malformed '{name}'") for name in NAMES])
    def test_malformed_envelope(self, name, change, match):
        doc = json.loads(modelio.canonical_dumps(modelio.model_to_doc(all_models()[name])))
        doc.update(change)
        with pytest.raises(DataError, match=match):
            modelio.model_from_doc(doc)


class TestCanonicalDumps:
    DOC = {
        "count": np.int64(7), "scale": np.float32(0.1), "zero_d": np.array(2.5),
        "zero_d_int": np.array(3), "f32_array": np.array([0.1, 0.25], dtype=np.float32),
        "nested": {"rows": np.arange(6.0).reshape(2, 3) / 3.0,
                   "list": [np.float32(1.5), np.int32(-2), (np.float64(0.1), 4)]},
        "flag": True, "none": None,
    }

    def test_numpy_leaves_bytes(self):
        """numpy integers, float32 scalars and arrays, 0-d and nested arrays: pinned bytes."""
        assert modelio.canonical_dumps(self.DOC) == (
            '{\n  "count": 7,\n  "f32_array": [\n    0.10000000149011612,\n    0.25\n  ],\n'
            '  "flag": true,\n  "nested": {\n    "list": [\n      1.5,\n      -2,\n      [\n'
            '        0.1,\n        4\n      ]\n    ],\n    "rows": [\n      [\n        0.0,\n'
            '        0.3333333333333333,\n        0.6666666666666666\n      ],\n      [\n'
            '        1.0,\n        1.3333333333333333,\n        1.6666666666666667\n      ]\n'
            '    ]\n  },\n  "none": null,\n  "scale": 0.10000000149011612,\n  "zero_d": 2.5,\n'
            '  "zero_d_int": 3\n}\n')

    @pytest.mark.parametrize("leaf", [np.bool_(True), {1, 2}, 1j, object()],
                             ids=["np.bool_", "set", "complex", "object"])
    def test_what_json_cannot_encode_is_type_error(self, leaf):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            modelio.canonical_dumps({"a": [1.0, {"b": leaf}]})


class TestRegistry:
    def test_every_family_ships_a_resave_fixture(self):
        stems = {path.stem for path in TestEarlierFiles.DATA.glob("*.json")}
        assert set(modelio.FAMILIES) == stems

    def test_unregistered_object_is_not_serializable(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            modelio.model_to_doc(object())

    def test_energy_adapter_is_not_serializable(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            modelio.model_to_doc(vae.VaeEnergyPrior(all_models()["vae"]))

    def test_subclass_saves_as_its_family(self):
        class TaggedGmm(GmmModel):
            pass

        gmm = all_models()["gmm"]
        tagged = TaggedGmm(weights=gmm.weights, means=gmm.means, covs=gmm.covs,
                           fit_meta=gmm.fit_meta)
        doc = modelio.model_to_doc(tagged)
        assert doc["model_type"] == "gmm"
        assert modelio.canonical_dumps(doc) == modelio.canonical_dumps(modelio.model_to_doc(gmm))
