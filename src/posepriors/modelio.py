"""Model serialization: one JSON envelope for every prior family.

Documents carry {format, model_type, dim, params, fit_metadata}. Writing
is canonical (sorted keys, two-space indent, repr-shortest floats), so
serialize -> deserialize -> serialize is byte-identical; fit_metadata is
preserved verbatim on load rather than recomputed.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import vae as vae_mod
from .errors import DataError
from .priors import (
    BoxLimitModel,
    GammaModel,
    GmmModel,
    MvnModel,
    TemporalGmmModel,
    mvn_from_moments,
)

MODEL_FORMAT = "pose-prior v1"


def _plain(value):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def canonical_dumps(doc: dict) -> str:
    return json.dumps(_plain(doc), sort_keys=True, indent=2) + "\n"


def _meta(model) -> dict:
    base = {"seed": None, "jitter": None, "iterations": None, "final_loglik": None}
    base.update(getattr(model, "fit_meta", {}) or {})
    return base


def model_to_doc(model) -> dict:
    if isinstance(model, MvnModel):
        model_type, dim = "mvn", model.dim
        params = {"mean": model.mean, "cov": model.cov}
    elif isinstance(model, GammaModel):
        model_type, dim = "gamma", model.dim
        params = {
            "alpha": model.alpha,
            "beta": model.beta,
            "sign": [int(s) for s in model.sign],
            "shift": model.shift,
        }
    elif isinstance(model, GmmModel):
        model_type = "temporal_gmm" if isinstance(model, TemporalGmmModel) else "gmm"
        dim = model.dim
        params = {"weights": model.weights, "means": model.means, "covs": model.covs}
    elif isinstance(model, BoxLimitModel):
        model_type, dim = "box", model.dim
        params = {"lo": model.lo, "hi": model.hi, "stiffness": model.stiffness}
    elif isinstance(model, vae_mod.VaeModel):
        model_type, dim = "vae", model.input_dim // 9 * 3
        params = {
            "input_dim": model.input_dim,
            "latent_dim": model.latent_dim,
            "encoder": vae_mod.mlp_to_doc(model.encoder),
            "decoder": vae_mod.mlp_to_doc(model.decoder),
            "loss_weights": {
                "w_kl": model.loss_weights.w_kl,
                "w_rec": model.loss_weights.w_rec,
                "w_orth": model.loss_weights.w_orth,
                "w_det1": model.loss_weights.w_det1,
                "w_reg": model.loss_weights.w_reg,
            },
        }
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return {
        "format": MODEL_FORMAT,
        "model_type": model_type,
        "dim": dim,
        "params": params,
        "fit_metadata": _meta(model),
    }


def model_from_doc(doc: dict):
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError(f"not a '{MODEL_FORMAT}' document")
    model_type = doc.get("model_type")
    params = doc.get("params", {})
    meta = doc.get("fit_metadata", {})
    try:
        if model_type == "mvn":
            model = mvn_from_moments(params["mean"], params["cov"])
            model.fit_meta = dict(meta)
            return model
        if model_type == "gamma":
            return GammaModel(
                alpha=params["alpha"],
                beta=params["beta"],
                sign=params["sign"],
                shift=params["shift"],
                fit_meta=dict(meta),
            )
        if model_type in ("gmm", "temporal_gmm"):
            cls = TemporalGmmModel if model_type == "temporal_gmm" else GmmModel
            return cls(
                weights=params["weights"],
                means=params["means"],
                covs=params["covs"],
                fit_meta=dict(meta),
            )
        if model_type == "box":
            return BoxLimitModel(
                lo=params["lo"],
                hi=params["hi"],
                stiffness=float(params["stiffness"]),
                fit_meta=dict(meta),
            )
        if model_type == "vae":
            return vae_mod.VaeModel(
                input_dim=int(params["input_dim"]),
                latent_dim=int(params["latent_dim"]),
                encoder=vae_mod.mlp_from_doc(params["encoder"]),
                decoder=vae_mod.mlp_from_doc(params["decoder"]),
                loss_weights=vae_mod.LossWeights(**params["loss_weights"]),
                fit_meta=dict(meta),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {model_type!r} model document: {exc}") from None
    raise DataError(f"unknown model_type {model_type!r}")


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(model_to_doc(model)))


def load_model(path):
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from None
    return model_from_doc(doc)
