"""Model serialization: one JSON envelope for every prior family.

Documents carry {format, model_type, dim, params, fit_metadata}. Writing
is canonical (sorted keys, two-space indent, repr-shortest floats), so
serialize -> deserialize -> serialize is byte-identical; fit_metadata is
preserved verbatim on load rather than recomputed.
"""

from __future__ import annotations

import json

import numpy as np

from . import priors, vae
from .errors import DataError
from .posedata import read_json, write_text

MODEL_FORMAT = "pose-prior v1"

# model_type -> family class, each with MODEL_TYPE, to_params() and
# from_params(params, meta). A subclass inherits its family's MODEL_TYPE.
FAMILIES = {cls.MODEL_TYPE: cls for cls in (
    priors.MvnModel, priors.GammaModel, priors.GmmModel, priors.TemporalGmmModel,
    priors.BoxLimitModel, vae.VaeModel)}


def _numpy_leaf(value):
    """json's `default` hook: numpy arrays and scalars (other than np.float64,
    a float) as plain Python values; anything else stays a TypeError."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_numpy_leaf) + "\n"


def _meta(model) -> dict:
    base = {"seed": None, "jitter": None, "iterations": None, "final_loglik": None}
    base.update(getattr(model, "fit_meta", {}) or {})
    return base


def model_to_doc(model) -> dict:
    model_type = getattr(model, "MODEL_TYPE", None)
    if model_type not in FAMILIES:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return {
        "format": MODEL_FORMAT,
        "model_type": model_type,
        "dim": model.dim,
        "params": model.to_params(),
        "fit_metadata": _meta(model),
    }


def model_from_doc(doc: dict):
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError(f"not a '{MODEL_FORMAT}' document")
    model_type = doc.get("model_type")
    if not isinstance(model_type, str) or model_type not in FAMILIES:
        raise DataError(f"unknown model_type {model_type!r}")
    params, meta = doc.get("params", {}), doc.get("fit_metadata", {})
    try:
        return FAMILIES[model_type].from_params(params, meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {model_type!r} model document: {exc}") from None


def save_model(model, path) -> None:
    write_text(path, [canonical_dumps(model_to_doc(model))])


def load_model(path):
    doc = read_json(path)
    try:
        return model_from_doc(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
