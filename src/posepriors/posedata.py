"""Pose data model and ingestion.

Pose vectors are flat float64 arrays of axis-angle components in radians,
three per joint. This module is the one home of the library's file
reading: `read_json` for every JSON document (specs, models,
observations), and one reader and one writer shared by the pose and
sequence CSV layouts. Every reader turns a missing file, invalid JSON, a
bad marker or header, or a bad row into a `DataError` that names the file
(and, for a CSV row, its line and column). CSV rows are parsed by numpy's
C reader; a body that reader does not take exactly goes through the
per-line parser, so what is accepted and every message are those of
`float()` on each cell. The module also holds a seeded synthetic dataset
generator that stands in for motion-capture corpora, Rodrigues conversion
between flat axis-angle pose vectors and (J, 3, 3) rotation stacks (input
checks here, the batched kernels in `rotations`), and the extraction of
frame-to-frame motion deltas.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import rotations
from .errors import DataError

CSV_MARKER = "# pose-csv v1"
AXIS_SUFFIXES = ("_x", "_y", "_z")


def default_column_names(dim: int) -> list[str]:
    if dim % 3 == 0:
        return [f"j{j}{s}" for j in range(dim // 3) for s in AXIS_SUFFIXES]
    return [f"c{k}" for k in range(dim)]


@dataclass
class PoseDataset:
    """A set of pose vectors with column labels and provenance text.

    dim may be any positive integer so that low-dimensional slices and
    synthetic benchmarks flow through the same fitting code; joint-wise
    semantics (3 axis-angle components per joint) apply when dim % 3 == 0.
    """

    dim: int
    column_names: list[str]
    samples: np.ndarray
    source: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.dim < 1:
            raise DataError("dataset dimension must be >= 1")
        if self.samples.ndim != 2 or self.samples.shape[1] != self.dim:
            raise DataError(
                f"samples have shape {self.samples.shape}, expected (N, {self.dim})"
            )
        if self.samples.shape[0] < 1:
            raise DataError("dataset needs at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("dataset has non-finite values")
        if len(self.column_names) != self.dim:
            raise DataError("column name count does not match dimension")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def joint_names(self) -> list[str] | None:
        """Base joint labels when columns follow the _x/_y/_z convention."""
        if self.dim % 3 != 0:
            return None
        names = []
        for j in range(self.dim // 3):
            triple = self.column_names[3 * j : 3 * j + 3]
            bases = {c[:-2] for c in triple}
            if len(bases) != 1 or [c[-2:] for c in triple] != list(AXIS_SUFFIXES):
                return None
            names.append(triple[0][:-2])
        return names


@dataclass
class MotionSequence:
    """Timestamped poses; timestamps strictly increase."""

    timestamps: np.ndarray
    poses: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.poses = np.asarray(self.poses, dtype=float)
        if self.timestamps.ndim != 1 or self.timestamps.shape[0] < 2:
            raise DataError("sequence needs at least two timestamped poses")
        if self.poses.ndim != 2 or self.poses.shape[0] != self.timestamps.shape[0]:
            raise DataError("pose count does not match timestamp count")
        if not np.all(np.isfinite(self.timestamps)) or not np.all(np.isfinite(self.poses)):
            raise DataError("sequence has non-finite values")
        if not np.all(np.diff(self.timestamps) > 0.0):
            raise DataError("timestamps must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.poses.shape[1]


@dataclass
class TemporalDelta:
    """One frame-to-frame motion record: elapsed time and wrapped angle change.

    dt is elapsed time in seconds; recording root translation instead
    would be a drop-in alternative, but elapsed time is what makes the
    temporal mixture a velocity model.
    """

    dt: float
    dtheta: np.ndarray

    def __post_init__(self):
        self.dtheta = np.asarray(self.dtheta, dtype=float)
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise DataError("dt must be positive and finite")
        if self.dtheta.ndim != 1 or not np.all(np.isfinite(self.dtheta)):
            raise DataError("dtheta must be a finite vector")
        if np.any(self.dtheta <= -math.pi) or np.any(self.dtheta > math.pi):
            raise DataError("dtheta components must lie in (-pi, pi]")

    def stacked(self) -> np.ndarray:
        """The (1 + D) vector (dt, dtheta) consumed by temporal priors."""
        return np.concatenate([[self.dt], self.dtheta])


# ---------------------------------------------------------------------------
# File I/O: one reader per format, one writer for both CSV layouts


def _read_text(path) -> str:
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_json(path):
    """Parse a JSON document; a missing file or invalid JSON is a DataError."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def _read_table(path, first_column: str | None = None) -> tuple[list[str], np.ndarray]:
    """Header and (N, C) body of a `# pose-csv v1` file. Marker, header and
    first-column faults are reported before any row fault."""
    text = _read_text(path)
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_MARKER:
        raise DataError(f"{path}: missing '{CSV_MARKER}' marker line")
    if len(lines) < 2:
        raise DataError(f"{path}: missing header line")
    header = [c.strip() for c in lines[1].split(",")]
    if first_column is not None and header[0] != first_column:
        raise DataError(f"{path}: first column must be {first_column}")
    # numpy's C reader first, its result kept only at one row per body line
    # and one column per header cell. Bodies it would read differently from
    # float() skip it: it drops empty lines (warning when none are left) and
    # strips U+001F around a number. Every row fault comes from the per-line
    # parser below.
    body = lines[2:]
    if body and all(body) and "\x1f" not in text:
        try:
            values = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(body), len(header)):
                return header, values
    rows = []
    for ln, line in enumerate(body, start=3):  # data starts at file line 3
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(
                f"{path}: line {ln} has {len(cells)} cells, expected {len(header)}"
            )
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            for col, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell!r} at line {ln}, column {col + 1}"
                    ) from None
    if not rows:
        raise DataError(f"{path}: empty body")
    return header, np.asarray(rows, dtype=float)


def _table_text(header, rows: np.ndarray) -> str:
    """The marker, the header and one shortest-repr line per row."""
    lines = [CSV_MARKER, ",".join(header)]
    lines.extend(",".join(map(repr, row.tolist())) for row in rows)
    return "\n".join(lines) + "\n"


def load_pose_csv(path) -> PoseDataset:
    """Load a `# pose-csv v1` file; dimension is inferred from the header."""
    header, values = _read_table(path)
    return PoseDataset(dim=len(header), column_names=header, samples=values, source=str(path))


def pose_csv_text(dataset: PoseDataset) -> str:
    return _table_text(dataset.column_names, dataset.samples)


def save_pose_csv(dataset: PoseDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pose_csv_text(dataset))


def load_sequence_csv(path) -> MotionSequence:
    """Load a sequence CSV: pose columns preceded by a time_s column."""
    _, values = _read_table(path, first_column="time_s")
    try:
        return MotionSequence(timestamps=values[:, 0], poses=values[:, 1:])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_sequence_csv(seq: MotionSequence, path, column_names=None) -> None:
    names = column_names or default_column_names(seq.dim)
    text = _table_text(["time_s", *names], np.column_stack([seq.timestamps, seq.poses]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Synthetic data

_SYNTH_KINDS = ("normal", "gamma", "mixture", "uniform")


def _whole_number(value, key: str, minimum: int) -> int:
    """`value` as an int when it is a whole number >= minimum (2.0 is 2)."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if not whole or value < minimum:
        raise DataError(f"{key} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


@dataclass
class SynthSpec:
    """Per-dimension generator assignments for synthetic pose datasets.

    Each entry of dims is a dict with a "kind" key:
      normal:  mu, sigma          (sigma > 0)
      gamma:   alpha, beta, sign, shift   (alpha, beta > 0; sign in {-1, +1})
      mixture: mu1, sigma1, mu2, sigma2, w1   (two normals, 0 < w1 < 1)
      uniform: lo, hi             (lo < hi)
    """

    dims: list[dict]
    count: int
    seed: int = 0

    def __post_init__(self):
        self.count = _whole_number(self.count, "count", 1)
        self.seed = _whole_number(self.seed, "seed", 0)
        if not self.dims:
            raise DataError("spec assigns no dimensions")
        if not isinstance(self.dims, (list, tuple)) or not all(
                isinstance(spec, dict) for spec in self.dims):
            raise DataError("dims must be a list of generator objects")
        required = {
            "normal": ("mu", "sigma"),
            "gamma": ("alpha", "beta"),
            "mixture": ("mu1", "sigma1", "mu2", "sigma2", "w1"),
            "uniform": ("lo", "hi"),
        }
        for k, spec in enumerate(self.dims):
            kind = spec.get("kind")
            if kind not in _SYNTH_KINDS:
                raise DataError(f"dim {k}: unknown generator kind {kind!r}")
            missing = [key for key in required[kind] if key not in spec]
            if missing:
                raise DataError(f"dim {k}: {kind} generator missing {missing}")
            if kind == "normal":
                if not spec["sigma"] > 0:
                    raise DataError(f"dim {k}: sigma must be positive")
            elif kind == "gamma":
                if not spec["alpha"] > 0 or not spec["beta"] > 0:
                    raise DataError(f"dim {k}: alpha and beta must be positive")
                if spec.get("sign", 1) not in (-1, 1):
                    raise DataError(f"dim {k}: sign must be -1 or +1")
            elif kind == "mixture":
                if not spec["sigma1"] > 0 or not spec["sigma2"] > 0:
                    raise DataError(f"dim {k}: sigmas must be positive")
                if not 0.0 < spec["w1"] < 1.0:
                    raise DataError(f"dim {k}: w1 must be in (0, 1)")
            elif kind == "uniform":
                if not spec["lo"] < spec["hi"]:
                    raise DataError(f"dim {k}: requires lo < hi")

    @classmethod
    def from_json(cls, path) -> "SynthSpec":
        doc = read_json(path)
        try:
            return cls(dims=doc["dims"], count=doc["count"], seed=doc.get("seed", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed synthetic spec ({exc})") from None


def synth_generate(spec: SynthSpec, seed: int | None = None) -> PoseDataset:
    """Draw a dataset i.i.d. per dimension; bitwise reproducible per seed.

    Randomness comes from numpy's PCG64 via default_rng, drawn dimension-
    major in declaration order. The seed is recorded in the provenance.
    """
    if seed is None:
        seed = spec.seed
    rng = np.random.default_rng(seed)
    n = spec.count
    cols = []
    for dim_spec in spec.dims:
        kind = dim_spec["kind"]
        if kind == "normal":
            cols.append(rng.normal(dim_spec["mu"], dim_spec["sigma"], n))
        elif kind == "gamma":
            draw = rng.gamma(dim_spec["alpha"], 1.0 / dim_spec["beta"], n)
            cols.append(dim_spec.get("shift", 0.0) + dim_spec.get("sign", 1) * draw)
        elif kind == "mixture":
            pick = rng.random(n) < dim_spec["w1"]
            a = rng.normal(dim_spec["mu1"], dim_spec["sigma1"], n)
            b = rng.normal(dim_spec["mu2"], dim_spec["sigma2"], n)
            cols.append(np.where(pick, a, b))
        elif kind == "uniform":
            cols.append(rng.uniform(dim_spec["lo"], dim_spec["hi"], n))
    samples = np.column_stack(cols)
    dim = samples.shape[1]
    return PoseDataset(
        dim=dim,
        column_names=default_column_names(dim),
        samples=samples,
        source=f"synthetic seed={seed}",
    )


# ---------------------------------------------------------------------------
# Axis-angle <-> rotation matrices

def axis_angle_to_matrices(p) -> np.ndarray:
    """Rodrigues map from a flat axis-angle pose vector to (J, 3, 3) rotations."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.shape[0] % 3 != 0:
        raise ValueError("pose vector length must be a multiple of 3")
    return rotations.exp(p.reshape(-1, 3))


def matrices_to_axis_angle(r, orth_tol: float = 1e-6) -> np.ndarray:
    """Inverse Rodrigues map; rejects matrices that are not near rotations."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 3 or r.shape[1:] != (3, 3):
        raise ValueError("expected an array of shape (J, 3, 3)")
    err = np.linalg.norm(r @ np.swapaxes(r, 1, 2) - np.eye(3), axis=(1, 2))
    bad = (err >= orth_tol) | (rotations.det3(r) < 0.0)
    if np.any(bad):
        j = int(np.argmax(bad))
        if err[j] >= orth_tol:
            raise ValueError(f"matrix {j} is not orthonormal (deviation {err[j]:.3e})")
        raise ValueError(f"matrix {j} is a reflection, not a rotation")
    return rotations.log(r).reshape(-1)


# ---------------------------------------------------------------------------
# Motion deltas


def wrap_angle(x):
    """Wrap angles to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)


def compute_deltas(seq: MotionSequence) -> list[TemporalDelta]:
    """Frame-to-frame (dt, wrapped dtheta) records; one fewer than poses."""
    dts = np.diff(seq.timestamps)
    dthetas = wrap_angle(np.diff(seq.poses, axis=0))
    return [TemporalDelta(dt=float(dt), dtheta=dth) for dt, dth in zip(dts, dthetas)]
