"""Pose data model, and the one home of file reading and writing.

Pose vectors are flat float64 arrays of axis-angle components in radians,
three per joint. Reading: `read_json` for every JSON document (specs,
models, observations), and one reader shared by the pose and sequence CSV
layouts. Every reader turns a missing file, text that is not UTF-8,
invalid JSON, a bad marker or header, or a bad row into a `DataError`
that names the file (and, for a CSV row, its line and column). A CSV is
read as a stream of lines cut from fixed-size blocks of text, so a load
holds the array plus one block. Its rows are parsed by numpy's C reader;
a body that reader does not take exactly goes through the per-line
parser, so what is accepted and every message are those of `float()` on
each cell. Writing: `write_text` is the only function that opens a file
for writing, and it writes a stream of str pieces; `csv_text` is the one
CSV line writer, each cell the shortest `repr` of a plain Python number,
and a pose or sequence CSV is written one block of rows at a time. The
module also holds a seeded synthetic dataset generator that stands in for
motion-capture corpora, Rodrigues conversion between flat axis-angle pose
vectors and (J, 3, 3) rotation stacks (input checks here, the batched
kernels in `rotations`), and the extraction of frame-to-frame motion
deltas.
"""

from __future__ import annotations

import contextlib
import itertools
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


def samples_of(data) -> np.ndarray:
    """The 2-D float sample array of a PoseDataset or of an array-like."""
    x = np.asarray(getattr(data, "samples", data), dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-D sample array or a PoseDataset")
    return x


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
# File I/O: one reader per format, one text writer for every file

_READ_CHARS = 1 << 16  # characters per decoded block a read holds
_WRITE_ROWS = 512  # table rows per block of text a write holds


def _read_text(path):
    """The text of `path`, decoded as UTF-8, in blocks of at most `_READ_CHARS`
    characters. The text-mode open turns each CR LF pair and lone CR into LF."""
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            while block := fh.read(_READ_CHARS):
                yield block
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_text(path, pieces) -> None:
    """Write the str `pieces`, in order, to `path` as UTF-8, replacing any file there."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def read_json(path):
    """Parse a JSON document; a missing file, text that is not UTF-8 or invalid
    JSON is a DataError."""
    text = "".join(_read_text(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def _lines(path):
    """The lines of `path`, exactly those `str.splitlines` gives for its whole text.
    Every line break left after `_read_text` is one character, so cutting a block
    after its last LF splits none; a line that spans blocks waits in `parts`."""
    parts = []
    with contextlib.closing(_read_text(path)) as blocks:
        for block in blocks:
            cut = block.rfind("\n") + 1
            if cut:
                yield from "".join([*parts, block[:cut]]).splitlines()
                parts.clear()
            parts.append(block[cut:])
    yield from "".join(parts).splitlines()


class _PerLine(Exception):
    """A body line that numpy's reader could take differently from float()."""


def _read_table(path, first_column: str | None = None) -> tuple[list[str], np.ndarray]:
    """Header and (N, C) body of a `# pose-csv v1` file, read as a stream of
    lines. Marker, header and first-column faults are reported before any row
    fault."""
    with contextlib.closing(_lines(path)) as lines:
        if next(lines, "").strip() != CSV_MARKER:
            raise DataError(f"{path}: missing '{CSV_MARKER}' marker line")
        header_line = next(lines, None)
        if header_line is None:
            raise DataError(f"{path}: missing header line")
        header = [c.strip() for c in header_line.split(",")]
        if first_column is not None and header[0] != first_column:
            raise DataError(f"{path}: first column must be {first_column}")
        # numpy's C reader first, fed the body lines as they are read, its result
        # kept only at one row per body line and one column per header cell.
        # `body` stops it where it would read differently from float(): it drops
        # empty lines (warning when none are left, as on an empty body) and
        # strips U+001F around a number. Every row fault comes from the per-line
        # parser below, on a fresh stream of the same file.
        n_body = 0

        def body():
            nonlocal n_body
            for n_body, line in enumerate(lines, start=1):
                if not line or "\x1f" in line:
                    raise _PerLine
                yield line
            if not n_body:
                raise _PerLine

        try:
            values = np.loadtxt(body(), delimiter=",", comments=None, dtype=float, ndmin=2)
        except (_PerLine, ValueError):
            pass
        else:
            if values.shape == (n_body, len(header)):
                return header, values
    rows = []
    with contextlib.closing(_lines(path)) as lines:
        # data starts at file line 3, after the marker and header checked above
        for ln, line in enumerate(itertools.islice(lines, 2, None), start=3):
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


def _csv_rows(rows) -> str:
    """One line per row of plain Python numbers, each cell its repr (shortest
    round-trip for a float, digits for an int)."""
    return "".join([",".join(map(repr, row)) + "\n" for row in rows])


def csv_text(header, rows) -> str:
    """The header line over `_csv_rows`: the one CSV line writer."""
    return ",".join(header) + "\n" + _csv_rows(rows)


def _table_pieces(header, rows: np.ndarray):
    """The marker line over `csv_text`, `_WRITE_ROWS` rows at a time, so a write
    holds one block of rows as plain floats and as text."""
    yield f"{CSV_MARKER}\n" + csv_text(header, [])
    for start in range(0, len(rows), _WRITE_ROWS):
        yield _csv_rows(rows[start : start + _WRITE_ROWS].tolist())


def load_pose_csv(path) -> PoseDataset:
    """Load a `# pose-csv v1` file; dimension is inferred from the header."""
    header, values = _read_table(path)
    return PoseDataset(dim=len(header), column_names=header, samples=values, source=str(path))


def pose_csv_pieces(dataset: PoseDataset):
    """The text of a pose CSV as str pieces: marker and header, then blocks of rows."""
    return _table_pieces(dataset.column_names, dataset.samples)


def save_pose_csv(dataset: PoseDataset, path) -> None:
    write_text(path, pose_csv_pieces(dataset))


def load_sequence_csv(path) -> MotionSequence:
    """Load a sequence CSV: pose columns preceded by a time_s column."""
    _, values = _read_table(path, first_column="time_s")
    try:
        return MotionSequence(timestamps=values[:, 0], poses=values[:, 1:])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_sequence_csv(seq: MotionSequence, path, column_names=None) -> None:
    names = column_names or default_column_names(seq.dim)
    write_text(path, _table_pieces(["time_s", *names], np.column_stack([seq.timestamps, seq.poses])))


# ---------------------------------------------------------------------------
# Synthetic data

# kind -> (required keys, [(valid(spec), message)] checked in order,
# draw(rng, spec, n)). A kind's draws are taken in the order written here.
_SYNTH_KINDS = {
    "normal": (("mu", "sigma"),
               [(lambda s: s["sigma"] > 0, "sigma must be positive")],
               lambda rng, s, n: rng.normal(s["mu"], s["sigma"], n)),
    "gamma": (("alpha", "beta"),
              [(lambda s: s["alpha"] > 0 and s["beta"] > 0, "alpha and beta must be positive"),
               (lambda s: s.get("sign", 1) in (-1, 1), "sign must be -1 or +1")],
              lambda rng, s, n: s.get("shift", 0.0)
              + s.get("sign", 1) * rng.gamma(s["alpha"], 1.0 / s["beta"], n)),
    "mixture": (("mu1", "sigma1", "mu2", "sigma2", "w1"),
                [(lambda s: s["sigma1"] > 0 and s["sigma2"] > 0, "sigmas must be positive"),
                 (lambda s: 0.0 < s["w1"] < 1.0, "w1 must be in (0, 1)")],
                lambda rng, s, n: np.where(rng.random(n) < s["w1"],
                                           rng.normal(s["mu1"], s["sigma1"], n),
                                           rng.normal(s["mu2"], s["sigma2"], n))),
    "uniform": (("lo", "hi"),
                [(lambda s: s["lo"] < s["hi"], "requires lo < hi")],
                lambda rng, s, n: rng.uniform(s["lo"], s["hi"], n)),
}


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
        for k, spec in enumerate(self.dims):
            kind = spec.get("kind")
            if not isinstance(kind, str) or kind not in _SYNTH_KINDS:
                raise DataError(f"dim {k}: unknown generator kind {kind!r}")
            required, checks, _ = _SYNTH_KINDS[kind]
            missing = [key for key in required if key not in spec]
            if missing:
                raise DataError(f"dim {k}: {kind} generator missing {missing}")
            for valid, message in checks:
                if not valid(spec):
                    raise DataError(f"dim {k}: {message}")

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
    samples = np.column_stack([_SYNTH_KINDS[s["kind"]][2](rng, s, spec.count) for s in spec.dims])
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
    out = np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)
    # np.mod rounds a remainder just below 2 pi up to 2 pi, leaving -pi: that angle is pi.
    return np.where(out == -np.pi, np.pi, out)[()]


def compute_deltas(seq: MotionSequence) -> list[TemporalDelta]:
    """Frame-to-frame (dt, wrapped dtheta) records; one fewer than poses."""
    dts = np.diff(seq.timestamps)
    dthetas = wrap_angle(np.diff(seq.poses, axis=0))
    return [TemporalDelta(dt=float(dt), dtheta=dth) for dt, dth in zip(dts, dthetas)]
