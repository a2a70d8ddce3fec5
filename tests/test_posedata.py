import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepriors import posedata
from posepriors.errors import DataError
from posepriors.posedata import (
    MotionSequence,
    PoseDataset,
    SynthSpec,
    axis_angle_to_matrices,
    compute_deltas,
    load_pose_csv,
    load_sequence_csv,
    matrices_to_axis_angle,
    pose_csv_text,
    save_pose_csv,
    save_sequence_csv,
    synth_generate,
    wrap_angle,
)


class TestPoseCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# pose-csv v1\n"
            "j0_x,j0_y,j0_z,j1_x,j1_y,j1_z\n"
            "0.1,0.2,0.3,0.4,0.5,0.6\n"
            "-0.1,-0.2,-0.3,-0.4,-0.5,-0.6\n"
        )
        ds = load_pose_csv(path)
        assert ds.dim == 6
        assert ds.n_samples == 2
        assert ds.joint_names == ["j0", "j1"]
        np.testing.assert_allclose(ds.samples[0], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])

    def test_header_only_is_empty_body(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# pose-csv v1\na,b\n")
        with pytest.raises(DataError, match="empty body"):
            load_pose_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_pose_csv(tmp_path / "nope.csv")

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# pose-csv v1\na,b\n1.0,oops\n")
        with pytest.raises(DataError, match=r"line 3, column 2"):
            load_pose_csv(path)

    def test_inconsistent_row_length(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# pose-csv v1\na,b\n1.0,2.0\n1.0\n")
        with pytest.raises(DataError, match="expected 2"):
            load_pose_csv(path)

    def test_missing_marker(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DataError, match="marker"):
            load_pose_csv(path)

    def test_round_trip_identical_values(self, tmp_path):
        spec = SynthSpec(
            dims=[
                {"kind": "normal", "mu": 0.3, "sigma": 1.2},
                {"kind": "uniform", "lo": -2.0, "hi": 2.0},
                {"kind": "gamma", "alpha": 2.0, "beta": 3.0, "sign": 1, "shift": 0.5},
            ],
            count=50,
        )
        ds = synth_generate(spec, seed=123)
        path = tmp_path / "rt.csv"
        save_pose_csv(ds, path)
        back = load_pose_csv(path)
        assert np.array_equal(back.samples, ds.samples)
        assert back.column_names == ds.column_names


class TestSequenceCsv:
    def test_round_trip(self, tmp_path):
        ts = np.array([0.0, 1 / 30, 2 / 30])
        poses = np.array([[0.0, 0.1], [0.05, 0.1], [0.1, 0.1]])
        seq = MotionSequence(timestamps=ts, poses=poses)
        path = tmp_path / "s.csv"
        save_sequence_csv(seq, path, column_names=["a", "b"])
        back = load_sequence_csv(path)
        assert np.array_equal(back.timestamps, ts)
        assert np.array_equal(back.poses, poses)

    def test_requires_time_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# pose-csv v1\na,b\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(DataError, match="time_s"):
            load_sequence_csv(path)

    def test_non_increasing_timestamps(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# pose-csv v1\ntime_s,a\n0.0,1.0\n0.0,2.0\n")
        with pytest.raises(DataError, match="increasing"):
            load_sequence_csv(path)


AWKWARD = [-0.0, 5e-324, 0.1, 1 / 3, 2.0, 1e22]


def _parses(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


# Cells with no "," and no line break; float() decides which are numbers.
CELLS = st.one_of(
    st.text(alphabet="0123456789+-.eE_ \tinfaINFA\u0661\uff11", max_size=8),
    st.sampled_from(["-0.0", "5e-324", "1e-400", "1e400", "nan", "-inf", "1_000",
                     "_1", "1__0", "0x1", "1e", ".", "+.5", " 7 ", "", "infinity",
                     "1.7976931348623157e308", "2.4703282292062328e-324"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
READER_PROPERTY = settings(max_examples=150, derandomize=True, deadline=None, database=None)


class TestIoContract:
    def test_pose_csv_text_bytes(self):
        ds = PoseDataset(dim=6, column_names=list("abcdef"),
                         samples=np.array([AWKWARD, AWKWARD[::-1]]))
        assert pose_csv_text(ds) == (
            "# pose-csv v1\n"
            "a,b,c,d,e,f\n"
            "-0.0,5e-324,0.1,0.3333333333333333,2.0,1e+22\n"
            "1e+22,2.0,0.3333333333333333,0.1,5e-324,-0.0\n"
        )

    def test_sequence_csv_bytes(self, tmp_path):
        seq = MotionSequence(timestamps=np.array(AWKWARD[:3]),
                             poses=np.array([AWKWARD[3:5], [1e22, -0.0], [0.1, 5e-324]]))
        path = tmp_path / "s.csv"
        save_sequence_csv(seq, path)
        assert path.read_bytes() == (
            b"# pose-csv v1\n"
            b"time_s,c0,c1\n"
            b"-0.0,0.3333333333333333,2.0\n"
            b"5e-324,1e+22,-0.0\n"
            b"0.1,0.1,5e-324\n"
        )

    def test_header_faults_come_before_row_faults(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# pose-csv v1\na,b\noops,1.0\n")
        with pytest.raises(DataError, match="time_s"):
            load_sequence_csv(path)
        path.write_text("# pose-csv v0\na,b\noops,1.0\n")
        with pytest.raises(DataError, match="marker"):
            load_pose_csv(path)

    @READER_PROPERTY
    @given(st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=1, max_size=3))
    def test_reader_accepts_exactly_what_float_accepts(self, tmp_path_factory, grid):
        path = tmp_path_factory.getbasetemp() / "drawn.csv"
        body = "".join(",".join(row) + "\n" for row in grid)
        path.write_text("# pose-csv v1\na,b,c\n" + body, encoding="utf-8")
        bad = [(ln, col, cell) for ln, row in enumerate(grid, start=3)
               for col, cell in enumerate(row, start=1) if not _parses(cell)]
        if bad:
            ln, col, cell = bad[0]
            message = f"non-numeric value {cell!r} at line {ln}, column {col}"
            with pytest.raises(DataError, match=re.escape(message)):
                load_pose_csv(path)
            return
        want = np.array([[float(cell) for cell in row] for row in grid])
        if not np.all(np.isfinite(want)):
            with pytest.raises(DataError, match="non-finite"):
                load_pose_csv(path)
            return
        assert load_pose_csv(path).samples.tobytes() == want.tobytes()


def _table_outcome(path, first_column=None):
    """What `_read_table` gives: (header, shape, bytes) or the DataError text."""
    try:
        header, values = posedata._read_table(path, first_column)
    except DataError as exc:
        return str(exc)
    return header, values.shape, values.tobytes()


def _per_line_outcome(path, first_column=None):
    """`_table_outcome` with numpy's reader failing, so every row is parsed by float()."""
    with mock.patch.object(posedata.np, "loadtxt", side_effect=ValueError):
        return _table_outcome(path, first_column)


# Cells as CELLS draws them, plus characters where numpy's reader and float()
# could part: a comment sign, the unit separator and non-ASCII spaces.
LAYOUT_CELLS = st.one_of(CELLS, st.text(alphabet="12.e-#\x1f\xa0\u3000 ", max_size=4))


class TestFastPathAgreesWithPerLineParser:
    """The C reader's result is used only where it is bitwise what the per-line
    parser gives; every other body gets the per-line parser's own DataError."""

    @READER_PROPERTY
    @given(st.integers(min_value=1, max_value=3),
           st.lists(st.lists(LAYOUT_CELLS, max_size=4), max_size=4),
           st.sampled_from(["\n", "\r\n", "\r"]),
           st.booleans())
    def test_drawn_layouts(self, tmp_path_factory, n_cols, grid, newline, trailing):
        path = tmp_path_factory.getbasetemp() / "layout.csv"
        lines = ["# pose-csv v1", ",".join("abc"[:n_cols])] + [",".join(r) for r in grid]
        path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode())
        assert _table_outcome(path) == _per_line_outcome(path)

    @pytest.mark.parametrize("header, body, want", [
        ("a,b", "1,2\n\n3,4\n", "line 4 has 1 cells, expected 2"),
        ("a,b", "1,2\n3,4\n\n", "line 5 has 1 cells, expected 2"),
        ("a,b", "1_0,2\n", [[10.0, 2.0]]),
        ("a,b", "1,#\n", "non-numeric value '#' at line 3, column 2"),
        ("a,b", "1,2 # note\n", "non-numeric value '2 # note' at line 3, column 2"),
        ("a,b", "1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("a,b", " 1 ,\t2 \n", [[1.0, 2.0]]),
        ("a,b", "1,\u20282\n", "non-numeric value '' at line 3, column 2"),
        ("a,b", "1\x1f,2\n", "non-numeric value '1\\x1f' at line 3, column 1"),
        ("a,b", "1,2,3\n4,5,6\n", "line 3 has 3 cells, expected 2"),
        ("a,b", "1,2\n", [[1.0, 2.0]]),
        ("a", "1\n2\n", [[1.0], [2.0]]),
        ("a,b", "", "empty body"),
        ("a,b", "\n", "line 3 has 1 cells, expected 2"),
    ])
    def test_edge_bodies(self, tmp_path, header, body, want):
        path = tmp_path / "d.csv"
        path.write_bytes(f"# pose-csv v1\n{header}\n{body}".encode())
        got = _table_outcome(path)
        assert got == _per_line_outcome(path)
        if isinstance(want, str):
            assert got == f"{path}: {want}"
        else:
            want = np.array(want)
            assert got == (header.split(","), want.shape, want.tobytes())

    def test_sequence_header_fault_before_row_faults(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# pose-csv v1\nt,a\n0.0,1.0\n\n1.0,2.0,3.0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: first column must be time_s")):
            load_sequence_csv(path)

    def test_clean_body_is_read_by_numpy_once(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# pose-csv v1\na,b\n0.1,0.2\n0.3,0.4\n")
        with mock.patch.object(posedata.np, "loadtxt", wraps=np.loadtxt) as spy:
            assert load_pose_csv(path).samples.tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert spy.call_count == 1


class TestSynthSpecJson:
    def write(self, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            SynthSpec.from_json(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = self.write(tmp_path, '{"dims": [')
        with pytest.raises(DataError, match=re.escape(f"{path}: invalid JSON")):
            SynthSpec.from_json(path)

    @pytest.mark.parametrize("doc", [
        '{"dims": "normal", "count": 3}',
        '{"dims": [{"kind": "normal", "mu": 0, "sigma": 1}], "count": 1e400}',
        '{"dims": [{"kind": "normal", "mu": 0, "sigma": "wide"}], "count": 3}',
        '{"dims": [{"kind": "normal", "mu": 0, "sigma": -1}], "count": 3}',
        '[1, 2]',
    ])
    def test_malformed_spec_names_the_file(self, tmp_path, doc):
        path = self.write(tmp_path, doc)
        with pytest.raises(DataError, match=re.escape(f"{path}: malformed synthetic spec")):
            SynthSpec.from_json(path)

    @pytest.mark.parametrize("key, value", [
        ("count", 2.9), ("count", "3"), ("seed", -1), ("seed", 1.5), ("seed", "x"),
    ])
    def test_count_and_seed_must_be_whole_numbers(self, tmp_path, key, value):
        doc = {"dims": [{"kind": "normal", "mu": 0, "sigma": 1}], "count": 3, key: value}
        path = self.write(tmp_path, json.dumps(doc))
        message = f"{path}: malformed synthetic spec ({key} must be a whole number"
        with pytest.raises(DataError, match=re.escape(message)):
            SynthSpec.from_json(path)

    def test_integral_floats_are_whole_numbers(self, tmp_path):
        doc = {"dims": [{"kind": "normal", "mu": 0, "sigma": 1}], "count": 2.0, "seed": 4.0}
        spec = SynthSpec.from_json(self.write(tmp_path, json.dumps(doc)))
        assert (type(spec.count), spec.count, type(spec.seed), spec.seed) == (int, 2, int, 4)

    def test_dims_must_be_generator_objects(self):
        with pytest.raises(DataError, match="list of generator objects"):
            SynthSpec(dims=[1], count=3)


class TestSynthGenerate:
    def test_normal_law_of_large_numbers(self):
        spec = SynthSpec(dims=[{"kind": "normal", "mu": 0.0, "sigma": 1.0}], count=10000)
        ds = synth_generate(spec, seed=7)
        assert abs(ds.samples.mean()) < 0.05
        assert abs(ds.samples.std(ddof=1) - 1.0) < 0.05

    def test_degenerate_uniform_rejected(self):
        with pytest.raises(DataError):
            SynthSpec(dims=[{"kind": "uniform", "lo": 2.0, "hi": 2.0}], count=10)

    def test_negated_gamma(self):
        spec = SynthSpec(
            dims=[{"kind": "gamma", "alpha": 2.0, "beta": 2.0, "sign": -1, "shift": 0.0}],
            count=10000,
        )
        ds = synth_generate(spec, seed=3)
        assert np.all(ds.samples <= 0.0)
        assert abs(ds.samples.mean() + 1.0) < 0.05  # gamma mean alpha/beta = 1, negated

    def test_bitwise_reproducible(self):
        spec = SynthSpec(
            dims=[
                {"kind": "mixture", "mu1": -1.0, "sigma1": 0.5, "mu2": 1.0,
                 "sigma2": 0.5, "w1": 0.3},
                {"kind": "normal", "mu": 0.0, "sigma": 2.0},
            ],
            count=500,
        )
        a = synth_generate(spec, seed=99)
        b = synth_generate(spec, seed=99)
        assert np.array_equal(a.samples, b.samples)
        assert "seed=99" in a.source

    def test_invalid_params(self):
        with pytest.raises(DataError):
            SynthSpec(dims=[{"kind": "normal", "mu": 0.0, "sigma": 0.0}], count=5)
        with pytest.raises(DataError):
            SynthSpec(dims=[{"kind": "gamma", "alpha": -1.0, "beta": 1.0}], count=5)
        with pytest.raises(DataError):
            SynthSpec(dims=[{"kind": "what"}], count=5)


class TestRotations:
    def test_zero_vector_gives_identity(self):
        r = axis_angle_to_matrices(np.zeros(3))
        np.testing.assert_allclose(r[0], np.eye(3))

    def test_quarter_turn_about_z(self):
        r = axis_angle_to_matrices(np.array([0.0, 0.0, math.pi / 2]))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(r[0], expected, atol=1e-15)

    def test_matrices_are_rotations(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            omega = axis * rng.uniform(1e-6, math.pi)
            r = axis_angle_to_matrices(omega)[0]
            assert np.linalg.norm(r @ r.T - np.eye(3), "fro") < 1e-9
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_identity_matrices_give_zero_pose(self):
        p = matrices_to_axis_angle(np.stack([np.eye(3), np.eye(3)]))
        np.testing.assert_allclose(p, np.zeros(6))

    def test_quarter_turn_recovery(self):
        m = np.array([[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
        np.testing.assert_allclose(
            matrices_to_axis_angle(m), [0.0, 0.0, math.pi / 2], atol=1e-12
        )

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(17)
        axes = rng.standard_normal((200, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = rng.uniform(2e-6, math.pi - 2e-6, 200)
        pose = (axes * angles[:, None]).reshape(-1)  # 200 joints as one vector
        back = matrices_to_axis_angle(axis_angle_to_matrices(pose))
        assert np.abs(back - pose).max() < 1e-9

    def test_near_pi_recovery(self):
        axis = np.array([1.0, 2.0, -1.0])
        axis /= np.linalg.norm(axis)
        for angle in (math.pi - 1e-7, math.pi):
            r = axis_angle_to_matrices(axis * angle)
            back = matrices_to_axis_angle(r)
            # Same rotation even if the axis sign flips at exactly pi.
            r2 = axis_angle_to_matrices(back)
            assert np.abs(r2 - r).max() < 1e-6

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            matrices_to_axis_angle(np.stack([2.0 * np.eye(3)]))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="reflection"):
            matrices_to_axis_angle(np.stack([np.diag([1.0, 1.0, -1.0])]))


class TestDeltas:
    def test_constant_sequence(self):
        seq = MotionSequence(
            timestamps=np.arange(4) / 30.0, poses=np.tile([0.1, -0.2], (4, 1))
        )
        deltas = compute_deltas(seq)
        assert len(deltas) == 3
        for d in deltas:
            np.testing.assert_allclose(d.dtheta, 0.0)

    def test_single_step(self):
        seq = MotionSequence(
            timestamps=[0.0, 1 / 30], poses=[[0.0, 0.0], [0.1, 0.0]]
        )
        (d,) = compute_deltas(seq)
        assert d.dt == pytest.approx(1 / 30)
        np.testing.assert_allclose(d.dtheta, [0.1, 0.0])

    def test_two_pi_wraps_to_zero(self):
        seq = MotionSequence(
            timestamps=[0.0, 1.0], poses=[[0.0], [2.0 * math.pi]]
        )
        (d,) = compute_deltas(seq)
        assert abs(d.dtheta[0]) < 1e-12

    def test_wrap_convention_half_open(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_wrap_edge_values_pinned(self):
        for x in (math.pi, -math.pi, 3 * math.pi, -3 * math.pi, np.nextafter(-math.pi, -4.0)):
            assert wrap_angle(x) == math.pi
        # One ulp above pi rounds to the float -pi, just outside (-pi, pi].
        assert wrap_angle(np.nextafter(math.pi, 4.0)) == -3.141592653589793
        zero = wrap_angle(-0.0)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    def test_count_preserved(self):
        rng = np.random.default_rng(23)
        n = 17
        seq = MotionSequence(
            timestamps=np.cumsum(rng.uniform(0.01, 0.1, n)),
            poses=rng.normal(0.0, 0.5, (n, 6)),
        )
        assert len(compute_deltas(seq)) == n - 1


class TestDatasetValidation:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            PoseDataset(dim=2, column_names=["a", "b"], samples=np.empty((0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            PoseDataset(dim=1, column_names=["a"], samples=[[np.nan]])

    def test_joint_names_none_for_odd_dims(self):
        ds = PoseDataset(dim=2, column_names=["a", "b"], samples=[[0.0, 1.0]])
        assert ds.joint_names is None
