import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from posepriors import cli, modelio, posedata, priors, vae
from posepriors.cli import main
from posepriors.posedata import MotionSequence, save_sequence_csv
from posepriors.priors import BoxLimitModel


SPEC_DOC = {
    "dims": [
        {"kind": "normal", "mu": 0.2, "sigma": 0.4},
        {"kind": "gamma", "alpha": 2.0, "beta": 2.0, "sign": -1, "shift": 0.1},
        {"kind": "normal", "mu": -0.1, "sigma": 0.3},
        {"kind": "uniform", "lo": -1.0, "hi": 1.0},
        {"kind": "mixture", "mu1": -0.5, "sigma1": 0.2, "mu2": 0.5, "sigma2": 0.3,
         "w1": 0.5},
        {"kind": "normal", "mu": 0.0, "sigma": 0.25},
    ],
    "count": 300,
    "seed": 5,
}


DATA_DIR = Path(__file__).resolve().parent / "data"

FOUR_KINDS_SPEC = {
    "dims": [
        {"kind": "normal", "mu": 0.1, "sigma": 0.4},
        {"kind": "gamma", "alpha": 2.0, "beta": 3.0, "sign": -1, "shift": 0.2},
        {"kind": "mixture", "mu1": -0.5, "sigma1": 0.2, "mu2": 0.6, "sigma2": 0.3, "w1": 0.3},
        {"kind": "uniform", "lo": -1.0, "hi": 1.2},
    ],
    "count": 8,
    "seed": 5,
}


@pytest.fixture
def workdir(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_DOC))
    data = tmp_path / "d.csv"
    assert main(["gen", "--spec", str(spec), "--seed", "7", "--out", str(data)]) == 0
    return tmp_path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestGen:
    def test_byte_identical_reruns(self, workdir):
        a = workdir / "a.csv"
        b = workdir / "b.csv"
        spec = workdir / "spec.json"
        assert main(["gen", "--spec", str(spec), "--seed", "7", "--out", str(a)]) == 0
        assert main(["gen", "--spec", str(spec), "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_from_spec_when_flag_absent(self, workdir):
        spec = workdir / "spec.json"
        a = workdir / "a.csv"
        b = workdir / "b.csv"
        assert main(["gen", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["gen", "--spec", str(spec), "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_spec_is_data_error(self, workdir):
        assert main(["gen", "--spec", str(workdir / "no.json")]) == 2

    def test_four_kinds_match_committed_bytes(self, tmp_path, capsys):
        """One dimension of each generator kind, 8 rows: pins each kind's draws and order."""
        spec = tmp_path / "four.json"
        spec.write_text(json.dumps(FOUR_KINDS_SPEC))
        out = tmp_path / "four.csv"
        want = (DATA_DIR / "gen_four_kinds.csv").read_bytes()
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 0
        assert out.read_bytes() == want
        assert main(["gen", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == want

    @pytest.mark.parametrize("doc", [
        {"dims": [1], "count": 3},
        {"dims": {"a": 1}, "count": 3},
        {"dims": SPEC_DOC["dims"], "count": "many"},
        {"dims": [], "count": 3},
    ])
    def test_malformed_spec_is_data_error_naming_the_file(self, workdir, capsys, doc):
        spec = workdir / "bad.json"
        spec.write_text(json.dumps(doc))
        assert main(["gen", "--spec", str(spec)]) == 2
        assert f"data error: {spec}: malformed synthetic spec" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("count", 2.9), ("count", 0), ("seed", -1), ("seed", 1.5), ("seed", "x"),
    ])
    def test_count_and_seed_must_be_whole_numbers(self, workdir, capsys, key, value):
        spec = workdir / "bad.json"
        spec.write_text(json.dumps({**SPEC_DOC, key: value}))
        out = workdir / "never.csv"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 2
        assert (f"data error: {spec}: malformed synthetic spec ({key} must be a whole number"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_integral_float_count_and_seed_are_whole_numbers(self, workdir):
        a = workdir / "a.csv"
        b = workdir / "b.csv"
        spec = workdir / "float.json"
        spec.write_text(json.dumps({**SPEC_DOC, "count": 300.0, "seed": 5.0}))
        assert main(["gen", "--spec", str(workdir / "spec.json"), "--out", str(a)]) == 0
        assert main(["gen", "--spec", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFitEval:
    def test_fit_then_eval_matches_library(self, workdir):
        data = workdir / "d.csv"
        model_path = workdir / "m.json"
        out = workdir / "eval.json"
        assert main(["fit", "--model", "mvn", "--data", str(data),
                     "--out", str(model_path)]) == 0
        assert main(["eval", "--model", str(model_path), "--data", str(data),
                     "--out", str(out)]) == 0
        report = read_json(out)
        model = modelio.load_model(model_path)
        ds = posedata.load_pose_csv(data)
        expected = [model.log_prob(row) for row in ds.samples]
        np.testing.assert_allclose(report["per_sample_log_prob"], expected, rtol=1e-12)
        assert report["mean_log_prob"] == pytest.approx(
            sum(report["per_sample_log_prob"]) / len(expected), abs=1e-12
        )

    def test_gmm_k_zero_is_usage_error(self, workdir, capsys):
        rc = main(["fit", "--model", "gmm", "--k", "0", "--data", str(workdir / "d.csv")])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_data_is_data_error(self, workdir):
        assert main(["fit", "--model", "mvn", "--data", str(workdir / "no.csv")]) == 2

    def test_unknown_family_lists_the_choices_in_order(self, workdir, capsys):
        assert main(["fit", "--model", "nope", "--data", str(workdir / "d.csv")]) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --model: invalid choice: 'nope' "
            "(choose from 'mvn', 'gamma', 'gmm', 'temporal-gmm', 'box')\n")

    def test_unknown_flag_is_usage_error(self, workdir):
        assert main(["fit", "--model", "mvn", "--data", str(workdir / "d.csv"),
                     "--frobnicate", "3"]) == 1

    def test_fit_reruns_byte_identical(self, workdir):
        data = workdir / "d.csv"
        a = workdir / "ma.json"
        b = workdir / "mb.json"
        for path in (a, b):
            assert main(["fit", "--model", "gmm", "--k", "2", "--seed", "3",
                         "--data", str(data), "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_report_when_no_out(self, workdir, capsys):
        assert main(["fit", "--model", "box", "--data", str(workdir / "d.csv")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model_type"] == "box"

    def test_fit_box_and_gamma(self, workdir):
        data = workdir / "d.csv"
        for family in ("box", "gamma"):
            out = workdir / f"{family}.json"
            assert main(["fit", "--model", family, "--data", str(data),
                         "--out", str(out)]) == 0
            assert read_json(out)["model_type"] == family


class TestTemporal:
    def make_sequence(self, tmp_path):
        rng = np.random.default_rng(2)
        ts = np.arange(60) / 30.0
        v = np.array([0.3, -0.2, 0.1])
        poses = 0.1 + ts[:, None] * v + rng.normal(0.0, 0.002, (60, 3))
        path = tmp_path / "seq.csv"
        save_sequence_csv(MotionSequence(timestamps=ts, poses=poses), path)
        return path

    def test_fit_and_eval_temporal(self, tmp_path):
        seq = self.make_sequence(tmp_path)
        model_path = tmp_path / "tg.json"
        out = tmp_path / "e.json"
        assert main(["fit", "--model", "temporal-gmm", "--data", str(seq),
                     "--k", "1", "--seed", "2", "--out", str(model_path)]) == 0
        assert main(["eval", "--model", str(model_path), "--data", str(seq),
                     "--out", str(out)]) == 0
        report = read_json(out)
        assert report["count"] == 59


    def test_fit_takes_a_first_step_one_ulp_above_pi(self, tmp_path, capsys):
        # wrap_angle once mapped this step to -pi, which TemporalDelta rejects.
        step = float(np.nextafter(math.pi, 4.0))
        poses = [[0.0, 0.0], [step, 0.1], [step + 0.2, 0.3], [step + 0.3, 0.2]]
        path = tmp_path / "seq.csv"
        save_sequence_csv(MotionSequence(timestamps=np.arange(4.0), poses=poses), path)
        assert main(["fit", "--model", "temporal-gmm", "--data", str(path), "--k", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["means"][0][1] == pytest.approx(
            (math.pi + 0.2 + 0.1) / 3)


class TestAnalyze:
    def test_report_and_histogram(self, workdir):
        out = workdir / "rep.json"
        hist = workdir / "hist.csv"
        assert main(["analyze", "--data", str(workdir / "d.csv"), "--dims", "1",
                     "--count", "200", "--bins", "10", "--seed", "1",
                     "--feasible-lo", "-1e9", "--feasible-hi", "0.1",
                     "--out", str(out), "--hist-out", str(hist)]) == 0
        report = read_json(out)
        assert report["n_used"] == 200
        assert len(report["histogram"]["counts"]) == 10
        assert sum(report["histogram"]["counts"]) == 200
        assert 0.0 <= report["infeasible_mass"] <= 1.0
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 11

    def test_histogram_file_lines(self, tmp_path):
        """A 1-D corpus 0.0, 0.1, ..., 0.7: scores are x - mean, 2 per bin."""
        data = tmp_path / "one.csv"
        data.write_text("# pose-csv v1\nc0\n" + "".join(f"{0.1 * k!r}\n" for k in range(8)))
        hist = tmp_path / "hist.csv"
        assert main(["analyze", "--data", str(data), "--bins", "4", "--hist-out", str(hist),
                     "--out", str(tmp_path / "rep.json")]) == 0
        assert hist.read_text().splitlines() == [
            "bin_lo,bin_hi,count",
            "-0.35000000000000003,-0.17500000000000002,2",
            "-0.17500000000000002,0.0,2",
            "0.0,0.175,2",
            "0.175,0.35000000000000003,2",
        ]

    def test_reruns_byte_identical(self, workdir):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = workdir / name
            assert main(["analyze", "--data", str(workdir / "d.csv"),
                         "--count", "150", "--seed", "9", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTrainVae:
    def test_train_save_and_gradcheck(self, workdir):
        model_path = workdir / "vae.json"
        trace_path = workdir / "trace.csv"
        rc = main(["train-vae", "--data", str(workdir / "d.csv"), "--epochs", "2",
                   "--batch", "50", "--lr", "1e-3", "--seed", "4", "--latent", "2",
                   "--hidden", "8", "--out", str(model_path),
                   "--trace-out", str(trace_path)])
        assert rc == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "epoch,l_kl,l_rec,l_orth,l_det1,l_reg,l_total"
        assert len(lines) == 3
        assert main(["grad-check", "--model", str(model_path), "--count", "20",
                     "--seed", "9"]) == 0

    def test_trace_file_lines(self, workdir):
        """Epochs are ints and losses the shortest repr of the trained trace's floats."""
        trace_path = workdir / "trace.csv"
        assert main(["train-vae", "--data", str(workdir / "d.csv"), "--epochs", "3",
                     "--batch", "50", "--seed", "4", "--latent", "2", "--hidden", "8",
                     "--trace-out", str(trace_path)]) == 0
        model = vae.build_vae(n_joints=2, latent_dim=2, hidden=[8], seed=4)
        cfg = vae.TrainConfig(epochs=3, batch_size=50, learning_rate=1e-3, seed=4,
                              optimizer="adam")
        _, trace = vae.train(model, posedata.load_pose_csv(workdir / "d.csv"), cfg)
        columns = ("l_kl", "l_rec", "l_orth", "l_det1", "l_reg", "l_total")
        assert trace_path.read_text().splitlines() == ["epoch," + ",".join(columns)] + [
            f"{e}," + ",".join(repr(float(getattr(bd, c))) for c in columns)
            for e, bd in enumerate(trace, start=1)]

    def test_non_integer_hidden_is_usage_error(self, workdir, capsys):
        assert main(["train-vae", "--data", str(workdir / "d.csv"), "--epochs", "1",
                     "--hidden", "a,b"]) == 1
        assert "usage error: --hidden must be a comma-separated integer list" in (
            capsys.readouterr().err)

    def test_reruns_byte_identical(self, workdir):
        blobs = []
        for name in ("v1.json", "v2.json"):
            path = workdir / name
            assert main(["train-vae", "--data", str(workdir / "d.csv"), "--epochs", "2",
                         "--batch", "50", "--lr", "1e-3", "--seed", "4",
                         "--latent", "2", "--hidden", "8", "--out", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestRecover:
    def test_recover_report(self, workdir):
        data = workdir / "d.csv"
        model_path = workdir / "m.json"
        assert main(["fit", "--model", "mvn", "--data", str(data),
                     "--out", str(model_path)]) == 0
        obs_path = workdir / "obs.json"
        obs_path.write_text(json.dumps({
            "values": [0.5, -0.9, 0.0, 0.2, 0.1, -0.3],
            "noise_sigma": 0.3,
        }))
        out = workdir / "rec.json"
        assert main(["recover", "--obs", str(obs_path), "--model", str(model_path),
                     "--lambda", "1.0", "--out", str(out)]) == 0
        report = read_json(out)
        assert len(report["estimate"]) == 6
        trace = report["objective_trace"]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_lambda_zero_returns_observation(self, workdir, capsys):
        data = workdir / "d.csv"
        model_path = workdir / "m.json"
        assert main(["fit", "--model", "mvn", "--data", str(data),
                     "--out", str(model_path)]) == 0
        obs_path = workdir / "obs.json"
        values = [0.5, -0.9, 0.0, 0.2, 0.1, -0.3]
        obs_path.write_text(json.dumps({"values": values, "noise_sigma": 0.3}))
        assert main(["recover", "--obs", str(obs_path), "--model", str(model_path),
                     "--lambda", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["estimate"] == values
        assert report["iterations_used"] == 1

    def test_report_states_stop_reason(self, workdir, capsys):
        model_path = workdir / "m.json"
        assert main(["fit", "--model", "mvn", "--data", str(workdir / "d.csv"),
                     "--out", str(model_path)]) == 0
        obs_path = workdir / "obs.json"
        obs_path.write_text(json.dumps({"values": [0.5, -0.9, 0.0, 0.2, 0.1, -0.3],
                                        "noise_sigma": 0.3}))
        argv = ["recover", "--obs", str(obs_path), "--model", str(model_path)]
        reports = []
        for extra in ([], ["--max-iter", "1"]):
            assert main(argv + extra) == 0
            text = capsys.readouterr().out
            assert main(argv + extra) == 0
            assert capsys.readouterr().out == text
            reports.append(json.loads(text))
        assert reports[0]["stop_reason"] == "grad_tol" and reports[0]["converged"]
        assert reports[0]["grad_inf_norm"] < 1e-6
        assert reports[1]["stop_reason"] == "max_iter" and not reports[1]["converged"]
        assert reports[1]["grad_inf_norm"] >= 1e-6

    def test_malformed_obs_is_data_error(self, workdir):
        data = workdir / "d.csv"
        model_path = workdir / "m.json"
        assert main(["fit", "--model", "mvn", "--data", str(data),
                     "--out", str(model_path)]) == 0
        obs_path = workdir / "obs.json"
        obs_path.write_text('{"noise_sigma": 0.3}')
        assert main(["recover", "--obs", str(obs_path),
                     "--model", str(model_path)]) == 2

    @pytest.mark.parametrize("doc, detail", [
        ({"values": [0.5, -0.9, 0.0, 0.2, 0.1, -0.3], "noise_sigma": "x"},
         "could not convert string to float: 'x'"),
        ({"values": "abc", "noise_sigma": 0.3}, "could not convert string to float: 'abc'"),
        ({"values": [0.5, -0.9, 0.0, 0.2, 0.1, -0.3], "noise_sigma": -1},
         "noise_sigma must be positive"),
        ({"values": [0.5, -0.9, 0.0, 0.2, 0.1, -0.3], "noise_sigma": 0.3, "mask": [True] * 5},
         "mask length must match values"),
        ({"values": [0.5, math.nan, 0.0, 0.2, 0.1, -0.3], "noise_sigma": 0.3},
         "observation values must be a finite vector"),
    ])
    def test_malformed_obs_names_the_file(self, workdir, capsys, doc, detail):
        model_path = workdir / "m.json"
        assert main(["fit", "--model", "mvn", "--data", str(workdir / "d.csv"),
                     "--out", str(model_path)]) == 0
        obs_path = workdir / "obs.json"
        obs_path.write_text(json.dumps(doc))
        assert main(["recover", "--obs", str(obs_path), "--model", str(model_path)]) == 2
        assert (f"data error: {obs_path}: malformed observation ({detail})"
                in capsys.readouterr().err)

    def test_missing_or_invalid_obs_is_data_error(self, workdir, capsys):
        model_path = workdir / "m.json"
        assert main(["fit", "--model", "mvn", "--data", str(workdir / "d.csv"),
                     "--out", str(model_path)]) == 0
        missing = workdir / "no.json"
        assert main(["recover", "--obs", str(missing), "--model", str(model_path)]) == 2
        assert f"no such file: {missing}" in capsys.readouterr().err
        bad = workdir / "bad.json"
        bad.write_text('{"values": [0.1,')
        assert main(["recover", "--obs", str(bad), "--model", str(model_path)]) == 2
        assert f"{bad}: invalid JSON" in capsys.readouterr().err


class TestGradCheck:
    def fit(self, workdir, family, extra=()):
        out = workdir / f"{family}.json"
        assert main(["fit", "--model", family, "--data", str(workdir / "d.csv"),
                     "--out", str(out), *extra]) == 0
        return out

    def test_mvn_tight(self, workdir, capsys):
        path = self.fit(workdir, "mvn")
        assert main(["grad-check", "--model", str(path), "--count", "100",
                     "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_relative_error"] < 1e-5

    def test_box_inside_exact_zero(self, workdir, capsys):
        path = self.fit(workdir, "box")
        assert main(["grad-check", "--model", str(path), "--count", "50",
                     "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_relative_error"] == 0.0

    def test_gamma_and_gmm(self, workdir, capsys):
        for family, extra in (("gamma", ()), ("gmm", ("--k", "2", "--seed", "1"))):
            path = self.fit(workdir, family, extra)
            assert main(["grad-check", "--model", str(path), "--count", "60",
                         "--seed", "5"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["max_relative_error"] < 1e-4


@pytest.mark.parametrize("argv", [
    ["gen", "--spec", "{dir}/spec.json"],
    ["fit", "--model", "gmm", "--data", "{dir}/d.csv"],
    ["analyze", "--data", "{dir}/d.csv"],
    ["train-vae", "--data", "{dir}/d.csv", "--epochs", "1"],
    ["grad-check", "--model", "{dir}/no-model.json"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_flag_is_usage_error(workdir, capsys, argv, seed):
    """--seed is checked while parsing, before any file is read."""
    assert main([a.format(dir=workdir) for a in argv] + ["--seed", seed]) == 1
    assert capsys.readouterr().err == (
        f"usage error: argument --seed: must be a non-negative integer, got {seed!r}\n")


@pytest.mark.parametrize("argv,flag,value", [
    (["fit", "--model", "gmm", "--data", "{dir}/d.csv"], "--k", "0"),
    (["fit", "--model", "gmm", "--data", "{dir}/d.csv"], "--max-iter", "0"),
    (["analyze", "--data", "{dir}/d.csv"], "--count", "-5"),
    (["analyze", "--data", "{dir}/d.csv"], "--bins", "0"),
    (["train-vae", "--data", "{dir}/d.csv"], "--epochs", "0"),
    (["train-vae", "--data", "{dir}/d.csv"], "--batch", "0"),
    (["train-vae", "--data", "{dir}/d.csv"], "--latent", "0"),
    (["recover", "--obs", "{dir}/no-obs.json", "--model", "{dir}/no-model.json"],
     "--max-iter", "0"),
    (["grad-check", "--model", "{dir}/no-model.json"], "--count", "0"),
    (["grad-check", "--model", "{dir}/no-model.json"], "--count", "2.5"),
], ids=lambda value: value[0] if isinstance(value, list) else value)
def test_non_positive_count_flag_is_usage_error(workdir, capsys, argv, flag, value):
    """Counts, sizes and iteration caps are checked while parsing, before any file is read."""
    assert main([a.format(dir=workdir) for a in argv] + [flag, value]) == 1
    assert capsys.readouterr().err == (
        f"usage error: argument {flag}: must be a positive integer, got {value!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--data", "{dir}/d.csv", "--dims", "0,9"], "dims subset out of range"),
    (["fit", "--model", "mvn", "--data", "{dir}/marker.csv"],
     "{dir}/marker.csv: missing header line"),
], ids=["analyze-dims", "marker-only-csv"])
def test_faulty_input_is_data_error(workdir, capsys, argv, message):
    (workdir / "marker.csv").write_text("# pose-csv v1\n")
    assert main([a.format(dir=workdir) for a in argv]) == 2
    assert capsys.readouterr().err == f"data error: {message.format(dir=workdir)}\n"


def test_zero_hidden_width_is_usage_error(workdir, capsys):
    assert main(["train-vae", "--data", str(workdir / "d.csv"), "--hidden", "8,0"]) == 1
    assert capsys.readouterr().err == "usage error: --hidden widths must be positive, got '8,0'\n"


@pytest.mark.parametrize("argv,message", [
    (["analyze", "--dims", "a"], "--dims must be a comma-separated integer list, got 'a'"),
    (["train-vae", "--hidden", "8,0"], "--hidden widths must be positive, got '8,0'"),
], ids=["analyze", "train-vae"])
def test_bad_list_flag_is_usage_error_before_data_is_read(workdir, capsys, argv, message):
    assert main(argv + ["--data", str(workdir / "nope.csv")]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


NON_FINITE_FLAGS = [
    (["recover", "--lambda", "nan"], "lam must be finite and non-negative"),
    (["recover", "--lambda", "inf"], "lam must be finite and non-negative"),
    (["recover", "--step", "nan"], "invalid optimizer configuration"),
    (["recover", "--tol", "nan"], "invalid optimizer configuration"),
    (["recover", "--tol", "inf"], "invalid optimizer configuration"),
    (["fit", "--model", "box", "--margin", "nan"], "requires lo < hi in every dimension"),
    (["fit", "--model", "box", "--stiffness", "inf"], "stiffness must be positive and finite"),
    (["fit", "--model", "box", "--stiffness", "nan"], "stiffness must be positive and finite"),
    (["fit", "--model", "gmm", "--k", "2", "--tol", "nan"], "tol must be finite"),
    (["fit", "--model", "gmm", "--k", "2", "--tol", "inf"], "tol must be finite"),
    (["fit", "--model", "gmm", "--k", "2", "--reg", "nan"], "reg must be non-negative"),
    (["train-vae", "--lr", "nan"], "learning_rate must be finite and non-negative"),
    (["train-vae", "--lr", "inf"], "learning_rate must be finite and non-negative"),
]


@pytest.mark.parametrize("argv,message", NON_FINITE_FLAGS,
                         ids=[f"{argv[0]}{argv[-2]}={argv[-1]}" for argv, _ in NON_FINITE_FLAGS])
def test_non_finite_scalar_flag_is_data_error(workdir, capsys, argv, message):
    """NaN fails every `x < 0`-style check, so each check is written to fail on it."""
    data = str(workdir / "d.csv")
    model_path = workdir / "m.json"
    assert main(["fit", "--model", "mvn", "--data", data, "--out", str(model_path)]) == 0
    obs_path = workdir / "obs.json"
    obs_path.write_text(json.dumps({"values": [0.5, -0.9, 0.0, 0.2, 0.1, -0.3],
                                    "noise_sigma": 0.3}))
    inputs = {"recover": ["--obs", str(obs_path), "--model", str(model_path)],
              "fit": ["--data", data], "train-vae": ["--data", data, "--epochs", "1",
                                                     "--latent", "2", "--hidden", "4"]}
    assert main(argv[:1] + inputs[argv[0]] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {message}\n"


def test_recover_out_of_every_support_is_numerical_failure(workdir, capsys):
    """An observation outside the gamma support on every, all observed, dim: exit 3."""
    model_path = workdir / "gamma.json"
    assert main(["fit", "--model", "gamma", "--data", str(workdir / "d.csv"),
                 "--out", str(model_path)]) == 0
    params = read_json(model_path)["params"]
    obs_path = workdir / "obs.json"
    values = [shift - sign for shift, sign in zip(params["shift"], params["sign"])]
    obs_path.write_text(json.dumps({"values": values, "noise_sigma": 0.3}))
    assert main(["recover", "--obs", str(obs_path), "--model", str(model_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical failure: prior assigns zero probability at every initialization\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows of the diverging steps
def test_diverging_train_vae_is_numerical_failure(workdir, capsys):
    """SGD at lr 1e6 drives the decoder output non-finite: exit 3, before polar's eigh runs."""
    assert main(["train-vae", "--data", str(workdir / "d.csv"), "--optimizer", "sgd",
                 "--lr", "1e6", "--epochs", "3", "--latent", "2", "--hidden", "8",
                 "--batch", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: decoder output is not finite; training diverged\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows of the huge steps
def test_overflowing_step_stalls_like_a_huge_finite_one(workdir, capsys):
    """At --step 1e308 the trial point x + t d overflows: it scores inf, as a
    zero-probability point does, and the run stalls as it does at 1e200."""
    model_path = workdir / "m.json"
    assert main(["fit", "--model", "mvn", "--data", str(workdir / "d.csv"),
                 "--out", str(model_path)]) == 0
    obs_path = workdir / "obs.json"
    obs_path.write_text(json.dumps({"values": [0.5, -0.9, 0.0, 0.2, 0.1, -0.3],
                                    "noise_sigma": 0.3}))
    outs = []
    for step in ("1e308", "1e200"):
        assert main(["recover", "--obs", str(obs_path), "--model", str(model_path),
                     "--step", step]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    report = json.loads(outs[0])
    assert report["stop_reason"] == "stalled" and report["iterations_used"] == 1
    assert outs[0] == outs[1]


def test_reused_parser_answers_as_fresh_parsers_do(workdir, capsys):
    """main builds its parser once; a usage error midway leaves nothing behind."""
    data, model = str(workdir / "d.csv"), str(workdir / "m.json")
    obs = workdir / "obs.json"
    obs.write_text(json.dumps({"values": [0.5, -0.9, 0.0, 0.2, 0.1, -0.3], "noise_sigma": 0.3}))
    argvs = [
        ["fit", "--model", "gmm", "--data", data, "--k", "2", "--out", model],
        ["eval", "--model", model, "--data", data],
        ["fit", "--model", "gmm", "--data", data, "--k", "0"],
        ["recover", "--obs", str(obs), "--model", model, "--max-iter", "3"],
        ["grad-check", "--model", model, "--count", "4", "--seed", "2"],
        ["analyze", "--data", data, "--bins", "3", "--count", "50"],
        ["fit", "--model", "mvn", "--data", data],
        ["eval", "--model", model, "--data", data, "--bogus"],
        ["recover", "--obs", str(obs), "--model", model, "--max-iter", "3"],
    ]

    def run(fresh):
        cli._build_parser.cache_clear()
        results = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    reused = run(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0, 0, 0, 1, 0]
    assert reused == run(fresh=True)


def test_train_vae_needs_three_columns_per_joint(tmp_path, capsys):
    data = tmp_path / "two.csv"
    posedata.save_pose_csv(posedata.PoseDataset(
        dim=2, column_names=posedata.default_column_names(2),
        samples=np.arange(20.0).reshape(10, 2) / 10.0), data)
    assert main(["train-vae", "--data", str(data), "--epochs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "data error: train-vae needs a dataset with 3 columns per joint\n"


# case -> (family, key, replaced params): each document is inconsistent in `key`.
BAD_DOCUMENTS = {
    "mvn-bool-mean": ("mvn", "mean", lambda p: {"mean": True}),
    "gmm-three-covs": ("gmm", "covs", lambda p: {"covs": p["covs"] * 3}),
    "vae-empty-decoder": ("vae", "decoder", lambda p: {"decoder": {}}),
    "mvn-short-mean": ("mvn", "cov", lambda p: {"mean": p["mean"][:5]}),
    "gamma-short-shift": ("gamma", "shift", lambda p: {"shift": p["shift"][:5]}),
    "mvn-nan-mean": ("mvn", "mean", lambda p: {"mean": [math.nan, *p["mean"][1:]]}),
    "gmm-nan-means": ("gmm", "means", lambda p: {"means": [[math.nan, *p["means"][0][1:]]]}),
    "gamma-nan-alpha": ("gamma", "alpha", lambda p: {"alpha": [math.nan, *p["alpha"][1:]]}),
    "mvn-inf-mean": ("mvn", "mean", lambda p: {"mean": [math.inf, *p["mean"][1:]]}),
    "gamma-inf-alpha": ("gamma", "alpha", lambda p: {"alpha": [math.inf, *p["alpha"][1:]]}),
    "gmm-inf-means": ("gmm", "means", lambda p: {"means": [[math.inf, *p["means"][0][1:]]]}),
    "mvn-nan-cov": ("mvn", "cov", lambda p: {"cov": [[math.nan, *p["cov"][0][1:]], *p["cov"][1:]]}),
    "mvn-6x5-cov": ("mvn", "cov", lambda p: {"cov": [row[:5] for row in p["cov"]]}),
}


@pytest.mark.parametrize("case", BAD_DOCUMENTS)
def test_inconsistent_model_document_fails_on_load_naming_file_and_key(workdir, capsys, case):
    family, key, replaced = BAD_DOCUMENTS[case]
    path = workdir / f"{family}.json"
    data = ["--data", str(workdir / "d.csv")]
    if family == "vae":
        fit = ["train-vae", *data, "--epochs", "1", "--latent", "2", "--hidden", "4"]
    else:
        fit = ["fit", "--model", family, *data]
    assert main([*fit, "--out", str(path)]) == 0
    doc = read_json(path)
    doc["params"].update(replaced(doc["params"]))
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--model", str(path), *data]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(rf"data error: {re.escape(str(path))}: malformed '{family}' model document: "
                    rf"{key}\b", captured.err), captured.err


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_non_utf8_file_is_data_error_naming_the_file(workdir, capsys, command):
    bad = workdir / "bad"
    if command == "fit":  # a pose CSV with byte 0xff in a cell
        bad.write_bytes(b"# pose-csv v1\na,b\n1.0,\xff\n")
        argv = ["fit", "--model", "mvn", "--data", str(bad)]
    else:  # a model document with byte 0xff in a key
        bad.write_bytes(b'{"form\xff": 1}')
        argv = ["eval", "--model", str(bad), "--data", str(workdir / "d.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {bad}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("limits", ["all-infinite", "one-sided"])
def test_box_with_infinite_limits_grad_checks_and_recovers(workdir, capsys, limits):
    path = workdir / "box.json"
    if limits == "all-infinite":
        assert main(["fit", "--model", "box", "--data", str(workdir / "d.csv"),
                     "--margin", "inf", "--out", str(path)]) == 0
    else:
        inf = math.inf
        modelio.save_model(BoxLimitModel(lo=[-inf, -1.0, 0.5, -inf, -2.0, -inf],
                                         hi=[0.0, inf, inf, 1.0, 2.0, -3.0]), path)
    assert main(["grad-check", "--model", str(path), "--count", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["max_relative_error"] == 0.0
    obs = workdir / "obs.json"
    obs.write_text(json.dumps({"values": [0.5, -0.9, 0.0, 0.2, 0.1, -0.3], "noise_sigma": 0.3,
                               "mask": [True, False, False, True, True, False]}))
    assert main(["recover", "--obs", str(obs), "--model", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["converged"]


# case -> (family, replaced params, the rule the document breaks)
OUT_OF_RANGE_DOCUMENTS = {
    "gamma-zero-alpha": ("gamma", lambda p: {"alpha": [0.0, *p["alpha"][1:]]},
                         "gamma shape and rate must be positive"),
    "gamma-negative-beta": ("gamma", lambda p: {"beta": [-1.0, *p["beta"][1:]]},
                            "gamma shape and rate must be positive"),
    "gamma-sign-two": ("gamma", lambda p: {"sign": [2, *p["sign"][1:]]},
                       "sign entries must be -1 or +1"),
    "gmm-zero-weight": ("gmm", lambda p: {"weights": [0.0, *p["weights"][1:]]},
                        "mixture weights must be positive"),
    "vae-relu": ("vae", lambda p: {"encoder": [{**p["encoder"][0], "activation": "relu"},
                                               *p["encoder"][1:]]},
                 "encoder: unknown activation 'relu'"),
    "vae-short-bias": ("vae", lambda p: {"encoder": [{**p["encoder"][0], "bias": [0.0]},
                                                     *p["encoder"][1:]]},
                       "encoder: inconsistent layer shapes"),
    "vae-unchained": ("vae", lambda p: {"encoder": [p["encoder"][0], {
        **p["encoder"][1], "weight": [[*row, 0.0] for row in p["encoder"][1]["weight"]]}]},
                      "encoder: adjacent layer dimensions do not chain"),
    "vae-negative-w-kl": ("vae", lambda p: {"loss_weights": {**p["loss_weights"], "w_kl": -1}},
                          "w_kl must be non-negative"),
    "vae-input-dim-10": ("vae", lambda p: {"input_dim": 10}, "input_dim must be a multiple of 9"),
    "vae-latent-dim-3": ("vae", lambda p: {"latent_dim": 3},
                         "encoder must emit 2 * latent_dim values"),
    "vae-input-dim-18": ("vae", lambda p: {"input_dim": 18},
                         "encoder/decoder dimensions do not match input_dim"),
    "vae-wide-decoder": ("vae", lambda p: {"decoder": [{
        **p["decoder"][0], "weight": [[*row, 0.0] for row in p["decoder"][0]["weight"]]},
        *p["decoder"][1:]]}, "decoder input must match latent_dim"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE_DOCUMENTS)
def test_out_of_range_model_document_is_data_error(tmp_path, capsys, case):
    family, replaced, rule = OUT_OF_RANGE_DOCUMENTS[case]
    doc = read_json(DATA_DIR / f"{family}.json")
    doc["params"].update(replaced(doc["params"]))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["grad-check", "--model", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {path}: malformed '{family}' model document: {rule}\n")


@pytest.mark.parametrize("body, message", [
    ("0.0,0.1,0.2\n", "sequence needs at least two timestamped poses"),
    ("0.0,0.1,0.2\n1.0,nan,0.2\n2.0,0.1,0.3\n", "sequence has non-finite values"),
])
def test_faulty_sequence_file_is_data_error_naming_the_file(tmp_path, capsys, body, message):
    path = tmp_path / "seq.csv"
    path.write_text("# pose-csv v1\ntime_s,a,b\n" + body)
    assert main(["fit", "--model", "temporal-gmm", "--data", str(path), "--k", "1"]) == 2
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"


def test_one_row_is_too_few_for_a_mixture(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("# pose-csv v1\na,b\n0.5,0.1\n")
    assert main(["fit", "--model", "gmm", "--data", str(path), "--k", "1"]) == 2
    assert capsys.readouterr().err == "data error: fit_gmm_em needs at least 2 samples\n"


@pytest.mark.parametrize("argv, what", [(["fit", "--model", "mvn"], "sample covariance"),
                                        (["fit", "--model", "gamma"], "a sample moment"),
                                        (["analyze"], "sample covariance")],
                         ids=["fit-mvn", "fit-gamma", "analyze"])
def test_covariance_overflow_is_data_error(tmp_path, capsys, argv, what):
    """Rows of +-1e200: the message names the file and the overflow; a RuntimeWarning
    would fail the test, since warnings are errors here."""
    path = tmp_path / "d.csv"
    path.write_text("# pose-csv v1\na,b\n" + "1e200,0.0\n-1e200,1.0\n" * 6)
    assert main([*argv, "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {path}: {what} overflows float64\n"


def test_mixture_covariance_overflow_is_data_error_naming_the_file(tmp_path, capsys):
    """EM's global covariance is the normal's: the same error, and no RuntimeWarning."""
    path = tmp_path / "d.csv"
    path.write_text("# pose-csv v1\na,b\n1e200,0.0\n-1e200,1.0\n")
    assert main(["fit", "--model", "gmm", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {path}: sample covariance overflows float64\n"


@pytest.mark.parametrize("command", ["recover", "eval"])
def test_dimension_mismatch_is_data_error_naming_both_files(workdir, capsys, command):
    model = workdir / "m.json"
    assert main(["fit", "--model", "mvn", "--data", str(workdir / "d.csv"),
                 "--out", str(model)]) == 0
    dim = read_json(model)["dim"]
    if command == "recover":
        data = workdir / "obs.json"
        data.write_text(json.dumps({"values": [0.1] * (dim - 1), "noise_sigma": 0.3}))
        argv, wrong = ["recover", "--obs", str(data)], dim - 1
    else:
        data = workdir / "wide.csv"
        data.write_text("# pose-csv v1\n" + ",".join(f"c{i}" for i in range(66)) + "\n"
                        + ("0.0," * 65 + "0.0\n") * 16)
        argv, wrong = ["eval", "--data", str(data)], 66
    assert main([*argv, "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {data} has dim {wrong}, model {model} has dim {dim}\n"


@pytest.mark.parametrize("family, key", [("mvn", "cov"), ("gmm", "covs[0]"),
                                         ("temporal_gmm", "covs[0]")])
def test_covariance_not_positive_definite_in_a_document_is_data_error(
        tmp_path, capsys, family, key):
    doc = read_json(DATA_DIR / f"{family}.json")
    name = key.split("[")[0]
    dim = len(doc["params"][name][0])
    minus_eye = (-np.eye(dim)).tolist()
    doc["params"][name] = minus_eye if name == "cov" else [minus_eye, *doc["params"][name][1:]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["grad-check", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"data error: {path}: malformed '{family}' model document: "
                            f"{key} is not positive definite\n")


def test_covariance_not_positive_definite_in_a_fit_stays_numerical_failure(tmp_path, capsys):
    """Rows on one line at scale 1e100: no jitter makes their covariance definite."""
    path = tmp_path / "d.csv"
    path.write_text("# pose-csv v1\na,b\n1e100,1e100\n-1e100,-1e100\n3e99,3e99\n")
    assert main(["fit", "--model", "mvn", "--data", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: cov is not positive definite\n"


def test_em_fails_numerically_when_a_component_keeps_collapsing(workdir, capsys, monkeypatch):
    # No data set found reaches this. Here the last component scores -inf at every
    # point, so it collapses at each E-step, and every score rises by 1 per E-step,
    # so the log-likelihood keeps rising and EM does not stop as converged first.
    joint, calls = priors._gaussian_log_joint, itertools.count()

    def last_dead(*args):
        comp = joint(*args) + next(calls)
        comp[:, -1] = -math.inf
        return comp

    monkeypatch.setattr(priors, "_gaussian_log_joint", last_dead)
    assert main(["fit", "--model", "gmm", "--data", str(workdir / "d.csv"), "--k", "2"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: mixture component collapsed after 3 re-seeds\n")
