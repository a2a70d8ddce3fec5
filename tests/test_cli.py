import json

import numpy as np
import pytest

from posepriors import modelio, posedata
from posepriors.cli import main
from posepriors.posedata import MotionSequence, save_sequence_csv


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

    @pytest.mark.parametrize("doc", [
        {"dims": [1], "count": 3},
        {"dims": {"a": 1}, "count": 3},
        {"dims": SPEC_DOC["dims"], "count": "many"},
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
