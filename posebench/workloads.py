"""The three benchmark workloads: gmm-66, vae-66 and cli-66.

A workload builds its inputs in setup() and then runs one fixed list of
phases per round; every round repeats exactly the same operations, so
counts and the share of failed operations are the same in every run.
A phase runs its operations through timed(fn, *args) in chunks of
roughly 0.1-2 s, so the reference kernel runs between them (see
refkernel.py). Short phases repeat identical chunks several times a
round, so that one burst of interference from other processes on the
machine cannot move their median chunk. Phases return a PhaseResult;
check() compares the first round's outputs with the numpy references in
reference.py and raises CheckFailure on any mismatch. A wrong output is
never counted as a failed operation.

Priors are fitted on a fixed training corpus, the way a pose prior is
fitted once offline; the seed draws everything the priors are then
queried with (scored poses, value+gradient points, observations, and
cli-66's generated CSV). Under a GMM fitted on a seeded corpus the
recovery cost per pose ranged from 100 to 3500 prior calls and some
recoveries did not converge, which no run length here can average out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

D = 66
J = 22
CORPUS_SEED = 1000


class CheckFailure(Exception):
    """An output disagreed with its reference computation."""


def check(condition, message: str):
    if not condition:
        raise CheckFailure(message)


@dataclass
class PhaseResult:
    output: object
    units: int  # priors built, poses scored, pairs, or poses recovered
    ops: int  # operations attempted
    failed: int = 0
    prior_calls: int = 0


@dataclass
class Phase:
    name: str
    metric: str  # fit_s | score_per_s | value_grad_per_s | recover_per_s
    run: object  # callable(outputs_so_far, timed) -> PhaseResult
    repeated: bool = False  # all chunks do identical work (see run.phase_seconds)


class CountingPrior:
    """Transparent wrapper that counts calls into a prior's log_prob/grad."""

    def __init__(self, prior):
        self._prior = prior
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._prior, name)

    def log_prob(self, x):
        self.calls += 1
        return self._prior.log_prob(x)

    def grad_log_prob(self, x):
        self.calls += 1
        return self._prior.grad_log_prob(x)


class PoseGenerator66:
    """66-d poses: correlated normal dims, one-sided gamma dims, bimodal dims.

    The structure (means, spreads, 6x6 rotation blocks coupling pairs of
    joints) is fixed; only the draws depend on the rng passed in.
    """

    def __init__(self):
        s = np.random.default_rng(20190927)
        self.std = np.linspace(0.25, 0.35, D)[s.permutation(D)]
        self.rot = np.zeros((D, D))
        for b in range(0, D, 6):
            self.rot[b : b + 6, b : b + 6] = np.linalg.qr(s.standard_normal((6, 6)))[0]
        self.mean = 0.2 * s.standard_normal(D)
        self.bimodal = np.arange(1, D, 6)
        self.gamma = np.arange(4, D, 6)

    def draw(self, rng, n: int) -> np.ndarray:
        x = self.mean + (rng.standard_normal((n, D)) * self.std) @ self.rot.T
        x[:, self.gamma] = self.mean[self.gamma] - 0.5 + rng.gamma(4.0, 0.15, (n, self.gamma.size))
        side = np.where(rng.random((n, self.bimodal.size)) < 0.5, -0.35, 0.35)
        x[:, self.bimodal] = (
            self.mean[self.bimodal] + side + 0.2 * rng.standard_normal((n, self.bimodal.size))
        )
        return x


POSES66 = PoseGenerator66()


def _nonincreasing(trace) -> bool:
    t = np.asarray(trace, dtype=float)
    return bool(np.all(np.diff(t) <= 0.0))


def _check_close(actual, expected, what: str, rtol: float = 1e-9, atol: float = 1e-8):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    check(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    err = np.abs(actual - expected) - (atol + rtol * np.abs(expected))
    check(np.all(err <= 0.0), f"{what}: off by up to {float(np.max(np.abs(actual - expected))):.3e}")


# Slack on "reference gradient below tol" for rounding between the
# library's triangular solves and numpy's LU solves; far below any tol used.
GRAD_SLACK = 1e-8


class Workload:
    name = ""
    recover_tol = 1e-3

    def __init__(self):
        self.mark = lambda op_id: None  # replaced by the tracer in traced runs

    def setup(self, pp, seed: int, workdir: str):
        raise NotImplementedError

    def phases(self) -> list:
        raise NotImplementedError

    def check(self, outputs: dict):
        raise NotImplementedError

    def fingerprint(self, outputs: dict):
        """Value that must repeat exactly in every round of a run."""
        raise NotImplementedError

    def _recover_all(self, prior, observations, timed) -> PhaseResult:
        counted = [CountingPrior(prior) for _ in observations]

        def recover(first, last):
            out = []
            for i in range(first, last):
                self.mark(f"recover-{i}")
                out.append(self.pp.recovery.recover_pose(observations[i], counted[i], 1.0,
                                                         tol=self.recover_tol))
            return out

        n, step = len(observations), self.recoveries_per_chunk
        results = []
        for first in range(0, n, step):
            results += timed(recover, first, min(first + step, n))
        self.mark(None)
        return PhaseResult(results, units=n, ops=n, failed=sum(not r.converged for r in results),
                           prior_calls=sum(c.calls for c in counted))

    def _check_recoveries(self, results, observations, prior_grad):
        for i, (r, obs) in enumerate(zip(results, observations)):
            check(_nonincreasing(r.objective_trace), f"recovery {i}: objective trace increases")
            if r.converged:
                g = ref.recovery_gradient(prior_grad, r.estimate, obs.values, obs.mask,
                                          obs.noise_sigma, 1.0)
                gmax = float(np.max(np.abs(g)))
                check(gmax < self.recover_tol + GRAD_SLACK,
                      f"recovery {i}: reference gradient {gmax:.3e} at a converged estimate")


# ---------------------------------------------------------------------------


class Gmm66(Workload):
    """SMPLify objective: data term + (-log GMM prior), k = 3, d = 66."""

    name = "gmm-66"
    n_corpus, n_score, n_pairs, n_recover = 2000, 10_000, 200, 36
    em_iters = 30
    fit_repeats, score_repeats, pair_chunks = 3, 6, 8
    recoveries_per_chunk = 3
    noise = 0.2

    def setup(self, pp, seed, workdir):
        self.pp = pp
        self.corpus = POSES66.draw(np.random.default_rng(CORPUS_SEED), self.n_corpus)
        rng = np.random.default_rng(seed)
        self.score_set = POSES66.draw(rng, self.n_score)
        self.pair_points = POSES66.draw(rng, self.n_pairs)
        truths = POSES66.draw(rng, self.n_recover)
        noisy = truths + self.noise * rng.standard_normal(truths.shape)
        self.observations = []
        for i, values in enumerate(noisy):
            mask = np.ones(D, dtype=bool)
            if i % 2:  # every other pose has one occluded joint
                j = (7 * i) % J
                mask[3 * j : 3 * j + 3] = False
            self.observations.append(pp.recovery.Observation(values, self.noise, mask))

    def phases(self):
        def fit(out, timed):
            for _ in range(self.fit_repeats):
                self.mark("fit")
                model = timed(lambda: self.pp.priors.fit_gmm_em(self.corpus, 3, seed=0,
                                                                max_iter=self.em_iters))
            self.mark(None)
            return PhaseResult(model, units=self.fit_repeats, ops=self.fit_repeats)

        def score(out, timed):
            for _ in range(self.score_repeats):
                scores = timed(out["fit"].log_prob_many, self.score_set)
            n = self.score_repeats * self.n_score
            return PhaseResult(scores, units=n, ops=n)

        def pairs(out, timed):
            m = out["fit"]
            vals = []
            for chunk in np.array_split(self.pair_points, self.pair_chunks):
                vals += timed(lambda: [(m.log_prob(x), m.grad_log_prob(x)) for x in chunk])
            return PhaseResult(vals, units=self.n_pairs, ops=self.n_pairs)

        def recover(out, timed):
            return self._recover_all(out["fit"], self.observations, timed)

        return [Phase("fit", "fit_s", fit, repeated=True),
                Phase("score", "score_per_s", score, repeated=True),
                Phase("pairs", "value_grad_per_s", pairs, repeated=True),
                Phase("recover", "recover_per_s", recover)]

    def check(self, outputs):
        m = outputs["fit"]
        w, mu, cov = m.weights, m.means, m.covs
        trace = m.fit_meta["loglik_trace"]
        scale = abs(trace[-1])
        check(np.all(np.diff(trace) >= -1e-12 * scale), "EM log-likelihood trace decreases")
        # The timed fits stop at em_iters, before EM converges. fit_gmm_em then
        # ends its trace one M-step before the returned parameters, which EM
        # can only have improved, so only an inequality holds for them.
        ll = float(np.sum(ref.gmm_log_prob(w, mu, cov, self.corpus)))
        check(ll >= trace[-1] - 1e-9 * scale, "EM final M-step lowered the log-likelihood")
        # One untimed fit to convergence (about 125 iterations, 3 s): there the
        # last trace value must equal the reference sum under the returned model.
        conv = self.pp.priors.fit_gmm_em(self.corpus, 3, seed=0)
        ctrace = conv.fit_meta["loglik_trace"]
        cscale = abs(ctrace[-1])
        check(conv.fit_meta["converged"], "EM did not converge within its default max_iter")
        check(np.all(np.diff(ctrace) >= -1e-12 * cscale), "converged EM trace decreases")
        cll = float(np.sum(ref.gmm_log_prob(conv.weights, conv.means, conv.covs, self.corpus)))
        check(abs(cll - ctrace[-1]) <= 1e-9 * cscale,
              f"converged EM final log-likelihood {ctrace[-1]!r} != reference sum {cll!r}")
        _check_close(outputs["score"], ref.gmm_log_prob(w, mu, cov, self.score_set), "log_prob_many")
        vals = outputs["pairs"]
        _check_close([v for v, _ in vals], ref.gmm_log_prob(w, mu, cov, self.pair_points), "log_prob")
        _check_close(np.stack([g for _, g in vals]),
                     np.stack([ref.gmm_grad(w, mu, cov, x) for x in self.pair_points]),
                     "grad_log_prob", rtol=1e-8)
        self._check_recoveries(outputs["recover"], self.observations,
                               lambda x: ref.gmm_grad(w, mu, cov, x))

    def fingerprint(self, outputs):
        return (outputs["fit"].means.tobytes(), outputs["score"].tobytes(),
                tuple(r.estimate.tobytes() for r in outputs["recover"]))


# ---------------------------------------------------------------------------


class Vae66(Workload):
    """VPoser-style prior: rotation-matrix VAE over 22 joints."""

    name = "vae-66"
    n_corpus, n_score, n_pairs, n_recover, n_fd = 32, 150, 100, 8, 3
    epochs, batch = 2, 8
    fit_repeats, score_chunks, pair_chunks = 2, 6, 8
    recoveries_per_chunk = 2
    noise = 0.2

    def _draw(self, rng, n):
        return self.joint_mean + 0.25 * rng.standard_normal((n, D))

    def setup(self, pp, seed, workdir):
        self.pp = pp
        self.joint_mean = 0.3 * np.random.default_rng(7).standard_normal(D)
        self.corpus = self._draw(np.random.default_rng(CORPUS_SEED), self.n_corpus)
        rng = np.random.default_rng(seed)
        self.score_set = self._draw(rng, self.n_score)
        self.pair_points = self._draw(rng, self.n_pairs)
        truths = self._draw(rng, self.n_recover)
        noisy = truths + self.noise * rng.standard_normal(truths.shape)
        self.observations = [pp.recovery.Observation(v, self.noise) for v in noisy]

    def phases(self):
        vae = self.pp.vae

        def fit(out, timed):
            self.mark("fit")

            def build_and_train():
                model = vae.build_vae(J, latent_dim=8, hidden=(64, 64), seed=0)
                cfg = vae.TrainConfig(epochs=self.epochs, batch_size=self.batch,
                                      learning_rate=1e-3, seed=0)
                trained, trace = vae.train(model, self.corpus, cfg)
                return vae.VaeEnergyPrior(trained), trace

            for _ in range(self.fit_repeats):
                result = timed(build_and_train)
            self.mark(None)
            return PhaseResult(result, units=self.fit_repeats, ops=self.fit_repeats)

        def score(out, timed):
            prior = out["fit"][0]
            vals = []
            for chunk in np.array_split(self.score_set, self.score_chunks):
                vals += timed(lambda: [prior.log_prob(x) for x in chunk])
            return PhaseResult(np.array(vals), units=self.n_score, ops=self.n_score)

        def pairs(out, timed):
            prior = out["fit"][0]
            vals = []
            for chunk in np.array_split(self.pair_points, self.pair_chunks):
                vals += timed(lambda: [(prior.log_prob(x), prior.grad_log_prob(x)) for x in chunk])
            return PhaseResult(vals, units=self.n_pairs, ops=self.n_pairs)

        def recover(out, timed):
            return self._recover_all(out["fit"][0], self.observations, timed)

        return [Phase("fit", "fit_s", fit, repeated=True),
                Phase("score", "score_per_s", score, repeated=True),
                Phase("pairs", "value_grad_per_s", pairs, repeated=True),
                Phase("recover", "recover_per_s", recover)]

    def check(self, outputs):
        prior, trace = outputs["fit"]
        check(trace[-1].l_total < trace[0].l_total, "VAE training loss did not fall")
        m = prior.model
        layers = [(l.weight, l.bias, l.activation) for l in m.encoder.layers]

        def energy(x):
            return ref.vae_energy(layers, m.latent_dim, x)

        _check_close(outputs["score"], [-energy(x)[0] for x in self.score_set],
                     "VAE log_prob", rtol=1e-9, atol=1e-10)
        vals = outputs["pairs"]
        _check_close([v for v, _ in vals], [-energy(x)[0] for x in self.pair_points],
                     "VAE pair value", rtol=1e-9, atol=1e-10)
        _check_close(np.stack([g for _, g in vals]),
                     np.stack([-energy(x)[1] for x in self.pair_points]),
                     "VAE energy gradient", rtol=1e-7, atol=1e-9)
        for i in range(self.n_fd):
            x = self.pair_points[i]
            fd = ref.central_diff(prior.log_prob, x)
            _check_close(vals[i][1], fd, "VAE gradient vs central differences",
                         rtol=1e-5, atol=1e-6)
        self._check_recoveries(outputs["recover"], self.observations,
                               lambda x: -energy(x)[1])

    def fingerprint(self, outputs):
        return (outputs["score"].tobytes(),
                tuple(r.estimate.tobytes() for r in outputs["recover"]))


# ---------------------------------------------------------------------------

# One generator entry per axis: joints cycle through normal, one-sided
# gamma, bimodal mixture and bounded uniform axes.
_SPEC_KINDS = (
    {"kind": "normal", "mu": 0.1, "sigma": 0.3},
    {"kind": "gamma", "alpha": 3.0, "beta": 6.0, "sign": -1, "shift": 0.05},
    {"kind": "mixture", "mu1": -0.4, "sigma1": 0.15, "mu2": 0.5, "sigma2": 0.2, "w1": 0.4},
    {"kind": "normal", "mu": -0.2, "sigma": 0.25},
    {"kind": "uniform", "lo": -0.6, "hi": 0.6},
)


class Cli66(Workload):
    """cli.main in-process: gen, fit, analyze, train-vae, eval, grad-check, recover."""

    name = "cli-66"
    n_rows, n_small, n_gradcheck = 20_000, 16, 100
    eval_repeats, gradcheck_repeats = 2, 8
    n_recover = 8
    recover_tol = 1e-9
    small_seed = 3  # train-vae input is fixed so its loss-fall check cannot depend on --seed

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self, pp, seed, workdir):
        self.pp = pp
        self.seed = seed
        self.workdir = workdir
        dims = [dict(_SPEC_KINDS[k % len(_SPEC_KINDS)]) for k in range(D)]
        for name, count in (("spec.json", self.n_rows), ("small_spec.json", self.n_small)):
            with open(self._path(name), "w", encoding="utf-8") as fh:
                json.dump({"dims": dims, "count": count, "seed": 0}, fh)
        # Recovery inputs do not depend on --seed: a converged=False result
        # is then the same operation failing in every run.
        corpus = POSES66.draw(np.random.default_rng(CORPUS_SEED), 2000)
        self.rec_model = pp.priors.fit_mvn(corpus)
        pp.modelio.save_model(self.rec_model, self._path("rec_model.json"))
        rng = np.random.default_rng(CORPUS_SEED + 1)
        truths = POSES66.draw(rng, self.n_recover)
        self.observations = []
        for i, t in enumerate(truths):
            mask = np.ones(D, dtype=bool)
            if i % 2:
                mask[3 * i : 3 * i + 6] = False
            values = t + 0.2 * rng.standard_normal(D)
            self.observations.append((values, 0.2, mask))
            with open(self._path(f"obs{i}.json"), "w", encoding="utf-8") as fh:
                json.dump({"values": values.tolist(), "noise_sigma": 0.2,
                           "mask": mask.tolist()}, fh)

    def _cli(self, timed, *argv) -> str:
        """Run one command in-process; return its stdout. Nonzero exit fails the run."""
        self.mark(argv[0])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = timed(self.pp.cli.main, [str(a) for a in argv])
        self.mark(None)
        check(code == 0, f"posepriors {' '.join(map(str, argv))} exited {code}: {err.getvalue()}")
        return out.getvalue()

    def phases(self):
        p = self._path

        def fit(out, timed):
            self._cli(timed, "gen", "--spec", p("spec.json"), "--seed", self.seed, "--out", p("poses.csv"))
            self._cli(timed, "gen", "--spec", p("small_spec.json"), "--seed", self.small_seed,
                      "--out", p("small.csv"))
            for family in ("mvn", "gamma", "box"):
                self._cli(timed, "fit", "--model", family, "--data", p("poses.csv"),
                          "--out", p(f"{family}.json"))
            self._cli(timed, "analyze", "--data", p("poses.csv"), "--count", self.n_rows,
                      "--out", p("analyze.json"))
            summary = self._cli(timed, "train-vae", "--data", p("small.csv"), "--epochs", 2,
                                "--batch", 8, "--hidden", "32,32", "--latent", 4, "--seed", 0,
                                "--out", p("vae.json"))
            return PhaseResult(json.loads(summary), units=1, ops=7)

        def score(out, timed):
            for _ in range(self.eval_repeats):
                self._cli(timed, "eval", "--model", p("mvn.json"), "--data", p("poses.csv"),
                          "--out", p("eval.json"))
            return PhaseResult(None, units=self.eval_repeats * self.n_rows, ops=self.eval_repeats)

        def pairs(out, timed):
            for k in range(self.gradcheck_repeats):
                self._cli(timed, "grad-check", "--model", p("mvn.json"), "--count",
                          self.n_gradcheck, "--seed", self.seed, "--out", p(f"gradcheck{k}.json"))
            n = self.gradcheck_repeats * self.n_gradcheck
            return PhaseResult(None, units=n, ops=self.gradcheck_repeats)

        def recover(out, timed):
            recovery = self.pp.recovery
            original = recovery.recover_pose
            counted = []

            def counting_recover(obs, prior, *args, **kwargs):
                counted.append(CountingPrior(prior))
                return original(obs, counted[-1], *args, **kwargs)

            recovery.recover_pose = counting_recover
            try:
                for i in range(self.n_recover):
                    self._cli(timed, "recover", "--obs", p(f"obs{i}.json"), "--model", p("rec_model.json"),
                              "--tol", self.recover_tol, "--out", p(f"rec{i}.json"))
            finally:
                recovery.recover_pose = original
            reports = []
            for i in range(self.n_recover):
                with open(p(f"rec{i}.json"), encoding="utf-8") as fh:
                    reports.append(json.load(fh))
            failed = sum(not r["converged"] for r in reports)
            # This round's files, hashed before the next round overwrites them.
            digest = hashlib.sha256()
            for name in self._round_files():
                with open(p(name), "rb") as fh:
                    # In blocks, so hashing does not raise the run's peak RSS.
                    for block in iter(lambda: fh.read(1 << 16), b""):
                        digest.update(block)
            return PhaseResult({"reports": reports, "files_sha256": digest.hexdigest()},
                               units=self.n_recover, ops=self.n_recover, failed=failed,
                               prior_calls=sum(c.calls for c in counted))

        return [Phase("fit", "fit_s", fit), Phase("score", "score_per_s", score, repeated=True),
                Phase("pairs", "value_grad_per_s", pairs, repeated=True),
                Phase("recover", "recover_per_s", recover)]

    def _round_files(self):
        """Every file a round writes."""
        return (["poses.csv", "small.csv", "mvn.json", "gamma.json", "box.json",
                 "analyze.json", "vae.json", "eval.json"]
                + [f"gradcheck{k}.json" for k in range(self.gradcheck_repeats)]
                + [f"rec{i}.json" for i in range(self.n_recover)])

    def check(self, outputs):
        # The files read here are the last round's; fingerprint() has shown
        # that every round wrote the same bytes.
        p = self._path
        data = np.loadtxt(p("poses.csv"), delimiter=",", skiprows=2)
        check(data.shape == (self.n_rows, D), f"gen wrote {data.shape} values")
        modelio = self.pp.modelio
        docs = {}
        for name in ("mvn", "gamma", "box", "vae", "rec_model"):
            with open(p(f"{name}.json"), encoding="utf-8") as fh:
                text = fh.read()
            again = modelio.canonical_dumps(modelio.model_to_doc(modelio.load_model(p(f"{name}.json"))))
            check(again == text, f"{name}.json does not round-trip byte-identically")
            docs[name] = json.loads(text)
        mean = np.array(docs["mvn"]["params"]["mean"])
        cov = np.array(docs["mvn"]["params"]["cov"])
        _check_close(mean, data.mean(axis=0), "fit mvn mean", rtol=1e-9, atol=1e-12)
        _check_close(cov, np.cov(data, rowvar=False), "fit mvn cov", rtol=1e-9, atol=1e-12)
        _check_close(docs["box"]["params"]["lo"], data.min(axis=0), "fit box lo", 0.0, 0.0)
        _check_close(docs["box"]["params"]["hi"], data.max(axis=0), "fit box hi", 0.0, 0.0)
        with open(p("analyze.json"), encoding="utf-8") as fh:
            eig = np.array(json.load(fh)["eigenvalues"])
        ref_eig = ref.pca_eigenvalues(data)
        _check_close(eig, ref_eig, "analyze eigenvalues", rtol=1e-8, atol=1e-12 * ref_eig[0])
        summary = outputs["fit"]
        check(summary["final_epoch_total"] < summary["first_epoch_total"],
              "train-vae loss did not fall")
        with open(p("eval.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        check(report["count"] == self.n_rows, "eval count")
        _check_close(report["per_sample_log_prob"], ref.mvn_log_prob(mean, cov, data), "eval")
        for k in range(self.gradcheck_repeats):
            with open(p(f"gradcheck{k}.json"), encoding="utf-8") as fh:
                check(json.load(fh)["pass"] is True, "grad-check did not pass")
        rec = self.rec_model
        for i, (report, (values, sigma, mask)) in enumerate(zip(outputs["recover"]["reports"],
                                                                self.observations)):
            check(_nonincreasing(report["objective_trace"]), f"recover {i}: trace increases")
            oracle = ref.mvn_map_estimate(rec.mean, rec.cov, values, mask, sigma, 1.0)
            gap = float(np.max(np.abs(np.array(report["estimate"]) - oracle)))
            check(gap <= 1e-6, f"recover {i}: estimate {gap:.3e} from the closed form")

    def fingerprint(self, outputs):
        return (outputs["recover"]["files_sha256"], json.dumps(outputs["fit"], sort_keys=True))


WORKLOADS = {w.name: w for w in (Gmm66, Vae66, Cli66)}
