"""Command-line surface: data generation, fitting, evaluation, PCA
analysis, VAE training, pose recovery, and gradient checking.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Reports are canonical JSON on stdout unless --out is given; every random
path takes a --seed so runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys

import numpy as np

from . import gradcheck, modelio, pca, posedata, priors, recovery, vae
from .errors import DataError, NumericalError

GRAD_CHECK_THRESHOLD = 1e-3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Widen the stock matcher so scientific notation like -1e9 parses
        # as an option value rather than being mistaken for a flag.
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-\d+\.?\d*[eE][+-]?\d+$"
        )

    def error(self, message):
        raise UsageError(message)


def _emit(value, out_path: str | None, pieces_of=None) -> None:
    """The one stdout-or-file choice: the str pieces `pieces_of(value)` (by default the one
    piece `modelio.canonical_dumps(value)`, looked up per call) to stdout, or to `out_path`."""
    pieces = pieces_of(value) if pieces_of else [modelio.canonical_dumps(value)]
    if out_path:
        posedata.write_text(out_path, pieces)
    else:
        sys.stdout.writelines(pieces)


def _int_type(low: int, kind: str):
    """An argparse type: an integer of at least `low`, checked while parsing."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {kind} integer, got {text!r}")
        return value
    return parse


_seed = _int_type(0, "a non-negative")
_positive = _int_type(1, "a positive")


def _parse_ints(text: str | None, flag: str):
    if text is None:
        return None
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated integer list, got {text!r}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args) -> int:
    spec = posedata.SynthSpec.from_json(args.spec)
    seed = args.seed if args.seed is not None else spec.seed
    dataset = posedata.synth_generate(spec, seed=seed)
    _emit(dataset, args.out, posedata.pose_csv_pieces)
    return 0


def _em_options(args) -> dict:
    return dict(seed=args.seed, reg=args.reg, tol=args.tol, max_iter=args.max_iter)


# --model family -> fit(args); the order is that of the --model choices.
_FITTERS = {
    "mvn": lambda args: priors.fit_mvn(posedata.load_pose_csv(args.data)),
    "gamma": lambda args: priors.fit_gamma(posedata.load_pose_csv(args.data)),
    "gmm": lambda args: priors.fit_gmm_em(
        posedata.load_pose_csv(args.data), args.k, **_em_options(args)),
    "temporal-gmm": lambda args: priors.fit_temporal_gmm(
        posedata.compute_deltas(posedata.load_sequence_csv(args.data)), args.k,
        **_em_options(args)),
    "box": lambda args: priors.box_from_data(
        posedata.load_pose_csv(args.data), stiffness=args.stiffness, margin=args.margin),
}


def _cmd_fit(args) -> int:
    _emit(modelio.model_to_doc(_FITTERS[args.model](args)), args.out)
    return 0


def _load_prior(path):
    model = modelio.load_model(path)
    if isinstance(model, vae.VaeModel):
        return vae.VaeEnergyPrior(model)
    return model


def _cmd_eval(args) -> int:
    model = _load_prior(args.model)
    if isinstance(model, priors.TemporalGmmModel):
        seq = posedata.load_sequence_csv(args.data)
        rows = priors.stack_deltas(posedata.compute_deltas(seq))
    else:
        rows = posedata.load_pose_csv(args.data).samples
    per_sample = [float(v) for v in model.log_prob_many(rows)]
    report = {
        "per_sample_log_prob": per_sample,
        "mean_log_prob": sum(per_sample) / len(per_sample),
        "count": len(per_sample),
    }
    _emit(report, args.out)
    return 0


def _cmd_analyze(args) -> int:
    dims = _parse_ints(args.dims, "--dims")
    data = posedata.load_pose_csv(args.data)
    rng = np.random.default_rng(args.seed)
    n = data.n_samples
    if n > args.count:
        rows = data.samples[np.sort(rng.choice(n, size=args.count, replace=False))]
    else:
        rows = data.samples
    model = pca.fit_pca(rows, dims=dims)
    scores = pca.reorient(model, rows if dims is None else rows[:, dims])[:, 0]
    normal = pca.fit_normal_1d(scores)
    hist = pca.histogram(scores, args.bins)
    mass = pca.infeasible_mass(normal, args.feasible_lo, args.feasible_hi)
    report = {
        "n_used": int(rows.shape[0]),
        "dims": dims if dims is not None else list(range(data.dim)),
        "eigenvalues": model.eigenvalues,
        "normal_1d": dataclasses.asdict(normal),
        "feasible_interval": [args.feasible_lo, args.feasible_hi],
        "infeasible_mass": mass,
        "histogram": dataclasses.asdict(hist),
    }
    if args.hist_out:
        rows = zip(hist.edges[:-1].tolist(), hist.edges[1:].tolist(), hist.counts.tolist())
        posedata.write_text(args.hist_out, [posedata.csv_text(["bin_lo", "bin_hi", "count"], rows)])
    _emit(report, args.out)
    return 0


def _cmd_train_vae(args) -> int:
    hidden = _parse_ints(args.hidden, "--hidden")
    if any(width < 1 for width in hidden):
        raise UsageError(f"--hidden widths must be positive, got {args.hidden!r}")
    data = posedata.load_pose_csv(args.data)
    if data.dim % 3 != 0:
        raise DataError("train-vae needs a dataset with 3 columns per joint")
    model = vae.build_vae(
        n_joints=data.dim // 3, latent_dim=args.latent, hidden=hidden, seed=args.seed
    )
    cfg = vae.TrainConfig(
        epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr,
        seed=args.seed, optimizer=args.optimizer,
    )
    trained, trace = vae.train(model, data, cfg)
    if args.trace_out:
        vae.write_loss_trace(trace, args.trace_out)
    _emit(modelio.model_to_doc(trained), args.out)
    if args.out:  # the model went to a file: a summary on stdout
        _emit({
            "model_file": args.out,
            "epochs": args.epochs,
            "first_epoch_total": trace[0].l_total,
            "final_epoch_total": trace[-1].l_total,
        }, None)
    return 0


def _cmd_recover(args) -> int:
    doc = posedata.read_json(args.obs)
    try:
        obs = recovery.Observation(
            values=doc["values"],
            noise_sigma=float(doc["noise_sigma"]),
            mask=doc.get("mask"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{args.obs}: malformed observation ({exc})") from None
    prior = _load_prior(args.model)
    result = recovery.recover_pose(
        obs, prior, args.lam, max_iter=args.max_iter, step=args.step, tol=args.tol
    )
    _emit(dataclasses.asdict(result), args.out)
    return 0


def _cmd_grad_check(args) -> int:
    prior = _load_prior(args.model)
    report = gradcheck.run_grad_check(prior, count=args.count, seed=args.seed)
    report["model_type"] = type(prior).__name__
    report["threshold"] = GRAD_CHECK_THRESHOLD
    report["pass"] = report["max_relative_error"] <= GRAD_CHECK_THRESHOLD
    _emit(report, args.out)
    return 0 if report["pass"] else 3


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use and reused: building costs some 20 parses.
    Parsing leaves it as it was; each command's function is bound here, and the
    library functions it calls are looked up when it runs."""
    parser = _Parser(prog="posepriors", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic pose CSV from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=_seed, default=None,
                   help="overrides the seed recorded in the spec")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fit", help="fit a prior family to a dataset")
    p.add_argument("--model", required=True, choices=list(_FITTERS))
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--k", type=_positive, default=1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--reg", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=_positive, default=500)
    p.add_argument("--stiffness", type=float, default=1.0)
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="per-sample and mean log-probability of a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="principal-component normal-fit diagnostic")
    p.add_argument("--data", required=True)
    p.add_argument("--dims", default=None)
    p.add_argument("--count", type=_positive, default=3000)
    p.add_argument("--bins", type=_positive, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--feasible-lo", type=float, default=-1e9)
    p.add_argument("--feasible-hi", type=float, default=1e9)
    p.add_argument("--out")
    p.add_argument("--hist-out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("train-vae", help="train the rotation-matrix VAE")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=_positive, default=50)
    p.add_argument("--batch", type=_positive, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--latent", type=_positive, default=8)
    p.add_argument("--hidden", default="64,64")
    p.add_argument("--optimizer", choices=["sgd", "adam"], default="adam")
    p.add_argument("--out")
    p.add_argument("--trace-out")
    p.set_defaults(func=_cmd_train_vae)

    p = sub.add_parser("recover", help="recover a pose from a noisy observation")
    p.add_argument("--obs", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--max-iter", type=_positive, default=500)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("grad-check", help="compare analytic and numeric gradients")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=_positive, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
