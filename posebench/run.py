"""posepriors benchmark: one workload per run, checked outputs, normalised times.

    python3 posebench/run.py --workload gmm-66 --seed 1 --seconds 20 --trace 0

Workloads: gmm-66, vae-66, cli-66 (see README.md). The run sets up its
inputs eleven times (median reported as setup_s), then repeats whole rounds
of the workload's fixed operations until --seconds have passed. Each
phase is timed in chunks interleaved with rounds of the reference kernel
and reported in seconds at the kernel's nominal speed; raw seconds are
printed on the line before the result. The last line of stdout is the result JSON.

--trace 1 alternates untraced and traced rounds and prints per-layer
metrics instead, plus the tracing overhead. Every span is normalised by
the factor of the timed chunk it ran in, like the phase times; the raw
per-layer seconds go on the line before the result. Spans are written to
posebench/out/trace-<workload>-seed<seed>.jsonl.
"""

import os

# One BLAS thread: counts and floating-point results must not depend on
# the environment, and a second thread only adds contention on 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Without this, numpy asks for transparent huge pages on large arrays, and
# whether the kernel grants them varies from run to run: peak RSS of the
# same cli-66 round read either 167 or 194 MB.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from refkernel import PairedClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailure  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fit_s": "s",
    "score_per_s": "poses/s",
    "value_grad_per_s": "pairs/s",
    "recover_per_s": "poses/s",
    "prior_calls_per_pose": "calls/pose",
}


def import_posepriors():
    """Fresh import of posepriors from this checkout's src/ (none other)."""
    for name in [m for m in sys.modules if m == "posepriors" or m.startswith("posepriors.")]:
        del sys.modules[name]
    pp = importlib.import_module("posepriors")
    importlib.import_module("posepriors.cli")
    if SRC.resolve() not in Path(pp.__file__).resolve().parents:
        raise SystemExit(f"posepriors imported from {pp.__file__}, not from {SRC}")
    return pp


def setup_once(workload_cls, seed, workdir):
    workload = workload_cls()
    workload.setup(import_posepriors(), seed, workdir)
    return workload


class Round:
    def __init__(self):
        self.outputs = {}
        self.raw = {}  # phase -> raw seconds of each chunk
        self.norm = {}  # phase -> normalised seconds of each chunk
        self.units = {}
        self.ops = 0
        self.failed = 0
        self.prior_calls = 0

    def total(self):
        return sum(sum(chunks) for chunks in self.norm.values())


def run_round(workload, clock) -> Round:
    rnd = Round()
    for phase in workload.phases():
        timed = clock.phase()
        res = phase.run(rnd.outputs, timed)
        rnd.outputs[phase.name] = res.output
        rnd.raw[phase.name], rnd.norm[phase.name] = timed.raw, timed.normalised
        rnd.units[phase.name] = res.units
        rnd.ops += res.ops
        rnd.failed += res.failed
        rnd.prior_calls += res.prior_calls
    return rnd


def phase_seconds(rounds, phase, kind="norm") -> float:
    """Seconds one round spends in a phase.

    A phase of identical chunks counts its median chunk over all rounds
    times its chunk count, so a burst of interference during one chunk
    does not move it; any other phase counts the median over rounds of
    its chunk sum.
    """
    chunks = [getattr(r, kind)[phase.name] for r in rounds]
    if phase.repeated:
        return len(chunks[0]) * statistics.median(c for cs in chunks for c in cs)
    return statistics.median(sum(cs) for cs in chunks)


def end_to_end(workload, rounds, setup_norm) -> dict:
    first = rounds[0]
    values = {
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for phase in workload.phases():
        seconds = phase_seconds(rounds, phase)
        if phase.metric == "fit_s":  # units: priors built in the phase
            values["fit_s"] = seconds / first.units[phase.name]
        else:
            values[phase.metric] = first.units[phase.name] / seconds
    values["prior_calls_per_pose"] = first.prior_calls / first.units["recover"]
    return values


def per_layer(summary: dict, n_rounds: int, overhead_s: float) -> dict:
    """Per-layer metrics per traced round from a Tracer summary.

    Seconds are in whatever scale the summary was made in: run.py passes
    the normalised summary for the metrics and the raw one for the line
    before the result.
    """
    s = summary

    def per_round(key):
        return s.get(key, 0.0) / n_rounds

    def ratio(num, den):
        return s.get(num, 0.0) / s[den] if s.get(den) else 0.0

    poses = "recovery.recover_pose.poses"
    out = {}
    for name in ("linalg.chol_solve", "linalg.cholesky", "linalg.jacobi_eigen", "priors.log_prob",
                 "priors.grad_log_prob", "vae.vae_prior_energy",
                 "posedata.axis_angle_to_matrices"):
        out[name + ".calls"] = (per_round(name + ".calls"), "count")
    for name in ("linalg.chol_solve", "linalg.chol_solve_many", "linalg.cholesky",
                 "linalg.jacobi_eigen", "priors.log_prob", "priors.grad_log_prob",
                 "priors.log_prob_many", "vae.vae_prior_energy",
                 "posedata.axis_angle_to_matrices", "posedata.load_pose_csv",
                 "posedata.save_pose_csv", "posedata.pose_csv_text", "modelio.canonical_dumps",
                 "modelio.load_model",
                 "pca.fit_pca", "cli.gen", "cli.fit", "cli.analyze", "cli.train-vae", "cli.eval",
                 "cli.grad-check", "cli.recover"):
        out[name + ".s"] = (per_round(name + ".s"), "s")
    out["linalg.chol_solve_many.cols"] = (per_round("linalg.chol_solve_many.cols"), "count")
    out["linalg.cholesky.jittered"] = (per_round("linalg.cholesky.jittered"), "count")
    out["priors.grad_log_prob.chol_solves_per_call"] = (
        ratio("priors.grad_log_prob.chol_solve_calls", "priors.grad_log_prob.calls"), "count")
    out["priors.log_prob_many.rows"] = (per_round("priors.log_prob_many.rows"), "rows")
    out["priors.fit_gmm_em.iters"] = (per_round("priors.fit_gmm_em.iters"), "count")
    out["priors.fit_gmm_em.s_per_iter"] = (
        ratio("priors.fit_gmm_em.incl_s", "priors.fit_gmm_em.iters"), "s")
    out["recovery.recover_pose.iters_per_pose"] = (ratio("recovery.recover_pose.iters", poses), "count")
    out["recovery.recover_pose.log_prob_calls_per_pose"] = (
        ratio("recovery.recover_pose.log_prob_calls", poses), "count")
    out["recovery.recover_pose.grad_calls_per_pose"] = (
        ratio("recovery.recover_pose.grad_calls", poses), "count")
    out["recovery.recover_pose.self_s"] = (per_round("recovery.recover_pose.s"), "s")
    out["recovery.recover_pose.not_converged"] = (
        per_round("recovery.recover_pose.not_converged"), "count")
    out["vae.train.samples"] = (per_round("vae.train.samples"), "count")
    out["vae.train.s_per_sample"] = (ratio("vae.train.incl_s", "vae.train.samples"), "s")
    for name in ("posedata.load_pose_csv", "posedata.save_pose_csv"):
        out[name + ".rows"] = (per_round(name + ".rows"), "rows")
    for name in ("modelio.canonical_dumps", "modelio.load_model"):
        out[name + ".bytes"] = (per_round(name + ".bytes"), "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.spans"] = (per_round("spans"), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "posepriors" / "__init__.py").is_file():
        print(f"benchmark: no posepriors sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    clock = PairedClock()

    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as workdir:
        timed = clock.phase()
        for _ in range(SETUP_REPS):
            workload = timed(setup_once, WORKLOADS[args.workload], args.seed, workdir)
        setup_norm = timed.normalised

        tracer = Tracer(workload.pp) if args.trace else None
        if tracer:
            workload.mark = tracer.operation
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(run_round(workload, clock))
            if tracer:
                tracer.install()
                try:
                    traced.append(run_round(workload, clock))
                finally:
                    tracer.remove()

        result = {"correct": True, "attempted": sum(r.ops for r in plain + traced),
                  "failed": sum(r.failed for r in plain + traced), "metrics": {}}
        try:
            first = workload.fingerprint(plain[0].outputs)
            for r in plain[1:] + traced:
                if workload.fingerprint(r.outputs) != first:
                    raise CheckFailure("outputs differ between rounds of one run")
            workload.check(plain[0].outputs)
        except CheckFailure as exc:
            print(f"benchmark: wrong output: {exc}", file=sys.stderr)
            result["correct"] = False

    phases = workload.phases()
    detail = {"rounds": len(plain),
              "raw_phase_s": {p.name: phase_seconds(plain, p, "raw") for p in phases},
              "normalised_phase_s": {p.name: phase_seconds(plain, p) for p in phases},
              "setup_normalised_s": setup_norm,
              "ref_kernel_median_s": statistics.median(clock.kernel_times)}
    if tracer:
        overhead = (statistics.median(r.total() for r in traced)
                    - statistics.median(r.total() for r in plain))
        layers = {}
        for kind, factor_at in (("raw", lambda start: 1.0), ("norm", clock.factor_at)):
            summary = tracer.summary(factor_at)
            summary["spans"] = len(tracer.spans)
            layers[kind] = per_layer(summary, len(traced), overhead)
        detail["raw_layer_s"] = {k: v for k, (v, unit) in layers["raw"].items()
                                 if unit == "s" and not k.startswith("trace.")}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = layers["norm"]
    else:
        values = end_to_end(workload, plain, setup_norm)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
