"""Span tracing of posepriors from outside the package.

Tracer.install() wraps every public function and public method of the
traced modules, including the aliases other posepriors modules import
under the same object (`from .posedata import axis_angle_to_matrices`),
and remove() restores the originals. Each call records a span
(id, parent id, name, start, end, operation id) in memory; write()
dumps them as JSON lines when the run ends.

Span names are `<module>.<function>`: methods are named by their method
name alone, so MvnModel.log_prob and GmmModel.log_prob both count as
`priors.log_prob`. A CLI invocation is named `cli.<command>`.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("linalg", "priors", "recovery", "vae", "posedata", "pca", "modelio", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [id, parent, name, start, end, op]
        self.units = defaultdict(float)  # "<name>.<unit>" -> count
        self.op = None
        self._stack = []
        self._originals = []  # (owner, attribute, original)
        self._wrapped = {}  # id(original) -> wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, 0.0, 0.0, self.op]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        self._count(name, args, result)
        return result

    def _count(self, name, args, result):
        u = self.units
        if name == "linalg.chol_solve_many":
            u[name + ".cols"] += args[1].shape[1]
        elif name == "linalg.cholesky":
            u[name + ".jittered"] += result.jitter_applied > 0.0
        elif name == "priors.log_prob_many":
            u[name + ".rows"] += len(args[1])
        elif name == "priors.fit_gmm_em":
            u[name + ".iters"] += result.fit_meta["iterations"]
        elif name == "vae.train":
            data = args[1]
            u[name + ".samples"] += len(getattr(data, "samples", data)) * args[2].epochs
        elif name == "posedata.load_pose_csv":
            u[name + ".rows"] += result.n_samples
        elif name == "posedata.save_pose_csv":
            u[name + ".rows"] += args[0].n_samples
        elif name == "modelio.canonical_dumps":
            u[name + ".bytes"] += len(result.encode("utf-8"))
        elif name == "modelio.load_model":
            u[name + ".bytes"] += os.path.getsize(args[0])
        elif name == "recovery.recover_pose":
            u[name + ".poses"] += 1
            u[name + ".iters"] += result.iterations_used
            u[name + ".not_converged"] += not result.converged

    def operation(self, op_id):
        """Tag spans started from now on with op_id (one recovery, fit, command)."""
        self.op = op_id

    # -- installation ---------------------------------------------------------

    def _wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _cli_main(self, fn):
        tracer = self

        def traced(argv=None):
            command = (argv or sys.argv[1:] or ["?"])[0]
            return tracer._call("cli." + command, fn, (argv,), {})

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        pkg = self.package.__name__
        for short in TRACED_MODULES:
            module = sys.modules[f"{pkg}.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if short == "cli" and attr == "main":
                        wrapper = self._cli_main(obj)
                    else:
                        wrapper = self._wrapper(f"{short}.{attr}", obj)
                    self._wrapped[id(obj)] = wrapper
                    self._patch(module, attr, wrapper)
                elif inspect.isclass(obj):
                    self._install_methods(short, obj)
        # Aliases bound by `from .x import y` in other posepriors modules.
        for modname, module in list(sys.modules.items()):
            if modname != pkg and not modname.startswith(pkg + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrapped.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped__:
                    self._patch(module, attr, wrapper)

    def _install_methods(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrapper(f"{short}.{attr}", obj))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrapper(f"{short}.{attr}", obj.__func__)))

    def remove(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self._wrapped.clear()

    # -- results ----------------------------------------------------------------

    def summary(self, factor_at=lambda start: 1.0) -> dict:
        """Per-name calls, self seconds and inclusive seconds, plus unit counts.

        Each span's duration is multiplied by factor_at(its start); the
        default leaves raw seconds. Also derives the per-pose prior-call
        counts of recover_pose from its direct child spans, and the
        chol_solve calls made beneath priors.grad_log_prob.
        """
        spans = self.spans
        duration = [(sp[4] - sp[3]) * factor_at(sp[3]) for sp in spans]
        child_time = defaultdict(float)
        for sp in spans:
            if sp[1] is not None:
                child_time[sp[1]] += duration[sp[0]]
        out = defaultdict(float)
        for sp in spans:
            name, dur = sp[2], duration[sp[0]]
            out[name + ".calls"] += 1
            out[name + ".s"] += dur - child_time[sp[0]]
            out[name + ".incl_s"] += dur
            if sp[1] is not None and spans[sp[1]][2] == "recovery.recover_pose":
                if name.endswith(".log_prob"):
                    out["recovery.recover_pose.log_prob_calls"] += 1
                elif name.endswith(".grad_log_prob"):
                    out["recovery.recover_pose.grad_calls"] += 1
            if name == "linalg.chol_solve":
                up = sp[1]
                while up is not None and spans[up][2] != "priors.grad_log_prob":
                    up = spans[up][1]
                if up is not None:
                    out["priors.grad_log_prob.chol_solve_calls"] += 1
        out.update(self.units)
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"id": sp[0], "parent": sp[1], "name": sp[2],
                                     "start": sp[3], "end": sp[4], "op": sp[5]}) + "\n")
