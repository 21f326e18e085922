"""One workload run in a fresh process: set-up, timed passes, output checks.

run.py starts this script once per role:

- ``prepare`` writes what set-up needs (the sft-d64 start checkpoint);
- ``probe`` stops at the start of the first operation, to time set-up;
- ``run`` measures the workload, and with ``--trace 1`` adds two traced
  passes for the per-layer metrics.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass

T0 = time.perf_counter()  # set-up is timed from before the library import

from latentalign import (attention, autodiff, config, data,  # noqa: E402
                         encoders, masking, model, objective, training,
                         verify)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from host import REF_S, Host, kernel_seconds  # noqa: E402
from spans import Patches, Recorder, lookup  # noqa: E402

WORKLOADS = ("align-d32", "sft-d64", "gradcheck")
MIN_OPS = 100           # p90 needs at least ten operations beyond it
TRACED_PASSES = 2       # exact counts must repeat between them
GRADCHECK_TOL = 1e-4
WHOLE_PASS = math.inf   # a check failure that fails every operation of a pass

AUTODIFF_OPS = ("matmul", "add", "mul", "pow_const", "tsum", "softmax_masked",
                "layernorm", "gelu", "cross_entropy", "smooth_l1",
                "gather_rows", "slice_cols", "transpose", "concat")

# span name -> every (owner, attribute) a caller looks the function up by
SPANS = {
    "training.Trainer.step": [(training.Trainer, "step")],
    "training.run_stage": [(training, "run_stage")],
    "training.AdamW.update": [(training.AdamW, "update")],
    "masking.sample_mask": [(masking, "sample_mask"),
                            (training, "sample_mask")],
    "encoders.StubEncoder.encode": [(encoders.StubEncoder, "encode")],
    "model.pack": [(model, "pack"), (training, "pack")],
    "attention.build_mask": [(attention, "build_mask"),
                             (training, "build_mask")],
    "model.Predictor.forward": [(model.Predictor, "forward")],
    "model.project_tap": [(model, "project_tap"), (training, "project_tap")],
    "objective.ntp_loss": [(objective, "ntp_loss"), (training, "ntp_loss")],
    "objective.jepa_loss": [(objective, "jepa_loss"),
                            (training, "jepa_loss")],
    "objective.combine": [(objective, "combine"), (training, "combine")],
    "autodiff.Tensor.backward": [(autodiff.Tensor, "backward")],
    "autodiff.fd_check": [(autodiff, "fd_check"), (verify, "fd_check")],
    "verify.run_gradcheck": [(verify, "run_gradcheck")],
    "config.bundle_from": [(config, "bundle_from")],
    "data.generate": [(data, "generate"), (verify, "generate")],
    "model.save_checkpoint": [(model, "save_checkpoint"),
                              (training, "save_checkpoint")],
    "model.load_checkpoint": [(model, "load_checkpoint"),
                              (training, "load_checkpoint")],
    **{f"autodiff.{op}": [(autodiff, op)] for op in AUTODIFF_OPS},
}

# the checks read checkpoints through the unwrapped loader
_load_checkpoint = model.load_checkpoint


class SetupDone(Exception):
    """Raised by a probe at the start of the first operation."""


class Ops:
    """Times each operation: one ``Trainer.step`` or one loss evaluation.

    Between operations, outside their time, it takes a host calibration
    sample every host.EVERY_S while spans are off.
    """

    def __init__(self, probe: bool, host: Host):
        self.probe = probe
        self.host = host
        self.first_start = None
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.losses: list[float] = []
        self.rec: Recorder | None = None

    def ref_ms(self, lo: int) -> list[float]:
        """Durations of operations lo.. in reference-host milliseconds."""
        return [1e3 * d * self.host.factor_at(e)
                for e, d in zip(self.ends[lo:], self.durations[lo:])]

    def timed(self, fn, loss_of):
        clock = time.perf_counter

        def op(*args, **kwargs):
            start = clock()
            if self.first_start is None:
                self.first_start = start
                if self.probe:
                    raise SetupDone
            if self.rec is not None:
                self.rec.op_id = len(self.durations)
            try:
                out = fn(*args, **kwargs)
            finally:
                if self.rec is not None:
                    self.rec.op_id = -1
            end = clock()
            self.ends.append(end)
            self.durations.append(end - start)
            self.losses.append(loss_of(out))
            if self.rec is None and self.host.due():
                self.host.calibrate()
            return out

        return op


def workload_config(name: str, seed: int) -> dict:
    """The workload's config; the seed sets the train, data and model seeds."""
    if name == "gradcheck":
        base, stage, wide = verify.gradcheck_config(), "align", {}
    elif name == "align-d32":
        base, stage, wide = config.default_config(), "align", {}
    else:
        base, stage = config.default_config(), "sft"
        wide = {"grid": {"rows": 8, "cols": 8}, "predictor": {"d": 64}}
    return config.merge(base, {"model_seed": seed, "data": {"seed": seed},
                               "train": {"seed": seed, "stage": stage},
                               **wide})


@dataclass
class Tally:
    """Operations attempted and failed, and the work the timed passes did;
    ``seconds`` as measured and ``ref_seconds`` on the reference host, both
    without the time spent calibrating."""
    attempted: int = 0
    failed: int = 0
    ops: int = 0
    samples: int = 0
    seconds: float = 0.0
    ref_seconds: float = 0.0
    passes: int = 0


class Workload:
    """Runs passes of one workload and checks each pass's outputs.

    A pass is one epoch of ``run_stage`` (training) or one
    ``run_gradcheck`` call.  Every pass starts from the same seeds, so every
    pass must produce the same outputs as the first.
    """

    def __init__(self, name: str, seed: int, run_dir: str, ops: Ops):
        self.cfg = workload_config(name, seed)
        self.run_dir = run_dir
        self.ops = ops
        self.training = name != "gradcheck"
        self.init_ckpt = (os.path.join(run_dir, "init_ckpt.bin")
                          if name == "sft-d64" else None)
        self.reference = None
        self.planned = None
        self.errors: list[str] = []
        self.clock = Patches()
        self.install_clock()

    def install_clock(self) -> None:
        """Time operations under the name run_stage or fd_check calls."""
        if self.training:
            self.clock.replace(training.Trainer, "step", self.ops.timed(
                training.Trainer.step, lambda report: report.total))
            return
        fd_check, ops = verify.fd_check, self.ops

        def timed_fd_check(f, params, eps=1e-5):
            return fd_check(ops.timed(f, lambda t: float(t.data)), params,
                            eps=eps)

        self.clock.replace(verify, "fd_check", timed_fd_check)

    def prepare(self) -> None:
        """Write the sft-d64 start checkpoint: one short align epoch."""
        if self.init_ckpt is None:
            return
        cfg = config.merge(self.cfg, {"train": {"stage": "align"},
                                      "data": {"n": 16}})
        bundle = config.bundle_from(cfg)
        dataset = data.generate(cfg["data"]["seed"], cfg["data"]["n"],
                                bundle.grid, bundle.vocab)
        training.run_stage(bundle, config.train_config_from(cfg), dataset,
                           ckpt_path=self.init_ckpt, config_header=cfg)

    def run_pass(self) -> tuple[float, int, list]:
        """One pass: (seconds in run_stage or run_gradcheck, samples, check
        failures as (operations failed, why)).  Building the bundle and the
        dataset is left out of the time."""
        if not self.training:
            start = time.perf_counter()
            errors = verify.run_gradcheck(self.cfg)
            seconds = time.perf_counter() - start
            return seconds, 0, self._check_gradcheck(errors)
        cfg = self.cfg
        bundle = config.bundle_from(cfg)
        dataset = data.generate(cfg["data"]["seed"], cfg["data"]["n"],
                                bundle.grid, bundle.vocab)
        log = os.path.join(self.run_dir, "log.jsonl")
        ckpt = os.path.join(self.run_dir, "ckpt.bin")
        start = time.perf_counter()
        training.run_stage(bundle, config.train_config_from(cfg), dataset,
                           log_path=log, ckpt_path=ckpt,
                           init_ckpt=self.init_ckpt, config_header=cfg)
        seconds = time.perf_counter() - start
        return seconds, len(dataset), self._check_training(bundle, log, ckpt)

    def _check_training(self, bundle, log_path: str, ckpt_path: str) -> list:
        with open(log_path, "rb") as fh:
            raw = fh.read()
        rows = [json.loads(line) for line in raw.splitlines()]
        w = self.cfg["loss"]["jepa_weight"]
        bad = []
        for r in rows:
            losses = [r["ntp"], r["total"]] + ([] if r["skipped"]
                                               else [r["jepa"]])
            if not all(math.isfinite(x) for x in losses):
                bad.append((1, f"step {r['step']}: non-finite loss"))
            elif not r["skipped"] and r["total"] != r["ntp"] + w * r["jepa"]:
                bad.append((1, f"step {r['step']}: total != ntp + w*jepa"))
        _, saved = _load_checkpoint(ckpt_path)
        live = bundle.named_parameters()
        if set(saved) != set(live) or any(
                saved[n].tobytes() != p.data.tobytes()
                for n, p in live.items()):
            bad.append((WHOLE_PASS, "checkpoint does not reload bit-equal"))
        if self.reference is None:
            self.reference = raw
        elif raw != self.reference:
            bad.append((WHOLE_PASS, "step log differs from the first pass"))
        return bad

    def _check_gradcheck(self, errors: dict) -> list:
        errors = {k: float(v) for k, v in errors.items()}
        bad = []
        if set(errors) != {"cosine", "smooth_l1"} or not all(
                e < GRADCHECK_TOL for e in errors.values()):
            bad.append((WHOLE_PASS, f"gradcheck errors {errors}"))
        if self.reference is None:
            self.reference = errors
        elif errors != self.reference:
            bad.append((WHOLE_PASS,
                        "gradcheck errors differ from the first pass"))
        return bad

    def guarded_pass(self, tally: Tally) -> bool:
        """Runs a pass and adds it to ``tally``; False when a numeric
        failure aborted it, which counts every operation not completed."""
        before = len(self.ops.durations)
        host = self.ops.host
        t0, spent = host.calibrate(), host.spent
        try:
            seconds, samples, bad = self.run_pass()
        except ArithmeticError as e:    # autodiff.NonFiniteError
            done = len(self.ops.durations) - before
            planned = max(self.planned or 0, done + 1)
            self.errors.append(f"numeric failure: {e}")
            tally.attempted += planned
            tally.failed += planned - done
            return False
        seconds -= host.spent - spent
        done = len(self.ops.durations) - before
        self.planned = self.planned or done
        self.errors += [why for _, why in bad]
        tally.attempted += done
        tally.failed += min(done, sum(n for n, _ in bad))
        tally.ops += done
        tally.samples += samples if self.training else done
        tally.seconds += seconds
        tally.ref_seconds += seconds * host.factor_over(t0, host.calibrate())
        tally.passes += 1
        return True


def measure(wl: Workload, seconds: float) -> tuple[dict, dict, Tally]:
    """A warm-up pass, then passes until ``seconds`` have passed and at
    least MIN_OPS operations ran.  Returns the end-to-end metrics on the
    reference host and as measured, and the tally."""
    warm, tally = Tally(), Tally()
    ok = wl.guarded_pass(warm)
    lo = len(wl.ops.durations)
    start = time.perf_counter()
    while ok and (time.perf_counter() - start < seconds
                  or tally.ops < MIN_OPS):
        ok = wl.guarded_pass(tally)
    tally.attempted += warm.attempted
    tally.failed += warm.failed
    if tally.ops < MIN_OPS:
        return {}, {}, tally

    def timings(seconds, ms):
        return {"samples_per_s": tally.samples / seconds,
                "evals_per_s": tally.ops / seconds,
                "op_ms.p50": statistics.median(ms),
                "op_ms.p90": statistics.quantiles(ms, n=10)[8]}

    ref = timings(tally.ref_seconds, wl.ops.ref_ms(lo))
    ref["loss.final"] = statistics.fmean(wl.ops.losses[-10:])
    raw = timings(tally.seconds, [1e3 * d for d in wl.ops.durations[lo:]])
    return ref, raw, tally


# traced passes ----------------------------------------------------------


def _count_grads(counts, trainer) -> None:
    for name, p in trainer.all_params.items():
        if p.grad is not None:
            counts["grad_total"] += p.grad.size
            if name in trainer.trainable:
                counts["grad_useful"] += p.grad.size


def install_spans(patches: Patches, rec: Recorder) -> None:
    counts = rec.counts
    trainers = []

    def after_step(args, report):
        _count_grads(counts, args[0])
        counts["steps"] += 1
        counts["skipped"] += report.skipped

    def after_mask(args, spec):
        counts["masks"] += 1
        counts["target_tokens"] += len(spec.target_union)

    def after_pack(args, seq):
        counts["seqs"] += 1
        counts["seq_tokens"] += len(seq.roles)

    def after_build(args, mask):
        counts["allowed"] += int(mask.allow.sum())
        counts["cells"] += mask.allow.size

    def after_ckpt(args, result):
        counts["ckpts"] += 1
        counts["ckpt_bytes"] += os.path.getsize(args[0])

    after = {"training.Trainer.step": after_step,
             "masking.sample_mask": after_mask,
             "model.pack": after_pack,
             "attention.build_mask": after_build,
             "model.save_checkpoint": after_ckpt,
             "model.load_checkpoint": after_ckpt,
             "autodiff.fd_check":
                 lambda args, result: _count_grads(counts, trainers[-1])}

    # gradcheck builds its Trainer inside run_gradcheck; keep the latest so
    # its frozen parameters' gradients can be counted too
    init = training.Trainer.__init__

    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        trainers[:] = [self]

    patches.replace(training.Trainer, "__init__", remember)
    for name, sites in SPANS.items():
        for owner, attr in sites:
            patches.replace(owner, attr, rec.span(name, lookup(owner, attr),
                                                  after.get(name)))


def _ratio(a, b) -> float:
    return a / b if b else 0.0


@contextlib.contextmanager
def tracing(wl: Workload, rec: Recorder):
    """Spans on for the duration; the operation clock stays outermost, so a
    Trainer.step span carries its operation id."""
    patches = Patches()
    wl.clock.undo()
    install_spans(patches, rec)
    wl.install_clock()
    wl.ops.rec = rec
    try:
        yield
    finally:
        wl.ops.rec = None
        wl.clock.undo()
        patches.undo()
        wl.install_clock()


def traced(wl: Workload, tally: Tally) -> dict:
    """TRACED_PASSES traced passes, each after an untraced one that gives
    the tracing overhead under the same host conditions.  Returns the
    per-layer metrics."""
    rec = Recorder()
    plain, passes = Tally(), []
    try:
        for _ in range(TRACED_PASSES):
            one = Tally()
            lo = len(rec)
            rec.counts.clear()
            ok = wl.guarded_pass(plain)
            if ok:
                with tracing(wl, rec):
                    ok = wl.guarded_pass(one)
            tally.attempted += one.attempted
            tally.failed += one.failed
            if not ok:
                break
            scale = one.ref_seconds / one.seconds
            totals = {n: (calls, self_s * scale, total_s * scale)
                      for n, (calls, self_s, total_s)
                      in rec.totals(lo, len(rec)).items()}
            passes.append((one, totals, dict(rec.counts),
                           statistics.fmean(wl.ops.losses[-10:])))
    finally:
        rec.save(os.path.join(wl.run_dir, "trace.npz"))
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    if len(passes) < TRACED_PASSES:
        return {}

    def exact(p):
        one, totals, counts, loss_final = p
        return (one.ops, {n: t[0] for n, t in totals.items()}, counts,
                loss_final)

    for p in passes:
        if exact(p) != exact(passes[0]):
            wl.errors.append("exact counts differ between traced passes")
            tally.failed += p[0].ops

    n_ops = sum(one.ops for one, *_ in passes)
    tot = {n: [sum(p[1].get(n, (0, 0.0, 0.0))[i] for p in passes)
               for i in range(3)] for n in SPANS}
    c = Counter()
    for p in passes:
        c.update(p[2])
    m = {}
    for name in SPANS:
        m[f"{name}.calls_per_op"] = tot[name][0] / n_ops
        m[f"{name}.self_ms_per_op"] = 1e3 * tot[name][1] / n_ops
    m["autodiff.ops_per_step"] = sum(
        tot[f"autodiff.{op}"][0] for op in AUTODIFF_OPS) / n_ops
    top = "training.Trainer.step" if wl.training else "verify.run_gradcheck"
    m["autodiff.backward_share"] = _ratio(
        tot["autodiff.Tensor.backward"][2], tot[top][2])
    m["training.grad_useful_share"] = _ratio(c["grad_useful"],
                                             c["grad_total"])
    m["attention.allowed_share"] = _ratio(c["allowed"], c["cells"])
    m["objective.skip_share"] = _ratio(c["skipped"], c["steps"])
    m["model.seq_len.mean"] = _ratio(c["seq_tokens"], c["seqs"])
    m["masking.target_tokens.mean"] = _ratio(c["target_tokens"], c["masks"])
    m["model.checkpoint_bytes"] = _ratio(c["ckpt_bytes"], c["ckpts"])
    traced_rate = n_ops / sum(one.ref_seconds for one, *_ in passes)
    m["trace.overhead_share"] = \
        1.0 - traced_rate * plain.ref_seconds / plain.ops
    m["host.calibration_ms"] = 1e3 * statistics.median(wl.ops.host.values)
    return m


def provenance() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("prepare", "probe", "run"),
                   required=True)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    ops = Ops(probe=args.role == "probe", host=Host())
    wl = Workload(args.workload, args.seed, args.run_dir, ops)
    result = {}
    if args.role == "prepare":
        wl.prepare()
    elif args.role == "probe":
        try:
            wl.run_pass()
        except SetupDone:
            pass
        setup = ops.first_start - T0
        kernel_seconds(reps=1)      # first calls of the kernel warm up
        result["setup_s"] = setup * REF_S / kernel_seconds(reps=5)
        result["raw_setup_s"] = setup
    else:
        metrics, raw, tally = measure(wl, args.seconds)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace and raw:
            metrics.update(traced(wl, tally))
        result.update(metrics=metrics, raw=raw, tally=asdict(tally),
                      errors=wl.errors, provenance=provenance())
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
