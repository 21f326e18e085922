"""Command-line entry point.

Subcommands: mask sample | mask attn, data gen, train align | train sft,
gradcheck, verify.  Exit codes: 0 success, 1 check failure, 2 usage error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys

import numpy as np

from . import autodiff, config, verify
from .attention import AttnVariant, build_mask, dump_mask
from .data import MAX_CAPTION_LEN, generate
from .masking import (InputError, MaskSpec, PatchGrid, ResampleExhausted,
                      SamplerConfig, sample_mask)
from .model import pack
from .training import check_extents, run_stage
from .verify import run_gradcheck

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _print_resolved(obj: dict) -> None:
    print("resolved config: " + json.dumps(obj, sort_keys=True),
          file=sys.stderr)


def _interval(text: str):
    lo, hi = (float(p) for p in text.split(","))
    return (lo, hi)


def cmd_mask_sample(args) -> int:
    cfg = config._build(SamplerConfig, {
        "k": args.k, "target_scale": args.target_scale,
        "context_scale": args.context_scale,
        "allow_overlap": not args.no_overlap})
    _print_resolved({"rows": args.rows, "cols": args.cols, "seed": args.seed,
                     **vars(cfg)})
    grid = config._build(PatchGrid, {"rows": args.rows, "cols": args.cols})
    check_extents(grid, cfg.k)
    spec = sample_mask(grid, cfg, random.Random(args.seed))
    text = json.dumps(spec.to_json_obj(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_mask_attn(args) -> int:
    if args.caption_len < 0:
        raise InputError("--caption-len must be >= 0")
    if args.caption_len > MAX_CAPTION_LEN:
        raise InputError(f"--caption-len must be at most {MAX_CAPTION_LEN}")
    spec = MaskSpec.from_json_obj(config.read_json(args.spec, "mask spec"))
    variant = AttnVariant(tgt_cross_block=args.tgt_cross_block,
                          text_sees_targets=not args.no_text_sees_targets)
    _print_resolved({"spec": args.spec, "caption_len": args.caption_len,
                     **vars(variant), "format": args.format})
    # the sequence holds only the listed patches, in raster order, so
    # relabelling them by rank lays it out on a grid of their count
    rank = {p: i for i, p in enumerate(sorted(spec.context
                                              | spec.target_union))}
    spec = MaskSpec.from_json_obj({
        "context": [rank[p] for p in spec.context],
        "targets": [[rank[p] for p in t] for t in spec.targets]})
    grid = PatchGrid(1, len(rank))
    check_extents(grid)
    layout = pack([spec], grid, [range(args.caption_len)])
    payload = dump_mask(build_mask(layout, variant), args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return EXIT_OK


def cmd_data_gen(args) -> int:
    _print_resolved({"seed": args.seed, "n": args.n, "rows": args.rows,
                     "cols": args.cols, "out": args.out})
    grid = config._build(PatchGrid, {"rows": args.rows, "cols": args.cols})
    samples = _dataset({"seed": args.seed, "n": args.n}, grid)
    os.makedirs(args.out, exist_ok=True)
    np.save(os.path.join(args.out, "pixels.npy"),
            np.stack([s.pixels for s in samples]).astype("<f4"))
    with open(os.path.join(args.out, "captions.jsonl"), "w") as fh:
        for i, s in enumerate(samples):
            fh.write(json.dumps({"index": i,
                                 "caption": [int(t) for t in s.caption],
                                 "scene": [list(x) for x in s.scene]}) + "\n")
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _dataset(data: dict, grid: PatchGrid, vocab=None) -> list:
    """The samples a ``data`` section (``seed``, ``n``) asks for on
    ``grid``, checked as outside input."""
    if data["seed"] < 0 or data["n"] < 1:
        raise InputError("data wants seed >= 0 and n >= 1")
    check_extents(grid, sizes={"data.n": data["n"]})
    return config._build(generate, {**data, "grid": grid, "vocab": vocab})


def _run_train(args, stage: str) -> int:
    overrides = {"train": {"stage": stage}}
    if args.seed is not None:
        overrides["train"]["seed"] = args.seed
    cfg = config.load_config(args.config, overrides)
    _print_resolved(cfg)
    bundle = config.bundle_from(cfg)
    train_cfg = config.train_config_from(cfg)
    dataset = _dataset(cfg["data"], bundle.grid, bundle.vocab)
    out = args.out or "."
    made = None     # the outermost directory made here, gone if the run fails
    head = os.path.abspath(out)
    while not os.path.exists(head):
        made, head = head, os.path.dirname(head)
    os.makedirs(out, exist_ok=True)
    try:
        reports = run_stage(
            bundle, train_cfg, dataset,
            log_path=os.path.join(out, f"{stage}_log.jsonl"),
            ckpt_path=os.path.join(out, f"{stage}_ckpt.bin"),
            init_ckpt=args.init if stage == "sft" else None,
            config_header=cfg)
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    last = reports[-1]
    print(f"{stage}: {len(reports)} steps, final ntp={last.ntp:.4f}"
          + (f" jepa={last.jepa:.4f}" if last.jepa is not None else ""))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = verify.gradcheck_config() if args.config is None \
        else config.load_config(args.config)
    _print_resolved(cfg)
    results = run_gradcheck(cfg)
    ok = True
    for dist, err in results.items():
        passed = err < verify.GRADCHECK_TOL
        ok = ok and passed
        print(f"gradcheck[{dist}]: max relative error {err:.3e} "
              f"{'PASS' if passed else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    _print_resolved({"checks": args.checks or "all"})
    results = verify.run_checks(args.checks)
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        print(f"verify[{name}]: {'PASS' if passed else 'FAIL'} ({detail})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="latentalign",
                                description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    mask = sub.add_parser("mask", help="mask sampling and inspection")
    msub = mask.add_subparsers(dest="subcommand", required=True)
    ms = msub.add_parser("sample", help="sample a context/target mask")
    ms.add_argument("--rows", type=int, required=True)
    ms.add_argument("--cols", type=int, required=True)
    ms.add_argument("--seed", type=int, default=0)
    ms.add_argument("--k", type=int, default=SamplerConfig.k)
    ms.add_argument("--target-scale", type=_interval,
                    default=SamplerConfig.target_scale)
    ms.add_argument("--context-scale", type=_interval,
                    default=SamplerConfig.context_scale)
    ms.add_argument("--no-overlap", action="store_true")
    ms.add_argument("--out")
    ms.set_defaults(fn=cmd_mask_sample)
    ma = msub.add_parser("attn", help="build the attention mask for a spec")
    ma.add_argument("--spec", required=True)
    ma.add_argument("--caption-len", type=int, required=True)
    ma.add_argument("--tgt-cross-block", action="store_true")
    ma.add_argument("--no-text-sees-targets", action="store_true")
    ma.add_argument("--format", choices=("text", "pgm"), default="text")
    ma.add_argument("--out")
    ma.set_defaults(fn=cmd_mask_attn)

    dat = sub.add_parser("data", help="synthetic data generation")
    dsub = dat.add_subparsers(dest="subcommand", required=True)
    dg = dsub.add_parser("gen", help="generate image-caption samples")
    dg.add_argument("--seed", type=int, default=0)
    dg.add_argument("--n", type=int, required=True)
    dg.add_argument("--rows", type=int, default=PatchGrid.rows)
    dg.add_argument("--cols", type=int, default=PatchGrid.cols)
    dg.add_argument("--out", required=True)
    dg.set_defaults(fn=cmd_data_gen)

    tr = sub.add_parser("train", help="run a training stage")
    tsub = tr.add_subparsers(dest="subcommand", required=True)
    for stage in ("align", "sft"):
        tp = tsub.add_parser(stage)
        tp.add_argument("--config")
        tp.add_argument("--seed", type=int)
        tp.add_argument("--out")
        if stage == "sft":
            tp.add_argument("--init", required=True,
                            help="alignment checkpoint to resume from")
        tp.set_defaults(fn=lambda a, s=stage: _run_train(a, s))

    gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    gc.add_argument("--config")
    gc.set_defaults(fn=cmd_gradcheck)

    vf = sub.add_parser("verify", help="run the invariant suite")
    vf.add_argument("--checks", nargs="*", choices=sorted(verify.CHECKS))
    vf.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except autodiff.NonFiniteError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, ResampleExhausted, OSError) as e:
        print(f"bad input: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
