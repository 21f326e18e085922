"""CLI surface: subcommands, artifacts, exit codes, negative controls."""

import importlib
import itertools
import json
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from latentalign import cli, config, training
from latentalign.attention import (CONTEXT, TARGET, TEXT, AttnVariant,
                                   TokenRole, dump_mask, oracle_mask,
                                   roles_for_mask)
from latentalign.data import MAX_CAPTION_LEN, generate
from latentalign.masking import MaskSpec, PatchGrid
from latentalign.model import load_checkpoint
from latentalign.cli import (EXIT_CHECK_FAILED, EXIT_NUMERIC, EXIT_OK,
                             EXIT_USAGE, main)


TINY_CONFIG = {
    "grid": {"rows": 3, "cols": 3},
    "predictor": {"d": 16, "L": 1, "H": 2, "V": 16},
    "ctx_dim": 8, "tgt_dim": 8,
    "sampler": {"k": 2},
    "data": {"n": 8},
    "train": {"batch_size": 4},
}


def _run(argv):
    return subprocess.run([sys.executable, "-m", "latentalign.cli", *argv],
                          capture_output=True, text=True)


def test_mask_sample_writes_valid_spec(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code = main(["mask", "sample", "--rows", "6", "--cols", "6",
                 "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc["context"]).isdisjoint(set().union(*map(set, doc["targets"])))
    assert len(doc["targets"]) == 4


def test_mask_sample_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["mask", "sample", "--rows", "6", "--cols", "6",
                     "--seed", "7", "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_mask_attn_text_and_pgm(tmp_path):
    """Both formats print the oracle's mask of the sampled spec, under
    every setting of the variant flags, with and without a caption."""
    spec = tmp_path / "spec.json"
    assert main(["mask", "sample", "--rows", "4", "--cols", "4",
                 "--out", str(spec)]) == EXIT_OK
    mask = MaskSpec.from_json_obj(json.loads(spec.read_text()))
    for caption_len in (0, 3):
        roles = roles_for_mask(mask, PatchGrid(4, 4), caption_len)
        for cross, blind in itertools.product((False, True), repeat=2):
            want = oracle_mask(roles, AttnVariant(cross, not blind))
            flags = (["--tgt-cross-block"] * cross
                     + ["--no-text-sees-targets"] * blind)
            for fmt in ("text", "pgm"):
                out = tmp_path / f"m.{fmt}"
                assert main(["mask", "attn", "--spec", str(spec),
                             "--caption-len", str(caption_len),
                             "--format", fmt, "--out", str(out),
                             *flags]) == EXIT_OK
                assert out.read_bytes() == dump_mask(want, fmt)


def test_mask_attn_sizes_nothing_by_patch_index(tmp_path):
    """Patch indices up to 10**13 allocate nothing of that size: the mask
    is the oracle's for the patches the spec lists, in raster order."""
    spec, out = tmp_path / "spec.json", tmp_path / "m.txt"
    huge = 10 ** 13
    for doc, visual in [
            ({"context": [huge], "targets": []}, [TokenRole(CONTEXT)]),
            ({"context": [0, huge], "targets": [[5], [5, huge - 1]]},
             [TokenRole(CONTEXT),
              TokenRole(TARGET, frozenset({0, 1})),
              TokenRole(TARGET, frozenset({1})),
              TokenRole(CONTEXT)])]:
        spec.write_text(json.dumps(doc))
        assert main(["mask", "attn", "--spec", str(spec), "--caption-len",
                     "2", "--out", str(out)]) == EXIT_OK
        text = [TokenRole(TEXT, text_position=t) for t in range(2)]
        assert out.read_bytes() == dump_mask(oracle_mask(visual + text))


def test_data_gen_writes_artifacts(tmp_path):
    out = tmp_path / "data"
    assert main(["data", "gen", "--n", "4", "--out", str(out)]) == EXIT_OK
    pixels = np.load(out / "pixels.npy")
    want = np.stack([s.pixels for s in generate(0, 4, PatchGrid())])
    assert pixels.dtype == np.dtype("<f4") and pixels.shape == (4, 16, 48)
    assert pixels.tobytes() == want.astype("<f4").tobytes()
    lines = (out / "captions.jsonl").read_text().strip().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert {"index", "caption", "scene"} <= set(first)


def test_train_align_then_sft(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "run"
    assert main(["train", "align", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    assert (out / "align_ckpt.bin").exists()
    assert (out / "align_log.jsonl").exists()
    assert main(["train", "sft", "--config", str(cfg), "--out", str(out),
                 "--init", str(out / "align_ckpt.bin")]) == EXIT_OK
    assert (out / "sft_ckpt.bin").exists()


def test_sft_init_compares_the_resolved_predictor(tmp_path):
    """A null tap layer in the checkpoint's config equals its default, so
    an sft config that spells the default out loads the checkpoint."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "run"
    assert main(["train", "align", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    header, _ = load_checkpoint(out / "align_ckpt.bin")
    assert header["config"]["predictor"]["tap_layer"] is None
    spelled = {**TINY_CONFIG["predictor"], "tap_layer": 1}
    cfg.write_text(json.dumps({**TINY_CONFIG, "predictor": spelled}))
    assert main(["train", "sft", "--config", str(cfg), "--out", str(out),
                 "--init", str(out / "align_ckpt.bin")]) == EXIT_OK


def test_gradcheck_passes_by_default(capsys):
    assert main(["gradcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_gradcheck_negative_control_fails(capsys):
    assert main(["gradcheck", "--negative-control"]) == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def test_negative_control_leaves_no_state_behind(capsys):
    assert main(["gradcheck", "--negative-control"]) == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out
    assert main(["gradcheck"]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS") == 2


def test_verify_subset(capsys):
    assert main(["verify", "--checks", "checkpoint"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("verify[checkpoint]: PASS")


def test_verify_negative_control_fails(capsys):
    code = main(["verify", "--checks", "mask", "--negative-control"])
    assert code == EXIT_CHECK_FAILED
    assert "verify[mask]: FAIL" in capsys.readouterr().out


def test_usage_error_exit_code():
    proc = _run(["mask", "sample", "--rows", "4"])   # missing --cols
    assert proc.returncode == EXIT_USAGE
    proc = _run(["no-such-command"])
    assert proc.returncode == EXIT_USAGE


def _assert_input_error(capsys, argv):
    """``main(argv)`` in-process exits 2 with no traceback, and its stderr
    ends in its one ``bad input:`` line, which this returns."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    lines = err.splitlines()
    assert lines[-1].startswith("bad input: ")
    assert sum(line.startswith("bad input:") for line in lines) == 1
    return lines[-1]


def test_impossible_sampler_settings_exit_code(capsys):
    _assert_input_error(capsys, ["mask", "sample", "--rows", "2",
                                 "--cols", "2", "--no-overlap",
                                 "--target-scale", "0.5,0.5"])


def test_truncated_mask_spec_exit_code(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"context": [0, 1], "targ')
    _assert_input_error(capsys, ["mask", "attn", "--spec", str(spec),
                                 "--caption-len", "3"])


def test_truncated_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"train": {"epochs": ')
    _assert_input_error(capsys, ["train", "align", "--config", str(cfg),
                                 "--out", str(tmp_path / "run")])


@pytest.mark.parametrize("text", [
    pytest.param(None, id="missing-file"),
    pytest.param("[1, 2]", id="json-list"),
    pytest.param('{"predictor": 5}', id="section-not-object"),
    pytest.param('{"patch_pixels": 48}', id="removed-key"),
    pytest.param('{"sampler": {"seed": 1}}', id="removed-section-key"),
    pytest.param('{"predictor": {"H": 3}}', id="rejected-value"),
    pytest.param('{"train": {"batch_size": 0}}', id="rejected-batch-size"),
    pytest.param('{"data": {"n": 0}}', id="data-n-zero"),
    pytest.param('{"data": {"n": "x"}}', id="data-n-not-int"),
    pytest.param('{"data": {"seed": -1}}', id="data-seed-negative"),
    pytest.param('{"grid": {"rows": 1}}', id="grid-too-small-for-scenes"),
    pytest.param('{"predictor": {"max_seq": 256}}', id="removed-max-seq"),
    pytest.param('{"tgt_nonlinear": false}', id="removed-tgt-nonlinear"),
    pytest.param('{"ctx_seed": 11}', id="removed-ctx-seed"),
    pytest.param('{"tgt_seed": 22}', id="removed-tgt-seed"),
    pytest.param('{"loss": {"jepa_weight": "x"}}', id="jepa-weight-not-real"),
    pytest.param("[" * 100000, id="nested-too-deep"),
    *(pytest.param(json.dumps({**doc, "data": {"n": 8}}), id=name)
      for name, doc in {
          "epochs-float": {"train": {"epochs": 1.5}},
          "batch-size-float": {"train": {"batch_size": 2.5}},
          "sampler-k-float": {"sampler": {"k": 2.5}},
          "heads-zero": {"predictor": {"H": 0}},
          "width-zero": {"predictor": {"d": 0}},
          "heads-negative": {"predictor": {"H": -4}},
          "tap-layer-float": {"predictor": {"tap_layer": 1.5}},
          "jepa-string": {"jepa": "yes"},
          "allow-overlap-string": {"sampler": {"allow_overlap": "no"}},
          "tgt-cross-block-string": {"attn": {"tgt_cross_block": "no"}},
          "lam-bool": {"loss": {"lam": True}},
          "tap-layer-bool": {"predictor": {"tap_layer": True}},
          "seed-float": {"train": {"seed": 1.5}},
          "removed-weight-decay": {"train": {"weight_decay": 0.0}},
          "lr-nan": {"train": {"lr": float("nan")}},
          "lr-infinity": {"train": {"lr": float("inf")}},
          "lr-bool": {"train": {"lr": True}},
          "removed-weight-decay-nan": {"train": {"weight_decay":
                                                 float("nan")}},
          "tgt-dim-zero": {"tgt_dim": 0},
          "proj-kind-unknown": {"proj_kind": "conv"},
          "width-not-divisible-by-4": {"predictor": {"d": 6, "H": 2}},
          "warmup-ratio-one": {"train": {"warmup_ratio": 1.0}},
      }.items()),
])
def test_bad_config_exit_code(tmp_path, text, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    _assert_input_error(capsys, ["train", "align", "--config", str(cfg),
                                 "--out", str(tmp_path / "run")])


@pytest.mark.parametrize("rows, cols", [(2, 124), (3000, 3000)])
def test_sequence_over_256_rows_exit_code(tmp_path, rows, cols, capsys):
    """A 13x19 grid's longest sequence, 247 patches and a 9-token caption,
    fills the 256 rows a sequence may hold and builds; one more row exits
    2 with the guard's line, before any array of the grid's size."""
    cfg = config.load_config(None, {"grid": {"rows": 13, "cols": 19}})
    assert config.bundle_from(cfg).grid.n + MAX_CAPTION_LEN == 256
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"rows": rows, "cols": cols}}))
    assert main(["train", "align", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == EXIT_USAGE
    assert _bad_input_lines(capsys.readouterr().err) == [
        f"bad input: ModelBundle rejected: the longest sequence, "
        f"{rows * cols} patches and 9 tokens, exceeds 256"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["mask", "sample", "--rows", "100000", "--cols", "100000"],
                 "the longest sequence, 10000000000 patches and 9 tokens, "
                 "exceeds 256", id="mask-sample-grid"),
    pytest.param(["data", "gen", "--n", "3", "--rows", "100000", "--cols",
                  "100000", "--out", "{out}"],
                 "the longest sequence, 10000000000 patches and 9 tokens, "
                 "exceeds 256", id="data-gen-grid"),
    pytest.param(["mask", "sample", "--rows", "4", "--cols", "4", "--k",
                  "1000000000"],
                 "k=1000000000 target blocks exceed the grid's 16 patches",
                 id="mask-sample-k"),
    pytest.param(["data", "gen", "--n", "10001", "--out", "{out}"],
                 "data.n=10001 exceeds its limit of 10000", id="data-gen-n"),
    pytest.param(["mask", "attn", "--spec", "{spec}", "--caption-len", "3",
                  "--out", "{out}"],
                 "the longest sequence, 248 patches and 9 tokens, "
                 "exceeds 256", id="mask-attn-spec"),
    pytest.param(["train", "align", "--config", "{cfg}", "--out", "{out}"],
                 "ModelBundle rejected: k=17 target blocks exceed the "
                 "grid's 16 patches", id="train-k"),
])
def test_extents_over_their_limits_exit_code(tmp_path, monkeypatch, capsys,
                                             argv, message):
    """A grid or mask spec whose longest sequence exceeds 256 rows, more
    target blocks than the grid has patches, or more samples than
    ``data.n``'s limit exits 2 with one line before any grid-sized array
    is built, any block is sampled, any sample generated or any spec
    packed."""
    def not_reached(*args, **kwargs):
        raise AssertionError("sampled, generated or packed")

    for name in ("sample_mask", "generate", "pack"):
        monkeypatch.setattr(cli, name, not_reached)
    monkeypatch.setattr(training, "sample_mask", not_reached)
    cfg, spec = tmp_path / "cfg.json", tmp_path / "spec.json"
    cfg.write_text(json.dumps({"sampler": {"k": 17}}))
    spec.write_text(json.dumps({"context": list(range(248)), "targets": []}))
    paths = {"cfg": cfg, "spec": spec, "out": tmp_path / "out"}
    assert main([a.format(**paths) for a in argv]) == EXIT_USAGE
    assert _bad_input_lines(capsys.readouterr().err) == [
        f"bad input: {message}"]
    assert not paths["out"].exists()


@pytest.mark.parametrize("doc, message, builder", [
    pytest.param({"ctx_dim": 100000000}, "ModelBundle rejected: "
                 "ctx_dim=100000000 exceeds its limit of 512",
                 "StubEncoder", id="ctx-dim"),
    pytest.param({"tgt_dim": 513}, "ModelBundle rejected: tgt_dim=513 "
                 "exceeds its limit of 512", "StubEncoder", id="tgt-dim"),
    pytest.param({"predictor": {"d": 1000000, "H": 4}}, "ModelBundle "
                 "rejected: predictor.d=1000000 exceeds its limit of 512",
                 "Predictor", id="predictor-d"),
    pytest.param({"predictor": {"L": 33}}, "ModelBundle rejected: "
                 "predictor.L=33 exceeds its limit of 32", "Predictor",
                 id="predictor-L"),
    pytest.param({"predictor": {"V": 1000000000}}, "ModelBundle rejected: "
                 "predictor.V=1000000000 exceeds its limit of 65536",
                 "Predictor", id="predictor-V"),
    pytest.param({"train": {"batch_size": 100000}, "data": {"n": 100000}},
                 "data.n=100000 exceeds its limit of 10000", "generate",
                 id="batch-and-data-n"),
    pytest.param({"train": {"batch_size": 257}},
                 "train.batch_size=257 exceeds its limit of 256",
                 "build_mask", id="batch-size"),
])
def test_sizes_over_their_limits_exit_code(tmp_path, monkeypatch, capsys,
                                           doc, message, builder):
    """A width, depth, vocabulary, batch or sample count above its limit
    exits 2 with one line before the first builder of its size runs."""
    def not_reached(*args, **kwargs):
        raise AssertionError(f"{builder} ran")

    monkeypatch.setattr(cli if builder == "generate" else training, builder,
                        not_reached)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["train", "align", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_USAGE
    assert _bad_input_lines(capsys.readouterr().err) == [
        f"bad input: {message}"]
    assert not out.exists()


def test_sizes_at_their_limits_pass_the_check():
    """Each limit itself is a valid size."""
    grid = PatchGrid(4, 4)
    training.check_extents(grid, sizes=dict(training.SIZE_LIMITS))


@pytest.mark.parametrize("argv", [
    pytest.param(["train", "align", "--out", "{file}"], id="train-align"),
    pytest.param(["data", "gen", "--n", "2", "--out", "{file}"],
                 id="data-gen"),
    pytest.param(["mask", "sample", "--rows", "4", "--cols", "4",
                  "--out", "{missing}/x.json"], id="mask-sample"),
    pytest.param(["mask", "attn", "--spec", "{spec}", "--caption-len", "3",
                  "--out", "{missing}/x.txt"], id="mask-attn"),
])
def test_unwritable_out_exit_code(tmp_path, argv, capsys):
    """An ``--out`` the command cannot write, an existing file where a
    directory goes or a file in a missing directory, exits 2 with one line,
    not a traceback; training writes no step log."""
    (tmp_path / "file").write_text("")
    (tmp_path / "spec.json").write_text(
        json.dumps({"context": [0, 1], "targets": [[2]]}))
    paths = {"file": tmp_path / "file", "missing": tmp_path / "missing",
             "spec": tmp_path / "spec.json"}
    _assert_input_error(capsys, [a.format(**paths) for a in argv])
    assert not list(tmp_path.rglob("*_log.jsonl*"))


def test_oversized_gradcheck_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"predictor": {"d": 32}}')
    _assert_input_error(capsys, ["gradcheck", "--config", str(cfg)])


@pytest.mark.parametrize("doc, message", [
    pytest.param({"jepa": False}, "gradcheck checks the latent objective, "
                 "so it wants jepa: true", id="jepa-false"),
    pytest.param({"grid": {"rows": 1, "cols": 4}}, "generate rejected: "
                 "grid too small for quadrant scenes", id="grid-below-2x2"),
])
def test_gradcheck_without_latent_objective_exit_code(tmp_path, capsys, doc,
                                                      message):
    """A tiny config with ``jepa: false`` has no latent loss to check, and
    one with a grid below 2x2 has no sample to check it on."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**doc, "predictor": {
        "d": 16, "L": 2, "H": 2, "V": 16, "tap_layer": 1}}))
    assert main(["gradcheck", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines()
            if line.startswith("bad input:")] == [f"bad input: {message}"]


@pytest.mark.parametrize("argv", [
    pytest.param(["mask", "sample", "--rows", "0", "--cols", "4"],
                 id="mask-rows-zero"),
    pytest.param(["mask", "sample", "--rows", "4", "--cols", "4",
                  "--k", "0"], id="mask-k-zero"),
    pytest.param(["mask", "sample", "--rows", "4", "--cols", "4",
                  "--target-scale", "0.5,0.1"], id="mask-target-scale-empty"),
    pytest.param(["mask", "sample", "--rows", "4", "--cols", "4",
                  "--context-scale", "0,1"], id="mask-context-scale-zero"),
    pytest.param(["data", "gen", "--n", "0"], id="data-n-zero"),
    pytest.param(["data", "gen", "--n", "2", "--rows", "1"],
                 id="data-rows-one"),
    pytest.param(["data", "gen", "--n", "2", "--seed", "-1"],
                 id="data-seed-negative"),
])
def test_bad_flag_value_exit_code(tmp_path, argv, capsys):
    if argv[0] == "data":
        argv = [*argv, "--out", str(tmp_path / "data")]
    _assert_input_error(capsys, argv)


def _bad_input_lines(err):
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("bad input:")]


@pytest.mark.parametrize("caption_len", ["-1", "10", "10000000000000"])
def test_negative_caption_len_exit_code(tmp_path, capsys, caption_len):
    """A caption length below 0 or above the longest caption any run makes
    (9 tokens) exits 2 with one line, before any mask is sized."""
    message = ("--caption-len must be >= 0" if caption_len == "-1"
               else "--caption-len must be at most 9")
    spec = tmp_path / "spec.json"
    assert main(["mask", "sample", "--rows", "4", "--cols", "4",
                 "--out", str(spec)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "m.txt"
    assert main(["mask", "attn", "--spec", str(spec), "--caption-len",
                 caption_len, "--out", str(out)]) == EXIT_USAGE
    assert _bad_input_lines(capsys.readouterr().err) == \
        [f"bad input: {message}"]
    assert not out.exists()


def test_infinite_sampler_interval_exit_code(capsys):
    """An infinite target scale is no interval to draw from: exit 2 with
    one line, not a traceback from converting NaN to int."""
    assert main(["mask", "sample", "--rows", "4", "--cols", "4",
                 "--target-scale", "inf,inf"]) == EXIT_USAGE
    assert _bad_input_lines(capsys.readouterr().err) == [
        "bad input: SamplerConfig rejected: target_scale must be a "
        "nonempty positive finite interval"]


def test_overflowing_target_scale_exit_code(capsys):
    """A finite target scale of 1e308 overflows the block area; the block
    then covers the whole grid, so every draw leaves no context: exit 2
    with one line, not a traceback from converting inf to int."""
    assert main(["mask", "sample", "--rows", "4", "--cols", "4",
                 "--target-scale", "1e308,1e308"]) == EXIT_USAGE
    assert _bad_input_lines(capsys.readouterr().err) == [
        "bad input: context empty after target removal"]


def test_overflowing_target_aspect_trains(tmp_path, capsys):
    """A target aspect of 1e-320 overflows the block width; the block then
    spans the grid's columns and the run trains: exit 0, no traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampler": {"target_aspect": [1e-320, 1e-320]},
                               "data": {"n": 8}}))
    assert main(["train", "align", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "align_ckpt.bin").exists()


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf", "-inf"])
def test_bad_gradcheck_tolerance_exit_code(tolerance, monkeypatch, capsys):
    """A tolerance no error can be checked against is rejected before the
    check spends its run."""
    def not_reached(*args, **kwargs):
        raise AssertionError("run_gradcheck ran")

    monkeypatch.setattr(cli, "run_gradcheck", not_reached)
    assert main(["gradcheck", f"--tolerance={tolerance}"]) == EXIT_USAGE
    assert _bad_input_lines(capsys.readouterr().err) == \
        ["bad input: --tolerance must be finite and above 0"]


@pytest.mark.parametrize("doc", [
    pytest.param({"targets": [[0]]}, id="no-context"),
    pytest.param({"context": [0, 1]}, id="no-targets"),
    pytest.param({"context": [0], "targets": 3}, id="targets-not-a-list"),
    pytest.param([0, 1], id="not-an-object"),
    pytest.param({"context": [0, 1], "targets": [[1]]},
                 id="context-overlaps-targets"),
    pytest.param("[" * 100000, id="nested-too-deep"),
])
def test_malformed_mask_spec_exit_code(tmp_path, doc, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    _assert_input_error(capsys, ["mask", "attn", "--spec", str(spec),
                                 "--caption-len", "3"])


@pytest.mark.parametrize("init", ["missing-file", "other-config",
                                  "other-tensors", "other-heads",
                                  "header-not-object", "params-not-pairs",
                                  "no-config", "predictor-not-object",
                                  "trailing-bytes", "huge-declared-shape",
                                  "nested-too-deep"])
def test_bad_init_checkpoint_exit_code(tmp_path, init, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "run"
    headers = {"header-not-object": [1],
               "params-not-pairs": {"format": "latentalign-ckpt",
                                    "params": 5},
               "no-config": {"format": "latentalign-ckpt", "params": []},
               "predictor-not-object": {"format": "latentalign-ckpt",
                                        "config": {"predictor": [16]},
                                        "params": []},
               # 8e12 bytes declared, 64 present
               "huge-declared-shape": {
                   "format": "latentalign-ckpt", "version": 1, "step": 0,
                   "config": {},
                   "params": [["predictor.tok_emb", [1000000, 1000000]]]},
               "nested-too-deep": "[" * 100000}
    if init in headers:
        out.mkdir()
        header = headers[init]
        (out / "align_ckpt.bin").write_bytes(
            (header if isinstance(header, str) else json.dumps(header))
            .encode() + b"\n")
    if init == "other-tensors":
        cfg.write_text(json.dumps({**TINY_CONFIG, "proj_kind": "linear"}))
    if init in ("other-config", "other-tensors", "other-heads",
                "trailing-bytes"):
        assert main(["train", "align", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
    if init in ("other-config", "other-heads"):
        # the head count changes no tensor shape; only the header tells
        other = {**TINY_CONFIG["predictor"],
                 **({"d": 8} if init == "other-config" else {"H": 4})}
        cfg.write_text(json.dumps({**TINY_CONFIG, "predictor": other}))
    if init == "other-tensors":
        cfg.write_text(json.dumps(TINY_CONFIG))
    if init == "trailing-bytes":
        with open(out / "align_ckpt.bin", "ab") as fh:
            fh.write(b"\0" * 4)
    if init == "huge-declared-shape":
        with open(out / "align_ckpt.bin", "ab") as fh:
            fh.write(b"\0" * 64)
    def tree(root):
        return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    # an --out that exists stays as it was; one the run made is gone
    before = tree(out) if out.exists() else None
    for dest in (out, tmp_path / "new" / "sft"):
        line = _assert_input_error(
            capsys, ["train", "sft", "--config", str(cfg), "--init",
                     str(out / "align_ckpt.bin"), "--out", str(dest)])
        if init == "other-tensors":
            assert line.endswith(
                ": checkpoint/config mismatch on: ['proj.b', 'proj.b1', "
                "'proj.b2', 'proj.w', 'proj.w1', 'proj.w2', 'proj_tgt.b', "
                "'proj_tgt.b1', 'proj_tgt.b2', 'proj_tgt.w', 'proj_tgt.w1', "
                "'proj_tgt.w2']")
        if init == "other-heads":
            assert line.endswith(": predictor.H is 2 in the checkpoint "
                                 "and 4 in the config")
        if init == "no-config":
            assert line.endswith(": checkpoint header has no config object")
        if init == "predictor-not-object":
            assert ": checkpoint predictor rejected: " in line
    assert (tree(out) if out.exists() else None) == before
    assert not (tmp_path / "new").exists()


def test_near_zero_norm_step_exit_code(tmp_path, monkeypatch, capsys):
    """A real training step whose predicted target rows are all zero fails
    the cosine distance's norm check: exit 3 with one line, no traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "loss": {"lam": 0.0}}))
    project_tap = training.project_tap
    monkeypatch.setattr(training, "project_tap",
                        lambda *args: 0.0 * project_tap(*args))
    assert main(["train", "align", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines()
            if line.startswith("numeric failure:")] == \
        ["numeric failure: step 0: near-zero norm in cosine distance"]


@pytest.mark.parametrize("earlier_log", [None, b'{"step": 0}\n'],
                         ids=["fresh-dir", "earlier-log"])
def test_nonfinite_gradient_exit_code(tmp_path, capsys, earlier_log):
    """A latent loss weighted by 1e308 overflows the gradients in backward;
    the step's gradient check stops step 0 before the optimizer runs: exit
    3 with one line naming the parameter, no numpy warning, no traceback,
    no checkpoint, and no step log written or overwritten."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss": {"lam": 0.0, "jepa_weight": 1e308},
                               "data": {"n": 8}}))
    out = tmp_path / "run"
    out.mkdir()
    log = out / "align_log.jsonl"
    if earlier_log is not None:
        log.write_bytes(earlier_log)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "align", "--config", str(cfg),
                     "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("resolved config:")]
    assert err == ["numeric failure: step 0: non-finite gradient of proj.w1"]
    # no checkpoint and no temp file; the earlier log, if any, intact
    assert [p.name for p in out.iterdir()] == \
        ([] if earlier_log is None else ["align_log.jsonl"])
    if earlier_log is not None:
        assert log.read_bytes() == earlier_log


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    """Every line of the README's CLI block, run in order in an empty
    directory, exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines()]
    assert commands and all(c[0] == "latentalign" for c in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv


def test_resolved_config_echoed_to_stderr():
    proc = _run(["verify", "--checks", "checkpoint"])
    assert proc.returncode == EXIT_OK
    assert "resolved config:" in proc.stderr


def _declared_scripts():
    try:
        import tomllib
    except ModuleNotFoundError:                  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_console_script_entry_point():
    """The console script declared in pyproject.toml starts the CLI.

    The declared target is run the way pip's generated wrapper runs it, so
    the check holds in an uninstalled checkout; an installed `latentalign`
    found on PATH is run as well.
    """
    scripts = _declared_scripts()
    assert "latentalign" in scripts
    module, _, attr = scripts["latentalign"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", wrapper, "--help"]]
    installed = shutil.which("latentalign")
    if installed:
        commands.append([installed, "--help"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "mask" in proc.stdout and "train" in proc.stdout


def test_library_imports_no_scipy():
    """The package runs on numpy alone: importing the CLI, which imports
    every library module, loads no scipy module.  scipy.special alone
    costs a process about 0.27 s and 24 MB."""
    probe = ("import sys, latentalign.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
