"""CLI surface: subcommands, artifacts, exit codes, negative controls."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from latentalign import training
from latentalign.cli import (EXIT_CHECK_FAILED, EXIT_NUMERIC, EXIT_OK,
                             EXIT_USAGE, main)


TINY_CONFIG = {
    "grid": {"rows": 3, "cols": 3},
    "predictor": {"d": 16, "L": 1, "H": 2, "V": 16, "max_seq": 64},
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
    spec = tmp_path / "spec.json"
    assert main(["mask", "sample", "--rows", "4", "--cols", "4",
                 "--out", str(spec)]) == EXIT_OK
    txt = tmp_path / "m.txt"
    assert main(["mask", "attn", "--spec", str(spec), "--caption-len", "3",
                 "--out", str(txt)]) == EXIT_OK
    body = txt.read_text().strip().splitlines()
    assert len(body) == len(body[0])           # square matrix
    assert set("".join(body)) <= {"1", "."}
    pgm = tmp_path / "m.pgm"
    assert main(["mask", "attn", "--spec", str(spec), "--caption-len", "3",
                 "--format", "pgm", "--out", str(pgm)]) == EXIT_OK
    assert pgm.read_bytes().startswith(b"P5\n")


def test_data_gen_writes_artifacts(tmp_path):
    out = tmp_path / "data"
    assert main(["data", "gen", "--n", "4", "--out", str(out)]) == EXIT_OK
    assert (out / "pixels.bin").exists()
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
    assert main(["verify", "--checks", "checkpoint", "embedfile"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verify[checkpoint]: PASS" in out
    assert "verify[embedfile]: PASS" in out


def test_verify_negative_control_fails(capsys):
    code = main(["verify", "--checks", "mask", "--negative-control"])
    assert code == EXIT_CHECK_FAILED
    assert "verify[mask]: FAIL" in capsys.readouterr().out


def test_usage_error_exit_code():
    proc = _run(["mask", "sample", "--rows", "4"])   # missing --cols
    assert proc.returncode == EXIT_USAGE
    proc = _run(["no-such-command"])
    assert proc.returncode == EXIT_USAGE


def _assert_input_error(proc):
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("bad input: ")


def test_impossible_sampler_settings_exit_code():
    _assert_input_error(_run(["mask", "sample", "--rows", "2", "--cols", "2",
                              "--no-overlap", "--target-scale", "0.5,0.5"]))


def test_truncated_mask_spec_exit_code(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"context": [0, 1], "targ')
    _assert_input_error(_run(["mask", "attn", "--spec", str(spec),
                              "--caption-len", "3"]))


def test_truncated_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"train": {"epochs": ')
    _assert_input_error(_run(["train", "align", "--config", str(cfg),
                              "--out", str(tmp_path / "run")]))


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
])
def test_bad_config_exit_code(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    _assert_input_error(_run(["train", "align", "--config", str(cfg),
                              "--out", str(tmp_path / "run")]))


def test_oversized_gradcheck_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"predictor": {"d": 32}}')
    _assert_input_error(_run(["gradcheck", "--config", str(cfg)]))


@pytest.mark.parametrize("doc", [
    pytest.param({"targets": [[0]]}, id="no-context"),
    pytest.param({"context": [0, 1]}, id="no-targets"),
    pytest.param({"context": [0], "targets": 3}, id="targets-not-a-list"),
    pytest.param([0, 1], id="not-an-object"),
    pytest.param({"context": [0, 1], "targets": [[1]]},
                 id="context-overlaps-targets"),
])
def test_malformed_mask_spec_exit_code(tmp_path, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    _assert_input_error(_run(["mask", "attn", "--spec", str(spec),
                              "--caption-len", "3"]))


@pytest.mark.parametrize("init", ["missing-file", "other-config",
                                  "header-not-object", "params-not-pairs",
                                  "trailing-bytes"])
def test_bad_init_checkpoint_exit_code(tmp_path, init):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "run"
    headers = {"header-not-object": [1],
               "params-not-pairs": {"format": "latentalign-ckpt",
                                    "params": 5}}
    if init in headers:
        out.mkdir()
        (out / "align_ckpt.bin").write_bytes(
            json.dumps(headers[init]).encode() + b"\n")
    if init in ("other-config", "trailing-bytes"):
        assert main(["train", "align", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
    if init == "other-config":
        other = {**TINY_CONFIG["predictor"], "d": 8}
        cfg.write_text(json.dumps({**TINY_CONFIG, "predictor": other}))
    if init == "trailing-bytes":
        with open(out / "align_ckpt.bin", "ab") as fh:
            fh.write(b"\0" * 4)
    _assert_input_error(_run(["train", "sft", "--config", str(cfg),
                              "--init", str(out / "align_ckpt.bin"),
                              "--out", str(out)]))


def test_near_zero_norm_step_exit_code(tmp_path, monkeypatch, capsys):
    """A real training step whose predicted target rows are all zero fails
    the cosine distance's norm check: exit 3 with one line, no traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "loss": {"lam": 0.0}}))
    project_tap = training.project_tap
    monkeypatch.setattr(training, "project_tap",
                        lambda *args: project_tap(*args) * 0.0)
    assert main(["train", "align", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines()
            if line.startswith("numeric failure:")] == \
        ["numeric failure: step 0: near-zero norm in cosine distance"]


def test_resolved_config_echoed_to_stderr():
    proc = _run(["verify", "--checks", "embedfile"])
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
