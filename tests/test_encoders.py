"""Frozen stub encoders and the embedding-file binary format."""

import numpy as np
import pytest

from latentalign.encoders import (MAGIC, VERSION, BadMagic, EmbeddingFile,
                                  StubEncoder, TruncatedPayload,
                                  VersionMismatch, read_embedding_file,
                                  write_embedding_file)


def _sample_file(rng):
    emb = rng.normal(size=(3, 5, 4)).astype(np.float32)
    return EmbeddingFile(count=3, n_patches=5, dim=4, payload=emb)


def test_roundtrip_bit_exact(tmp_path):
    ef = _sample_file(np.random.default_rng(0))
    path = tmp_path / "e.bin"
    write_embedding_file(ef, path)
    back = read_embedding_file(path)
    assert (back.count, back.n_patches, back.dim) == (3, 5, 4)
    assert back.payload.dtype == np.float32
    assert np.array_equal(back.payload, ef.payload)
    # and the bytes themselves are stable
    write_embedding_file(back, tmp_path / "e2.bin")
    assert (tmp_path / "e.bin").read_bytes() == (tmp_path / "e2.bin").read_bytes()


def test_header_layout(tmp_path):
    ef = _sample_file(np.random.default_rng(1))
    path = tmp_path / "e.bin"
    write_embedding_file(ef, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:6], "little") == VERSION


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(14))
    with pytest.raises(BadMagic):
        read_embedding_file(path)


def test_version_mismatch(tmp_path):
    ef = _sample_file(np.random.default_rng(2))
    path = tmp_path / "e.bin"
    write_embedding_file(ef, path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        read_embedding_file(path)


def test_truncated_payload(tmp_path):
    ef = _sample_file(np.random.default_rng(3))
    path = tmp_path / "e.bin"
    write_embedding_file(ef, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(TruncatedPayload):
        read_embedding_file(path)


def test_stub_encoder_deterministic():
    pixels = np.random.default_rng(0).random((8, 48))
    a = StubEncoder(7, 48, 16).encode(pixels)
    b = StubEncoder(7, 48, 16).encode(pixels)
    assert np.array_equal(a, b)
    assert a.shape == (8, 16)


def test_different_seeds_decorrelate():
    pixels = np.random.default_rng(1).random((32, 48))
    a = StubEncoder(1, 48, 8).encode(pixels).ravel()
    b = StubEncoder(2, 48, 8).encode(pixels).ravel()
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.99


def test_linear_stub_is_affine():
    enc = StubEncoder(5, 48, 8, nonlinear=False)
    x = np.random.default_rng(2).random((4, 48))
    y = np.random.default_rng(3).random((4, 48))
    lhs = enc.encode(0.5 * x + 0.5 * y)
    rhs = 0.5 * enc.encode(x) + 0.5 * enc.encode(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_nonlinear_stub_is_not_affine():
    enc = StubEncoder(5, 48, 8, nonlinear=True)
    x = np.random.default_rng(2).random((4, 48))
    y = np.random.default_rng(3).random((4, 48))
    lhs = enc.encode(0.5 * x + 0.5 * y)
    rhs = 0.5 * enc.encode(x) + 0.5 * enc.encode(y)
    assert not np.allclose(lhs, rhs, atol=1e-6)
