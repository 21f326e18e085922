"""The toy decoder-only predictor, projectors, latent target tokens, and
checkpoint persistence.

The predictor runs pre-layernorm transformer blocks under an arbitrary
attention permission matrix and exposes the hidden states leaving a chosen
block (the "tap"), which a second projector maps into the target encoder's
embedding space.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import CONTEXT, PAD_ROLE, TARGET, TEXT, roles_for_mask
from .autodiff import Tensor

# trainable modules start near zero; the frozen predictor needs fan-in
# scaling or visual information cannot reach the caption logits at all
INIT_STD = 0.02


def tap_layer_default(L: int) -> int:
    """Index of the block at one fourth of the depth (1-based)."""
    if L < 1:
        raise ValueError("layer count must be positive")
    return -(-L // 4)


@dataclass
class PredictorConfig:
    d: int = 32
    L: int = 4
    H: int = 4
    V: int = 64
    max_seq: int = 256
    tap_layer: int | None = None

    def __post_init__(self):
        if self.d % self.H:
            raise ValueError("d must be divisible by H")
        if self.d % 4:
            raise ValueError("d must be divisible by 4 for 2-D position codes")
        if self.tap_layer is None:
            self.tap_layer = tap_layer_default(self.L)
        if not 1 <= self.tap_layer <= self.L:
            raise ValueError("tap layer out of range")


def sincos_1d(n: int, d: int) -> np.ndarray:
    if d % 2:
        raise ValueError("1-D sinusoidal table needs an even width")
    pos = np.arange(n)[:, None]
    omega = 1.0 / (10000.0 ** (np.arange(d // 2) / (d / 2.0)))
    ang = pos * omega[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def sincos_2d(rows: int, cols: int, d: int) -> np.ndarray:
    """Fixed 2-D table over (row, col), half the dims per axis."""
    if d % 4:
        raise ValueError("2-D sinusoidal table needs d divisible by 4")
    row_tab = sincos_1d(rows, d // 2)
    col_tab = sincos_1d(cols, d // 2)
    out = np.zeros((rows * cols, d))
    for r in range(rows):
        for c in range(cols):
            out[r * cols + c, : d // 2] = row_tab[r]
            out[r * cols + c, d // 2:] = col_tab[c]
    return out


def _param(rng, shape, std=INIT_STD) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def _fan_in_param(rng, shape) -> Tensor:
    return _param(rng, shape, std=1.0 / math.sqrt(shape[0]))


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


class Projector:
    """Linear map or two-layer MLP with a GELU between (hidden = out_dim)."""

    def __init__(self, kind: str, in_dim: int, out_dim: int, seed: int = 0):
        if kind not in ("linear", "mlp"):
            raise ValueError(f"unknown projector kind: {kind}")
        rng = np.random.default_rng([seed, 0x9107])
        self.kind = kind
        self.in_dim = in_dim
        self.out_dim = out_dim
        if kind == "linear":
            self.w = _param(rng, (in_dim, out_dim))
            self.b = _zeros(out_dim)
        else:
            self.w1 = _param(rng, (in_dim, out_dim))
            self.b1 = _zeros(out_dim)
            self.w2 = _param(rng, (out_dim, out_dim))
            self.b2 = _zeros(out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        if self.kind == "linear":
            return ad.linear(x, self.w, self.b)
        return ad.linear(ad.gelu(ad.linear(x, self.w1, self.b1)),
                         self.w2, self.b2)

    def named_parameters(self) -> dict:
        if self.kind == "linear":
            return {"w": self.w, "b": self.b}
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


class LatentTarget:
    """Shared learnable vector plus a fixed 2-D positional table."""

    def __init__(self, d: int, rows: int, cols: int, seed: int = 0):
        rng = np.random.default_rng([seed, 0x2A7])
        self.z = _param(rng, (1, d))
        self.phi = sincos_2d(rows, cols, d)

    def tokens(self, patch_indices) -> Tensor:
        """One row per patch index, in the order given."""
        idx = np.asarray(patch_indices, dtype=np.int64)
        return self.z + Tensor(self.phi[idx])

    def named_parameters(self) -> dict:
        return {"z": self.z}


class Predictor:
    """Small pre-layernorm transformer with a custom mask and a layer tap."""

    def __init__(self, cfg: PredictorConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng([seed, 0xD0DE])
        d = cfg.d
        # token identity must stay visible next to the positional code, but
        # small enough that attention output carries real weight at text rows
        self.tok_emb = _param(rng, (cfg.V, d), std=0.5)
        self.seq_pos = sincos_1d(cfg.max_seq, d)
        self.blocks = []
        for _ in range(cfg.L):
            self.blocks.append({
                "ln1_g": _ones(d), "ln1_b": _zeros(d),
                "wq": _fan_in_param(rng, (d, d)), "bq": _zeros(d),
                "wk": _fan_in_param(rng, (d, d)), "bk": _zeros(d),
                "wv": _fan_in_param(rng, (d, d)), "bv": _zeros(d),
                "wo": _fan_in_param(rng, (d, d)), "bo": _zeros(d),
                "ln2_g": _ones(d), "ln2_b": _zeros(d),
                "w_up": _fan_in_param(rng, (d, 4 * d)), "b_up": _zeros(4 * d),
                "w_down": _fan_in_param(rng, (4 * d, d)), "b_down": _zeros(d),
            })
        self.lnf_g = _ones(d)
        self.lnf_b = _zeros(d)
        self.head_w = _fan_in_param(rng, (d, cfg.V))
        self.head_b = _zeros(cfg.V)

    def named_parameters(self) -> dict:
        params = {"tok_emb": self.tok_emb}
        for i, blk in enumerate(self.blocks):
            for name, p in blk.items():
                params[f"block{i}.{name}"] = p
        params["lnf_g"] = self.lnf_g
        params["lnf_b"] = self.lnf_b
        params["head_w"] = self.head_w
        params["head_b"] = self.head_b
        return params

    def _attend(self, x: Tensor, blk: dict, allow: np.ndarray) -> Tensor:
        q = ad.linear(x, blk["wq"], blk["bq"])
        k = ad.linear(x, blk["wk"], blk["bk"])
        v = ad.linear(x, blk["wv"], blk["bv"])
        return ad.linear(ad.attention(q, k, v, allow, self.cfg.H),
                         blk["wo"], blk["bo"])

    def forward(self, seq, allow: np.ndarray):
        """Runs a PackedBatch under its B x S x S ``allow`` mask; returns
        (logits, hidden states after the tap), one row per row of
        ``seq.tokens``."""
        s = seq.seq_len
        if s > self.cfg.max_seq:
            raise ValueError(f"sequence of {s} exceeds max_seq={self.cfg.max_seq}")
        x = seq.tokens + Tensor(np.tile(self.seq_pos[:s],
                                        (allow.shape[0], 1)))
        tap = None
        for i, blk in enumerate(self.blocks):
            a = self._attend(ad.layernorm(x, blk["ln1_g"], blk["ln1_b"]),
                             blk, allow)
            x = x + a
            up = ad.linear(ad.layernorm(x, blk["ln2_g"], blk["ln2_b"]),
                           blk["w_up"], blk["b_up"])
            m = ad.linear(ad.gelu(up), blk["w_down"], blk["b_down"])
            x = x + m
            if i + 1 == self.cfg.tap_layer:
                tap = x
        logits = ad.linear(ad.layernorm(x, self.lnf_g, self.lnf_b),
                           self.head_w, self.head_b)
        return logits, tap


@dataclass
class PackedBatch:
    """B sequences padded to one length S and stacked: sequence b owns rows
    ``b*S:(b+1)*S`` of ``tokens``, and its rows past its own length are pad
    rows.  ``text_rows`` and ``target_rows`` list the rows of caption and
    latent target tokens in row order; ``target_patches[i]`` is the address
    ``b*N + p`` of ``target_rows[i]``'s patch p of sample b in the batch's
    stacked ``(B*N, ...)`` per-patch arrays."""
    tokens: Tensor              # B*S x d
    roles: list                 # one TokenRole per row, PAD_ROLE on pad rows
    seq_len: int                # S
    text_rows: np.ndarray
    target_rows: np.ndarray
    target_patches: np.ndarray

    def sequences(self) -> list:
        """Each sequence's roles, pads included."""
        s = self.seq_len
        return [self.roles[i:i + s] for i in range(0, len(self.roles), s)]


def pack(masks, ctx_emb: np.ndarray, grid, captions, proj: Projector,
         lat: LatentTarget | None, tok_emb: Tensor) -> PackedBatch:
    """Assemble each sample in ``roles_for_mask`` order, pad every sequence
    to the longest and stack them.  A sequence holds its visual tokens in
    raster order, projected context and latent targets interleaved where
    the mask puts them, then its caption.  ``ctx_emb`` stacks the batch's
    context embeddings, sample b's patch p at row ``b*N + p``.

    The unmasked path passes an all-context spec,
    ``MaskSpec(context=frozenset(range(grid.n)))``: no latent tokens.
    """
    if not masks:
        raise ValueError("empty batch")
    if ctx_emb.shape[0] != len(masks) * grid.n:
        raise ValueError("context embeddings must cover every patch")
    if not all(m.context for m in masks):
        raise ValueError("empty context")
    seqs = [roles_for_mask(m, grid, len(c))
            for m, c in zip(masks, captions, strict=True)]
    s = max(len(roles) for roles in seqs)
    roles = [r for seq in seqs for r in seq + [PAD_ROLE] * (s - len(seq))]
    ctx_rows, target_rows, text_rows = (
        np.flatnonzero([r.kind == kind for r in roles])
        for kind in (CONTEXT, TARGET, TEXT))

    def address(rows):
        return rows // s * grid.n + np.array(
            [roles[i].patch_index for i in rows], dtype=np.int64)

    target_patches = address(target_rows)
    ids = np.concatenate([np.asarray(c, dtype=np.int64) for c in captions])
    parts = [proj(Tensor(ctx_emb[address(ctx_rows)]))]
    if target_rows.size:
        parts.append(lat.tokens(target_patches % grid.n))
    if ids.size:
        parts.append(ad.gather_rows(tok_emb, ids))
    parts.append(Tensor(np.zeros((1, tok_emb.shape[1]))))
    source = ad.concat(parts, axis=0)

    # source rows are grouped [context, targets, text], each in row order;
    # pad rows read the zero row after them
    real = np.concatenate([ctx_rows, target_rows, text_rows])
    perm = np.full(len(roles), real.size)
    perm[real] = np.arange(real.size)
    return PackedBatch(ad.gather_rows(source, perm), roles, s, text_rows,
                       target_rows, target_patches)


def project_tap(proj_tgt: Projector, tap: Tensor, rows) -> Tensor:
    return proj_tgt(ad.gather_rows(tap, rows))


# checkpoint persistence ---------------------------------------------


def save_checkpoint(path, step: int, config: dict, named_params: dict) -> None:
    """JSON header line followed by little-endian float64 payload."""
    header = {
        "format": "latentalign-ckpt",
        "version": 1,
        "step": step,
        "config": config,
        "params": [[name, list(p.data.shape)] for name, p in named_params.items()],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for p in named_params.values():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _is_header(header) -> bool:
    """A JSON object of our format whose params are [name, shape] pairs."""
    if not (isinstance(header, dict)
            and header.get("format") == "latentalign-ckpt"
            and isinstance(header.get("params"), list)):
        return False
    return all(isinstance(entry, list) and len(entry) == 2
               and isinstance(entry[0], str) and isinstance(entry[1], list)
               and all(type(n) is int and n >= 0 for n in entry[1])
               for entry in header["params"])


def load_checkpoint(path):
    """Returns (header dict, {name: float64 array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if not _is_header(header):
            raise ValueError("not a checkpoint file")
        params = {}
        for name, shape in header["params"]:
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ValueError("checkpoint payload truncated")
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError("trailing bytes after the checkpoint payload")
    return header, params


def load_into(named_params: dict, loaded: dict) -> None:
    if set(named_params) != set(loaded):
        missing = set(named_params) ^ set(loaded)
        raise ValueError(f"checkpoint/config mismatch on: {sorted(missing)}")
    for name, p in named_params.items():
        if tuple(p.data.shape) != tuple(loaded[name].shape):
            raise ValueError(f"shape mismatch for {name}")
        p.data[...] = loaded[name]
