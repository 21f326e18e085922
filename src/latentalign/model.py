"""The toy decoder-only predictor, projectors, latent target tokens, and
checkpoint persistence.

The predictor runs pre-layernorm transformer blocks under an arbitrary
attention permission matrix and exposes the hidden states leaving a chosen
block (the "tap"), which a second projector maps into the target encoder's
embedding space.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import CONTEXT, PAD, TARGET, TEXT
from .autodiff import Tensor

# trainable modules start near zero; the frozen predictor needs fan-in
# scaling or visual information cannot reach the caption logits at all
INIT_STD = 0.02


def tap_layer_default(L: int) -> int:
    """Index of the block at one fourth of the depth (1-based)."""
    return -(-L // 4)


@dataclass
class PredictorConfig:
    d: int = 32
    L: int = 4
    H: int = 4
    V: int = 64
    tap_layer: int | None = None

    def __post_init__(self):
        if min(self.d, self.L, self.H, self.V) < 1:
            raise ValueError("d, L, H and V must be at least 1")
        if self.d % self.H:
            raise ValueError("d must be divisible by H")
        if self.d % 4:
            raise ValueError("d must be divisible by 4 for 2-D position codes")
        if self.tap_layer is None:
            self.tap_layer = tap_layer_default(self.L)
        if type(self.tap_layer) is not int \
                or not 1 <= self.tap_layer <= self.L:
            raise ValueError("tap layer must be an integer in [1, L]")


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
    # patch r*cols + c reads row_tab[r] then col_tab[c]
    return np.concatenate([np.repeat(row_tab, cols, axis=0),
                           np.tile(col_tab, (rows, 1))], axis=1)


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
        return ad.mlp(x, self.w1, self.b1, self.w2, self.b2)

    def named_parameters(self) -> dict:
        if self.kind == "linear":
            return {"w": self.w, "b": self.b}
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


class LatentTarget:
    """Shared learnable vector plus a fixed 2-D positional table: the latent
    token of patch p is ``z + phi[p]``."""

    def __init__(self, d: int, rows: int, cols: int, seed: int = 0):
        rng = np.random.default_rng([seed, 0x2A7])
        self.z = _param(rng, (1, d))
        self.phi = sincos_2d(rows, cols, d)


class Predictor:
    """Small pre-layernorm transformer with a custom mask and a layer tap."""

    def __init__(self, cfg: PredictorConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng([seed, 0xD0DE])
        d = cfg.d
        # token identity must stay visible next to the positional code, but
        # small enough that attention output carries real weight at text rows
        self.tok_emb = _param(rng, (cfg.V, d), std=0.5)
        self.blocks = []
        for _ in range(cfg.L):
            self.blocks.append({
                "ln1_g": _ones(d), "ln1_b": _zeros(d),
                "wq": _fan_in_param(rng, (d, d)), "bq": _zeros(d),
                "wk": _fan_in_param(rng, (d, d)),
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

    def forward(self, tokens: Tensor, allow: np.ndarray, window: int,
                pos: Tensor):
        """Runs B stacked sequences, ``tokens`` (B*S x d), under their
        B x S x S ``allow``: (logits, hidden states after the tap).
        ``pos`` is the position rows added to ``tokens``: ``sincos_1d(S,
        d)`` once per sequence.

        The logits cover the last ``window`` rows of each sequence,
        (B*window) x V, sequence after sequence; the tap covers every row.
        Keys and values need every row at every block, so only the last
        block's queries, output projection and MLP, the final layernorm
        and the head run on the window alone.  Nothing at or before the
        tap is restricted: with the tap at the last block the window must
        be S."""
        if window < allow.shape[1] and self.cfg.tap_layer == self.cfg.L:
            raise ValueError("the tap is the last block: the window must "
                             "cover every row")
        x = tokens + pos
        tap = None
        for i, blk in enumerate(self.blocks, 1):
            x = ad.block(x, blk, allow, self.cfg.H,
                         window if i == self.cfg.L else None)
            if i == self.cfg.tap_layer:
                tap = x
        logits = ad.linear(ad.layernorm(x, self.lnf_g, self.lnf_b),
                           self.head_w, self.head_b)
        return logits, tap


@dataclass
class PackedBatch:
    """The layout of B sequences padded to one length S and stacked:
    sequence b owns rows ``b*S:(b+1)*S``, pad rows last, and a caption's
    rows lie in caption order.  Two columns hold one entry per row: its role
    code and the target blocks it belongs to (a B*S x K bool, K the most
    targets of any mask).  ``text_rows`` and ``target_rows`` list caption
    and latent target rows in row order; ``context_patches`` and
    ``target_patches`` address each context and target row's patch p of
    sample b as ``b*N + p`` in the batch's stacked ``(B*N, ...)`` per-patch
    arrays.  Row i reads row ``order[i]`` of the stack [context rows,
    target rows, one zero row, ``tok_emb``'s V rows]: a caption row reads
    its token's embedding, a pad row the zero row."""
    roles: np.ndarray           # B*S role codes, PAD on pad rows
    blocks: np.ndarray
    seq_len: int                # S
    text_rows: np.ndarray
    target_rows: np.ndarray
    context_patches: np.ndarray
    target_patches: np.ndarray
    order: np.ndarray


def pack(masks, grid, captions) -> PackedBatch:
    """Lay out each sample in ``roles_for_mask`` order (visual tokens in
    raster order, context and latent targets where the mask puts them, then
    the caption), pad every sequence to the longest and stack them.  Reads
    no parameter, only captions' lengths and ids.  The unmasked path passes
    ``MaskSpec(context=frozenset(range(grid.n)))``: no latent tokens."""
    if not masks:
        raise ValueError("empty batch")
    if not all(m.context for m in masks):
        raise ValueError("empty context")
    if len(captions) != len(masks):
        raise ValueError("one caption per mask expected")
    bsz, n = len(masks), grid.n
    k = max(len(m.targets) for m in masks)
    # per patch b*N + p of the stacked grids: its role code (-1 when the
    # sequence leaves it out) and its target blocks; context wins over a
    # target, as in roles_for_mask
    member = np.zeros((bsz * n, k), dtype=bool)
    member.reshape(-1)[[(b * n + p) * k + j for b, m in enumerate(masks)
                        for j, t in enumerate(m.targets) for p in t]] = True
    kind = np.where(member.any(axis=1), TARGET, -1).astype(np.int8)
    ctx = [b * n + p for b, m in enumerate(masks) for p in m.context]
    kind[ctx] = CONTEXT
    member[ctx] = False
    visual = (kind >= 0).reshape(bsz, n)
    n_visual = visual.sum(axis=1)
    cap = np.array([len(c) for c in captions], dtype=np.int64)
    s = int((n_visual + cap).max())
    visual_rows = (np.arange(bsz)[:, None] * s
                   + np.cumsum(visual, axis=1) - 1)[visual]
    caption_of = np.repeat(np.arange(bsz), cap)
    position = np.arange(cap.sum()) - np.repeat(np.cumsum(cap) - cap, cap)
    text_rows = caption_of * s + n_visual[caption_of] + position

    visual = visual.reshape(-1)
    roles = np.full(bsz * s, PAD, dtype=np.int8)
    roles[visual_rows] = kind[visual]
    roles[text_rows] = TEXT
    blocks = np.zeros((bsz * s, k), dtype=bool)
    blocks[visual_rows] = member[visual]

    ctx_rows = np.flatnonzero(roles == CONTEXT)
    target_rows = np.flatnonzero(roles == TARGET)
    # the source stack: [context, targets] in row order, zero row, tok_emb
    real = np.concatenate([ctx_rows, target_rows])
    order = np.full(bsz * s, real.size)
    order[real] = np.arange(real.size)
    order[text_rows] = real.size + 1 + np.concatenate(captions)
    # rows keep the patches' order, so the addresses are the patches' own
    return PackedBatch(roles, blocks, s, text_rows, target_rows,
                       np.flatnonzero(kind == CONTEXT),
                       np.flatnonzero(kind == TARGET), order)


def project_tap(proj_tgt: Projector, tap: Tensor, rows) -> Tensor:
    return proj_tgt(ad.gather_rows(tap, rows))


# checkpoint persistence ---------------------------------------------


@contextlib.contextmanager
def replaced_on_success(path, mode: str):
    """A file opened with ``mode`` beside ``path`` that replaces it when
    the block completes; if the block raises, it is removed and ``path``
    is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):    # gone once replaced
            os.remove(tmp)


def save_checkpoint(path, step: int, config: dict, named_params: dict) -> None:
    """JSON header line followed by little-endian float64 payload."""
    header = {
        "format": "latentalign-ckpt",
        "version": 1,
        "step": step,
        "config": config,
        "params": [[name, list(p.data.shape)] for name, p in named_params.items()],
    }
    with replaced_on_success(path, "wb") as fh:
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
        cap = 1 << 20           # real headers are a few KB
        line = fh.readline(cap + 1)
        try:
            header = len(line) <= cap and json.loads(line.decode())
        except RecursionError:  # nested too deep to be a header
            header = None
        if not _is_header(header):
            raise ValueError("not a checkpoint file")
        version = header.get("version")
        if type(version) is not int or version != 1:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        names = set()
        for name, _ in header["params"]:
            if name in names:
                raise ValueError(f"parameter {name!r} listed twice")
            names.add(name)
        # sized before any read, which could not hold a huge declared shape
        counts = [math.prod(shape) for _, shape in header["params"]]
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < 8 * sum(counts):
            raise ValueError("checkpoint payload truncated")
        if left > 8 * sum(counts):
            raise ValueError("trailing bytes after the checkpoint payload")
        params = {name: np.frombuffer(fh.read(8 * count), dtype="<f8")
                  .reshape(shape).copy()
                  for (name, shape), count in zip(header["params"], counts)}
    return header, params


def load_into(named_params: dict, loaded: dict) -> None:
    if set(named_params) != set(loaded):
        missing = set(named_params) ^ set(loaded)
        raise ValueError(f"checkpoint/config mismatch on: {sorted(missing)}")
    for name, p in named_params.items():
        if tuple(p.data.shape) != tuple(loaded[name].shape):
            raise ValueError(f"shape mismatch for {name}")
        p.data[...] = loaded[name]
