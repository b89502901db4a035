"""Frozen decoder-only main model and the shared-weight draft head.

The main model is a small rotary-embedding transformer (RMSNorm, SwiGLU,
no biases) whose output head is tied to the token embedding. The draft
head combines a backbone hidden state with a shifted token embedding,
runs one transformer block over its own stream, and projects logits
through the main model's shared output head; one weight set is reused at
every prediction step.

A block is defined once, as straight-line code on arrays
(`block_kernels`). Under a tape each block call is one tape step
(`taped_block`), whose backward `block_backward` is written out by hand
from the gradient rules in `tensor.Grads`; with no tape the forwards
record nothing.

Each block keeps its Q/K/V weights in one (3, d, d) buffer and its
SwiGLU gate/up weights in one (2, d, f) buffer. The parameters `wq`,
`wk`, `wv`, `w_gate` and `w_up` are contiguous views into them, so
checkpoints, the optimizer and gradient checks see the named weights and
work on them in place, while the block projects with one stacked
matmul per buffer and rotates q and k with one rotary call. Those views
must stay views: loading writes through them, and freezing locks the
buffers too.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tn
from .errors import (CapacityError, ConfigError, ConsistencyError, NumericError, ShapeError,
                     StateError, check_int_fields)
from .tensor import Tape, Tensor

INIT_STD = 0.02

# A tape-free forward of at least this many rows projects its logits through
# the frozen model's contiguous head copy, `output_wt`. With the transposed
# view of the embedding, OpenBLAS takes a slow path: at the desk config, on
# one thread, 3 rows take 30.4 us against 15.0 from the copy, 4 rows 21.6
# against 8.1, 16 rows 45.1 against 28.5. From 3 rows on (swept to 160) the
# copy's products are the view's bits; at 1 and 2 rows they differ in the
# last bits and are no faster. So the threshold keeps every logit's bits.
CONTIGUOUS_HEAD_ROWS = 3


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 512
    model_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_seq_len: int = 128
    rope_base: float = 10000.0
    rms_eps: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_int_fields(self)
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        if self.max_seq_len < 8:
            raise ConfigError("max_seq_len must be >= 8")
        if self.model_dim % self.n_heads:
            raise ConfigError("model_dim must be divisible by n_heads")
        if (self.model_dim // self.n_heads) % 2:
            raise ConfigError("head dim must be even for rotary pairing")
        if self.rms_eps <= 0:
            raise ConfigError("rms_eps must be positive")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads

    @property
    def mlp_dim(self) -> int:
        return 2 * self.model_dim


class RotaryTable:
    """Precomputed full-width tables for split-half rotary embedding.

    Per position, `cos` holds [cos, cos] and `sin` holds [-sin, sin]
    over the head width, the form `tensor.rope_rotate` takes. Rotating
    with them gives the split-half formula's bits: x1*cos + x2*(-sin) is
    exactly x1*cos - x2*sin, and addition commutes.
    """

    def __init__(self, cfg: ModelConfig):
        half = cfg.head_dim // 2
        inv_freq = cfg.rope_base ** (-np.arange(half, dtype=np.float64) / half)
        angles = np.arange(cfg.max_seq_len, dtype=np.float64)[:, None] * inv_freq[None, :]
        cos, sin = np.cos(angles), np.sin(angles)
        self.cos = np.concatenate([cos, cos], axis=-1)
        self.sin = np.concatenate([-sin, sin], axis=-1)

    def slices(self, start: int, count: int):
        if start < 0 or start + count > self.cos.shape[0]:
            raise CapacityError(f"positions [{start}, {start + count}) exceed rotary table")
        return self.cos[start:start + count], self.sin[start:start + count]


def _param(rng: np.random.Generator, shape, std: float = INIT_STD) -> Tensor:
    return Tensor(rng.normal(scale=std, size=shape), requires_grad=True)


class TransformerBlock:
    """Pre-norm attention + SwiGLU MLP, bias-free."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, resid_scale: float):
        d, f = cfg.model_dim, cfg.mlp_dim
        self.attn_norm = Tensor(np.ones(d), requires_grad=True)
        self.qkv = np.empty((3, d, d))
        for w in self.qkv:
            w[...] = rng.normal(scale=INIT_STD, size=(d, d))
        self.wq, self.wk, self.wv = (Tensor(w, requires_grad=True) for w in self.qkv)
        self.wo = _param(rng, (d, d), std=INIT_STD * resid_scale)
        self.mlp_norm = Tensor(np.ones(d), requires_grad=True)
        self.gate_up = np.empty((2, d, f))
        for w in self.gate_up:
            w[...] = rng.normal(scale=INIT_STD, size=(d, f))
        self.w_gate, self.w_up = (Tensor(w, requires_grad=True) for w in self.gate_up)
        self.w_down = _param(rng, (f, d), std=INIT_STD * resid_scale)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.attn_norm": self.attn_norm,
            f"{prefix}.wq": self.wq, f"{prefix}.wk": self.wk,
            f"{prefix}.wv": self.wv, f"{prefix}.wo": self.wo,
            f"{prefix}.mlp_norm": self.mlp_norm,
            f"{prefix}.w_gate": self.w_gate, f"{prefix}.w_up": self.w_up,
            f"{prefix}.w_down": self.w_down,
        }


class KVCache:
    """Per-layer rotated key/value storage for incremental decoding.

    The length counter only grows within a forward pass; rollback is an
    explicit truncate to the verified prefix length. One cache belongs
    to exactly one session.
    """

    def __init__(self, n_layers: int, n_heads: int, head_dim: int, capacity: int):
        self.capacity = capacity
        self.k = np.zeros((n_layers, n_heads, capacity, head_dim))
        self.v = np.zeros((n_layers, n_heads, capacity, head_dim))
        self.length = 0

    def reserve(self, count: int) -> None:
        if self.length + count > self.capacity:
            raise CapacityError(
                f"cache length {self.length} + {count} exceeds capacity {self.capacity}")

    def advance(self, count: int) -> None:
        self.reserve(count)
        self.length += count

    def truncate(self, length: int) -> None:
        if not (0 <= length <= self.length):
            raise ValueError(f"cannot truncate cache of length {self.length} to {length}")
        self.length = length


def block_kernels(block: TransformerBlock, x: np.ndarray, cos, sin, cfg: ModelConfig,
                  cache: KVCache | None = None, layer: int = 0) -> tuple[np.ndarray, tuple]:
    """One block over the rows `x`: its output, and the intermediates
    `block_backward` needs.

    `cos`/`sin` are the rotary rows of x's positions; the caller checks
    its inputs. Views, cache writes and weight products are numpy calls
    (a 2-D one `np.dot`, which dispatches faster than `np.matmul` with
    its bits on the BLAS the tests run on); every other op is a
    `tensor.Kernels` kernel. With `cache`, the new rows' keys and values
    go into its `layer` after its `length` rows, and the attention reads
    all of them; the caller reserves that room and advances the cache.
    """
    m = x.shape[0]
    kn = tn.Kernels
    a = kn.rms_norm(x, block.attn_norm.data, cfg.rms_eps)
    qkv = (a @ block.qkv).reshape(3, m, cfg.n_heads, cfg.head_dim).transpose(0, 2, 1, 3)
    qk = kn.rope_rotate(qkv[:2], cos, sin)
    q, k = qk[0], qk[1]  # two views; unpacking the array would iterate it
    v = qkv[2]
    past = 0
    if cache is not None:
        past, end = cache.length, cache.length + m
        cache.k[layer, :, past:end] = k
        cache.v[layer, :, past:end] = v
        k, v = cache.k[layer, :, :end], cache.v[layer, :, :end]
    probs = tn._causal_probs(q, k, past)
    merged = (probs @ v).transpose(1, 0, 2).reshape(m, cfg.model_dim)
    y = np.dot(merged, block.wo.data)
    y += x
    normed = kn.rms_norm(y, block.mlp_norm.data, cfg.rms_eps)
    gate_up = normed @ block.gate_up
    act = kn.silu(gate_up[0])
    mlp = act * gate_up[1]
    out = np.dot(mlp, block.w_down.data)
    out += y
    return out, (a, qk, v, probs, merged, y, normed, gate_up, act, mlp)


def taped_block(block: TransformerBlock, x: Tensor, cos, sin, cfg: ModelConfig) -> Tensor:
    """`block_kernels` as one tape step, whose backward is `block_backward`."""
    out, saved = block_kernels(block, x.data, cos, sin, cfg)
    return tn._record(out, lambda g: block_backward(block, g, x.data, saved, cos, sin, cfg),
                      block.w_down, block.w_gate, block.w_up, block.mlp_norm, x, block.wo,
                      block.wq, block.wk, block.wv, x, block.attn_norm)


def block_backward(block: TransformerBlock, g: np.ndarray, x: np.ndarray, saved: tuple,
                   cos, sin, cfg: ModelConfig) -> tuple[np.ndarray, ...]:
    """The gradients of one block for its output gradient `g`, in the order
    `taped_block` lists the block's inputs.

    They are the bits of the block composed of public primitives
    (`tests/oracles.py` keeps it): its rules run here in reverse order,
    as the same `tensor.Grads` rules. The Q/K/V and gate/up parts'
    gradients to their shared input add last part first, and the heads'
    gradient is made contiguous, as the tape's copy of a view was.
    """
    a, qk, v, probs, merged, y, normed, gate_up, act, mlp = saved
    gr, eps = tn.Grads, cfg.rms_eps
    m = x.shape[0]
    g_mlp, g_down = gr.matmul(g, mlp, block.w_down.data)
    g_gate_up = np.empty_like(gate_up)
    g_act, g_gate_up[1] = gr.mul(g_mlp, act, gate_up[1])
    g_gate_up[0] = gr.silu(g_act, gate_up[0])
    g_normed, g_w = gr.matmul(g_gate_up, normed, block.gate_up)
    g_y, g_mlp_norm = gr.rms_norm(g_normed[1] + g_normed[0], y, block.mlp_norm.data, eps)
    g_y += g
    g_merged, g_wo = gr.matmul(g_y, merged, block.wo.data)
    g_heads = g_merged.reshape(m, cfg.n_heads, cfg.head_dim).transpose(1, 0, 2).copy()
    g_q, g_k, g_v = gr.causal_attention(g_heads, *qk, v, probs)
    g_qkv = np.empty((3, m, cfg.n_heads, cfg.head_dim))
    heads = g_qkv.transpose(0, 2, 1, 3)
    heads[:2] = gr.rope_rotate(np.stack((g_q, g_k)), cos, sin)
    heads[2] = g_v
    g_a, g_qkv_w = gr.matmul(g_qkv.reshape(3, m, cfg.model_dim), a, block.qkv)
    g_x, g_attn_norm = gr.rms_norm(g_a[2] + g_a[1] + g_a[0], x, block.attn_norm.data, eps)
    return (g_down, g_w[0], g_w[1], g_mlp_norm, g_y, g_wo, *g_qkv_w, g_x, g_attn_norm)


class MainModel:
    """The frozen backbone: embedding, transformer stack, tied output head."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.config = cfg
        self.embed = _param(rng, (cfg.vocab_size, cfg.model_dim))
        resid_scale = 1.0 / np.sqrt(2.0 * cfg.n_layers)
        self.blocks = [TransformerBlock(cfg, rng, resid_scale) for _ in range(cfg.n_layers)]
        self.final_norm = Tensor(np.ones(cfg.model_dim), requires_grad=True)
        self.rope = RotaryTable(cfg)
        self.frozen = False
        self.output_wt: np.ndarray | None = None

    @property
    def output_w(self) -> Tensor:
        """The [V x d] output head; tied to the embedding table."""
        return self.embed

    def parameters(self) -> dict[str, Tensor]:
        named = {"embed": self.embed, "final_norm": self.final_norm}
        for i, blk in enumerate(self.blocks):
            named.update(blk.named(f"block{i}"))
        return named

    def freeze(self) -> None:
        """Lock every weight, and keep the output head as a read-only contiguous
        (model_dim, vocab_size) array, `output_wt`: frozen weights never change,
        so the copy cannot go stale."""
        for p in self.parameters().values():
            p.requires_grad = False
            p.zero_grad()
            p.data.flags.writeable = False
        for blk in self.blocks:
            blk.qkv.flags.writeable = False
            blk.gate_up.flags.writeable = False
        self.output_wt = np.ascontiguousarray(self.embed.data.T)
        self.output_wt.flags.writeable = False
        self.frozen = True

    def new_cache(self) -> KVCache:
        cfg = self.config
        return KVCache(cfg.n_layers, cfg.n_heads, cfg.head_dim, cfg.max_seq_len)

    def save(self, path) -> None:
        save_checkpoint(path, self.config, {k: v.data for k, v in self.parameters().items()})

    @classmethod
    def load(cls, path) -> "MainModel":
        cfg, arrays = load_checkpoint(path)
        model = cls(cfg, np.random.default_rng(cfg.seed))
        _load_into(model.parameters(), arrays, path)
        model.freeze()
        return model


class MTPHead:
    """Single shared-weight draft head.

    Owns two input norms, the combine projection and one transformer
    block; the embedding table, final norm and output head are shared
    with (and frozen inside) the main model.
    """

    def __init__(self, main: MainModel, rng: np.random.Generator):
        cfg = main.config
        d = cfg.model_dim
        self.config = cfg
        self.main = main
        self.norm_hidden = Tensor(np.ones(d), requires_grad=True)
        self.norm_embed = Tensor(np.ones(d), requires_grad=True)
        self.combine = _param(rng, (2 * d, d))
        self.block = TransformerBlock(cfg, rng, resid_scale=1.0 / np.sqrt(2.0))
        self.trained_depth: int | None = None

    @property
    def embed(self) -> Tensor:
        return self.main.embed

    @property
    def final_norm(self) -> Tensor:
        return self.main.final_norm

    @property
    def rope(self) -> RotaryTable:
        return self.main.rope

    def parameters(self) -> dict[str, Tensor]:
        named = {"norm_hidden": self.norm_hidden, "norm_embed": self.norm_embed,
                 "combine": self.combine}
        named.update(self.block.named("block"))
        return named

    def new_cache(self) -> KVCache:
        cfg = self.config
        return KVCache(1, cfg.n_heads, cfg.head_dim, cfg.max_seq_len)

    def save(self, path) -> None:
        arrays = {k: v.data for k, v in self.parameters().items()}
        if self.trained_depth is not None:
            arrays["__trained_depth__"] = np.array(self.trained_depth)
        save_checkpoint(path, self.config, arrays)

    @classmethod
    def load(cls, path, main: MainModel) -> "MTPHead":
        cfg, arrays = load_checkpoint(path)
        if cfg != main.config:
            raise ConsistencyError(f"{path}: head checkpoint config does not match the main model")
        head = cls(main, np.random.default_rng(cfg.seed))
        depth = arrays.pop("__trained_depth__", None)
        if depth is not None:
            if depth.shape != () or depth.dtype.kind not in "iu" or depth < 1:
                raise ConsistencyError(f"{path}: __trained_depth__ must be a positive integer")
            head.trained_depth = int(depth)
        _load_into(head.parameters(), arrays, path)
        return head


def init_model(config: ModelConfig) -> tuple[MainModel, MTPHead]:
    """Allocate and deterministically initialize a backbone plus draft head."""
    rng = np.random.default_rng(config.seed)
    main = MainModel(config, rng)
    head = MTPHead(main, rng)
    return main, head


# ---------------------------------------------------------------------------
# forward passes


def _token_ids(tokens, vocab_size: int) -> np.ndarray:
    """`tokens` as a nonempty 1-D int64 array of vocabulary ids, or a typed error.

    Ids must be integers: bool, float, complex, string and object ids raise
    `TypeError` rather than be cast, and an integer outside the vocabulary,
    however large, raises `IndexError`. A list of in-range Python ints, the
    decoders' form, takes one pass over its elements. Any other sequence is
    checked element by element too, since numpy counts a bool among ints
    as an integer and turns an int beyond int64 into a float or an object.
    An array is checked by its dtype and one reduction: read as uint64, a
    negative id wraps past 2**63, above any vocabulary.
    """
    if type(tokens) is list and tokens:
        for t in tokens:
            if type(t) is not int or not 0 <= t < vocab_size:
                break
        else:
            return np.array(tokens, np.int64)
    ids = np.asarray(tokens)
    if ids.ndim != 1 or ids.size == 0:
        raise ShapeError("tokens must be a nonempty 1-D sequence")
    if not isinstance(tokens, np.ndarray):
        for t in tokens:
            if type(t) is bool or not isinstance(t, (int, np.integer)):
                raise TypeError(f"token ids must be integers, not {type(t).__name__}")
        if not all(0 <= t < vocab_size for t in tokens):
            raise IndexError(f"token id outside vocabulary of size {vocab_size}")
        return np.array(tokens, np.int64)
    if ids.dtype.kind not in "iu":
        raise TypeError(f"token ids must be integers, not {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    if np.maximum.reduce(ids.view(np.uint64)) >= vocab_size:
        raise IndexError(f"token id outside vocabulary of size {vocab_size}")
    return ids


def main_forward(model: MainModel, tokens, cache: KVCache | None = None):
    """Run the backbone over new tokens.

    Appends the tokens' keys/values to `cache` when given; returns
    last-layer hidden states (pre final norm) and full-vocabulary logits
    for each new position, as Tensors. Each block runs `block_kernels`,
    under a tape as one step (`taped_block`) between primitives, with
    none bare. Either way its inputs are checked here: tokens (`ShapeError`,
    `IndexError`) and room in the cache and the rotary table
    (`CapacityError`). The cache stores arrays, which carry no gradient,
    so a cache under a tape raises `StateError` rather than drop the
    gradient through the cached keys and values. The logit projection is
    the public, checked `matmul` on both paths, so a tracer of the public
    primitives sees one per tape-free forward. A frozen model's tape-free
    forward of `CONTIGUOUS_HEAD_ROWS` or more rows projects through
    `output_wt`, which gives the transposed view's bits faster.
    """
    cfg = model.config
    taped = Tape.active()
    tokens = _token_ids(tokens, cfg.vocab_size)
    n = tokens.size
    past = cache.length if cache is not None else 0
    if cache is not None:
        if taped:
            raise StateError("a KV cache serves tape-free forwards only")
        cache.reserve(n)
    cos, sin = model.rope.slices(past, n)

    if taped:
        x = tn.embedding(model.embed, tokens)
        for blk in model.blocks:
            x = taped_block(blk, x, cos, sin, cfg)
        head = tn.transpose(model.output_w, (1, 0))
        return x, tn.matmul(tn.rms_norm(x, model.final_norm, cfg.rms_eps), head)

    x = model.embed.data.take(tokens, 0)
    for i, blk in enumerate(model.blocks):
        x = block_kernels(blk, x, cos, sin, cfg, cache, i)[0]
    if cache is not None:
        cache.advance(n)
    if n >= CONTIGUOUS_HEAD_ROWS and model.output_wt is not None:
        head = model.output_wt
    else:
        head = model.embed.data.T
    normed = tn.Kernels.rms_norm(x, model.final_norm.data, cfg.rms_eps)
    return Tensor(x), tn.matmul(Tensor(normed), Tensor(head))


def mtp_step(head: MTPHead, h_prev, shifted_tokens, cache: KVCache | None = None,
             pos_offset: int = 0):
    """Advance the draft head's stream by the given hidden/token pairs.

    Each position combines the normalized previous hidden state with the
    normalized embedding of its shifted token, projects to model width,
    and runs the head's block causally over the stream (extending
    `cache` when given; `pos_offset` supplies positions for the
    cache-free training path). Returns the block's output hidden states
    and the pre-logit states as Tensors; logits are produced separately
    by projecting the latter through the shared output head. Like
    `main_forward`, it runs its block as `taped_block` under a tape and as
    `block_kernels` with none, and checks its inputs here: `h_prev` must
    be (tokens, model_dim) (`ShapeError`), the tokens vocabulary ids
    (`IndexError`), and the cache and rotary table must have room
    (`CapacityError`). Under a tape a cache raises `StateError`, as in
    `main_forward`.
    """
    cfg, main = head.config, head.main
    taped = Tape.active()
    if taped:
        h_prev = h_prev if isinstance(h_prev, Tensor) else Tensor(h_prev)
    else:
        h_prev = h_prev.data if isinstance(h_prev, Tensor) else np.asarray(h_prev, dtype=np.float64)
    tokens = _token_ids(shifted_tokens, cfg.vocab_size)
    m = tokens.size
    if h_prev.shape != (m, cfg.model_dim):
        raise ShapeError(f"h_prev shape {h_prev.shape} must be ({m} tokens, "
                         f"model_dim {cfg.model_dim})")
    if cache is not None:
        if taped:
            raise StateError("a KV cache serves tape-free steps only")
        cache.reserve(m)
    cos, sin = main.rope.slices(cache.length if cache is not None else pos_offset, m)
    eps = cfg.rms_eps

    if taped:
        hn = tn.rms_norm(h_prev, head.norm_hidden, eps)
        en = tn.rms_norm(tn.embedding(Tensor(main.embed.data), tokens), head.norm_embed, eps)
        x = tn.matmul(tn.concat_last(hn, en), head.combine)
        h_new = taped_block(head.block, x, cos, sin, cfg)
        return h_new, tn.rms_norm(h_new, Tensor(main.final_norm.data), eps)

    kn = tn.Kernels
    hn = kn.rms_norm(h_prev, head.norm_hidden.data, eps)
    en = kn.rms_norm(main.embed.data.take(tokens, 0), head.norm_embed.data, eps)
    x = np.dot(np.concatenate((hn, en), 1), head.combine.data)
    h_new = block_kernels(head.block, x, cos, sin, cfg, cache)[0]
    if cache is not None:
        cache.advance(m)
    return Tensor(h_new), Tensor(kn.rms_norm(h_new, main.final_norm.data, eps))


def greedy_argmax(logits: np.ndarray) -> int:
    """Index of the maximum of a logit row; ties break toward the lowest index."""
    if logits.ndim != 1 or logits.size == 0:
        raise ShapeError("greedy_argmax expects a nonempty 1-D logit row")
    return int(_greedy(logits))


def greedy_rows(logits: np.ndarray) -> list[int]:
    """`greedy_argmax` of every row of a [rows x V] logit matrix at once."""
    if logits.ndim != 2 or logits.size == 0:
        raise ShapeError("greedy_rows expects a nonempty 2-D logit matrix")
    return _greedy(logits).tolist()


def _greedy(arr: np.ndarray):
    """The one greedy rule: argmax over the last axis (first maximum wins), all finite."""
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericError("non-finite logit")
    return arr.argmax(axis=-1)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, config: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
    """Write a self-describing container: config JSON + named float64 tensors."""
    payload = {f"param/{name}": arr for name, arr in arrays.items()}
    payload["__config__"] = np.frombuffer(
        json.dumps(asdict(config)).encode("utf-8"), dtype=np.uint8).copy()
    np.savez(path, **payload)


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """The config and arrays of a `save_checkpoint` file; an unreadable file
    or config is a `ConfigError`, a weight not of finite floats a
    `ConsistencyError`, each naming the path."""
    try:  # np.load, the config and pickled (object) arrays raise these
        with np.load(path) as data:
            cfg = ModelConfig(**json.loads(bytes(data["__config__"]).decode("utf-8")))
            arrays = {key.removeprefix("param/"): data[key]
                      for key in data.files if key.startswith("param/")}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a readable checkpoint ({exc})") from None
    for name, arr in arrays.items():
        if not name.startswith("__") and not (arr.dtype.kind == "f" and np.isfinite(arr).all()):
            raise ConsistencyError(f"{path}: {name} is not an array of finite floats")
    return cfg, arrays


def _load_into(params: dict[str, Tensor], arrays: dict[str, np.ndarray],
               path="<arrays>") -> None:
    """Write `arrays`, read from the file `path`, into `params`; each error names the path."""
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise ConsistencyError(f"{path}: checkpoint mismatch: missing={sorted(missing)} "
                               f"extra={sorted(extra)}")
    for name, p in params.items():  # every check before any write: a failed load changes nothing
        if np.shape(arrays[name]) != p.data.shape:
            raise ConsistencyError(f"{path}: checkpoint shape mismatch for {name}")
        if not p.data.flags.writeable:
            raise StateError(f"{path}: cannot load into frozen parameter {name}")
    for name, p in params.items():
        p.data[...] = arrays[name]  # in place: a parameter may be a view into a stacked buffer
