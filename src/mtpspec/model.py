"""Frozen decoder-only main model and the shared-weight draft head.

The main model is a small rotary-embedding transformer (RMSNorm, SwiGLU,
no biases) whose output head is tied to the token embedding. The draft
head combines a backbone hidden state with a shifted token embedding,
runs one transformer block over its own stream, and projects logits
through the main model's shared output head; one weight set is reused at
every prediction step.

Each block keeps its Q/K/V weights in one (3, d, d) buffer and its
SwiGLU gate/up weights in one (2, d, f) buffer. The parameters `wq`,
`wk`, `wv`, `w_gate` and `w_up` are contiguous views into them, so
checkpoints, the optimizer and gradient checks see the named weights and
work on them in place, while the forward projects with one stacked
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
                     StateError)
from .tensor import Tensor

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

    def write(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        t = k_new.shape[1]
        self.k[layer][:, self.length:self.length + t] = k_new
        self.v[layer][:, self.length:self.length + t] = v_new

    def view(self, layer: int, extra: int):
        end = self.length + extra
        return self.k[layer][:, :end], self.v[layer][:, :end]

    def advance(self, count: int) -> None:
        self.reserve(count)
        self.length += count

    def truncate(self, length: int) -> None:
        if not (0 <= length <= self.length):
            raise ValueError(f"cannot truncate cache of length {self.length} to {length}")
        self.length = length

    def clone(self) -> "KVCache":
        other = KVCache.__new__(KVCache)
        other.capacity = self.capacity
        other.k = self.k.copy()
        other.v = self.v.copy()
        other.length = self.length
        return other


def _split_heads(ops, x, n_heads: int):
    """(n, m, d) stacked projections -> (n, heads, m, head_dim)."""
    n, m, d = x.shape
    return ops.transpose(ops.reshape(x, (n, m, n_heads, d // n_heads)), (0, 2, 1, 3))


def _merge_heads(ops, x):
    h, m, dh = x.shape
    return ops.reshape(ops.transpose(x, (1, 0, 2)), (m, h * dh))


def block_forward(block: TransformerBlock, x, cos, sin, *, cfg: ModelConfig,
                  cache: KVCache | None = None, layer: int = 0):
    """One block over `x`: a Tensor under a tape, a plain array otherwise.

    `cos`/`sin` are the rotary rows of x's positions. The caller checks
    its inputs (`main_forward`, `mtp_step`), reserves room in `cache`,
    which holds arrays and so serves tape-free forwards only, and
    advances it after the last block.
    """
    ops = tn.ops()
    a = ops.rms_norm(x, ops.operand(block.attn_norm), cfg.rms_eps)
    w_qkv = ops.stacked(block.qkv, (block.wq, block.wk, block.wv))
    qkv = _split_heads(ops, ops.matmul(a, w_qkv), cfg.n_heads)
    qk, v = ops.take(qkv, slice(0, 2), 2)
    q, k = ops.take(ops.rope_rotate(qk, cos, sin), 0, 1)

    past = 0
    if cache is not None:
        past = cache.length
        cache.write(layer, k, v)
        k, v = cache.view(layer, extra=x.shape[0])
    attn = ops.causal_attention(q, k, v, past)

    x = ops.add(x, ops.matmul(_merge_heads(ops, attn), ops.operand(block.wo)))
    g = ops.rms_norm(x, ops.operand(block.mlp_norm), cfg.rms_eps)
    gate, up = ops.take(ops.matmul(g, ops.stacked(block.gate_up, (block.w_gate, block.w_up))), 0, 1)
    mlp = ops.mul(ops.silu(gate), up)
    return ops.add(x, ops.matmul(mlp, ops.operand(block.w_down)))


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

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def save(self, path) -> None:
        save_checkpoint(path, self.config, {k: v.data for k, v in self.parameters().items()})

    @classmethod
    def load(cls, path) -> "MainModel":
        cfg, arrays = load_checkpoint(path)
        model = cls(cfg, np.random.default_rng(cfg.seed))
        _load_into(model.parameters(), arrays)
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

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

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
            raise ConsistencyError("head checkpoint config does not match the main model")
        head = cls(main, np.random.default_rng(cfg.seed))
        depth = arrays.pop("__trained_depth__", None)
        if depth is not None:
            head.trained_depth = int(depth)
        _load_into(head.parameters(), arrays)
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
    `TypeError` rather than be cast. One reduction checks the range: read as
    uint64, a negative id wraps past 2**63, above any vocabulary.
    """
    ids = np.asarray(tokens)
    if ids.ndim != 1 or ids.size == 0:
        raise ShapeError("tokens must be a nonempty 1-D sequence")
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
    for each new position, as Tensors. With no tape active the forward
    runs on the kernels and records nothing (see ``tensor.ops``), so its
    inputs are checked here: tokens (`ShapeError`, `IndexError`) and room
    in the cache and the rotary table (`CapacityError`). The cache
    stores arrays, which carry no gradient, so a cache under a tape
    raises `StateError` rather than drop the gradient through the
    cached keys and values. A frozen model's tape-free forward of
    `CONTIGUOUS_HEAD_ROWS` or more rows projects through `output_wt`,
    which gives the transposed view's bits faster.
    """
    cfg = model.config
    ops = tn.ops()
    tokens = _token_ids(tokens, cfg.vocab_size)
    n = tokens.size
    past = cache.length if cache is not None else 0
    if cache is not None:
        if ops is not tn.Kernels:
            raise StateError("a KV cache serves tape-free forwards only")
        cache.reserve(n)
    cos, sin = model.rope.slices(past, n)

    x = ops.embedding(ops.operand(model.embed), tokens)
    for i, blk in enumerate(model.blocks):
        x = block_forward(blk, x, cos, sin, cfg=cfg, cache=cache, layer=i)
    if cache is not None:
        cache.advance(n)
    # The logit projection calls the public, checked `matmul` on either
    # path, so a tape-free forward wraps its operands in Tensors: one call
    # per forward, and the op a tracer of the public primitives still sees
    # in a tape-free decode (perfbench counts it).
    if ops is tn.Kernels and n >= CONTIGUOUS_HEAD_ROWS and model.output_wt is not None:
        head = model.output_wt
    else:
        head = ops.transpose(ops.operand(model.output_w), (1, 0))
    normed = ops.rms_norm(x, ops.operand(model.final_norm), cfg.rms_eps)
    if ops is tn.Kernels:
        x, normed, head = Tensor(x), Tensor(normed), Tensor(head)
    return x, tn.matmul(normed, head)


def token_input_table(head: MTPHead) -> np.ndarray:
    """The head's token-side input for every vocabulary id, one row each.

    Row t is `rms_norm(embed[t], norm_embed)`, the input `mtp_step`
    computes for token t, with the same bits: the norm works row by row.
    Drafting never changes `norm_embed` but training updates it in
    place, so a decode session builds this table once and hands it to
    `mtp_step`, and a head keeps none.
    """
    return tn.Kernels.rms_norm(head.embed.data, head.norm_embed.data, head.config.rms_eps)


def mtp_step(head: MTPHead, h_prev, shifted_tokens, cache: KVCache | None = None,
             pos_offset: int = 0, token_table: np.ndarray | None = None):
    """Advance the draft head's stream by the given hidden/token pairs.

    Each position combines the normalized previous hidden state with the
    normalized embedding of its shifted token, projects to model width,
    and runs the head's block causally over the stream (extending
    `cache` when given; `pos_offset` supplies positions for the
    cache-free training path). Returns the block's output hidden states
    and the pre-logit states as Tensors; logits are produced separately
    by projecting the latter through the shared output head. Like
    `main_forward`, it runs on the kernels when no tape is active and
    checks its inputs here: `h_prev` must be (tokens, model_dim)
    (`ShapeError`), the tokens vocabulary ids (`IndexError`), and the
    cache and rotary table must have room (`CapacityError`).
    A tape-free caller may pass `token_input_table(head)` as
    `token_table` to gather the token-side rows rather than normalize
    each embedding (the same bits); under a tape, where `norm_embed`
    needs its gradient, a table raises `StateError`, and so does a cache,
    as in `main_forward`.
    """
    cfg = head.config
    ops = tn.ops()
    if ops is tn.Kernels:
        h_prev = h_prev.data if isinstance(h_prev, Tensor) else np.asarray(h_prev, dtype=np.float64)
    elif not isinstance(h_prev, Tensor):
        h_prev = Tensor(h_prev)
    tokens = _token_ids(shifted_tokens, cfg.vocab_size)
    if h_prev.shape != (tokens.size, cfg.model_dim):
        raise ShapeError(f"h_prev shape {h_prev.shape} must be ({tokens.size} tokens, "
                         f"model_dim {cfg.model_dim})")
    if token_table is not None and ops is not tn.Kernels:
        raise StateError("a token input table serves tape-free steps only")
    if cache is not None and ops is not tn.Kernels:
        raise StateError("a KV cache serves tape-free steps only")
    m = tokens.size
    pos = cache.length if cache is not None else pos_offset
    if cache is not None:
        cache.reserve(m)
    cos, sin = head.rope.slices(pos, m)

    hn = ops.rms_norm(h_prev, ops.operand(head.norm_hidden), cfg.rms_eps)
    if token_table is None:
        en = ops.rms_norm(ops.embedding(ops.constant(head.embed), tokens),
                          ops.operand(head.norm_embed), cfg.rms_eps)
    else:
        en = ops.embedding(token_table, tokens)
    x = ops.matmul(ops.concat_last(hn, en), ops.operand(head.combine))
    h_new = block_forward(head.block, x, cos, sin, cfg=cfg, cache=cache, layer=0)
    if cache is not None:
        cache.advance(m)
    pre_logit = ops.rms_norm(h_new, ops.constant(head.final_norm), cfg.rms_eps)
    return (h_new, pre_logit) if isinstance(h_new, Tensor) else (Tensor(h_new), Tensor(pre_logit))


def greedy_argmax(logits) -> int:
    """Index of the maximum logit; ties break toward the lowest index."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError("greedy_argmax expects a nonempty 1-D logit row")
    return int(_greedy(arr))


def greedy_rows(logits) -> list[int]:
    """`greedy_argmax` of every row of a [rows x V] logit matrix at once."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError("greedy_rows expects a nonempty 2-D logit matrix")
    return _greedy(arr).tolist()


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
    with np.load(path) as data:
        cfg = ModelConfig(**json.loads(bytes(data["__config__"]).decode("utf-8")))
        arrays = {key[len("param/"):]: data[key] for key in data.files if key.startswith("param/")}
    return cfg, arrays


def _load_into(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise ConsistencyError(f"checkpoint mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, p in params.items():  # every check before any write: a failed load changes nothing
        if np.shape(arrays[name]) != p.data.shape:
            raise ConsistencyError(f"checkpoint shape mismatch for {name}")
        if not p.data.flags.writeable:
            raise StateError(f"cannot load into frozen parameter {name}")
    for name, p in params.items():
        p.data[...] = arrays[name]  # in place: a parameter may be a view into a stacked buffer
