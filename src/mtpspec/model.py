"""Frozen decoder-only main model and the shared-weight draft head.

The main model is a small rotary-embedding transformer (RMSNorm, SwiGLU,
no biases) whose output head is tied to the token embedding. The draft
head combines a backbone hidden state with a shifted token embedding,
runs one transformer block over its own stream, and projects logits
through the main model's shared output head; one weight set is reused at
every prediction step.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tn
from .errors import CapacityError, ConfigError, ConsistencyError, NumericError, ShapeError
from .tensor import Tensor

INIT_STD = 0.02


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
    """Precomputed cos/sin tables for split-half rotary embedding."""

    def __init__(self, cfg: ModelConfig):
        half = cfg.head_dim // 2
        inv_freq = cfg.rope_base ** (-np.arange(half, dtype=np.float64) / half)
        angles = np.arange(cfg.max_seq_len, dtype=np.float64)[:, None] * inv_freq[None, :]
        self.cos = np.cos(angles)
        self.sin = np.sin(angles)

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
        self.wq = _param(rng, (d, d))
        self.wk = _param(rng, (d, d))
        self.wv = _param(rng, (d, d))
        self.wo = _param(rng, (d, d), std=INIT_STD * resid_scale)
        self.mlp_norm = Tensor(np.ones(d), requires_grad=True)
        self.w_gate = _param(rng, (d, f))
        self.w_up = _param(rng, (d, f))
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


def _split_heads(x, n_heads: int):
    m, d = x.shape
    return tn.transpose(tn.reshape(x, (m, n_heads, d // n_heads)), (1, 0, 2))


def _merge_heads(x):
    h, m, dh = x.shape
    return tn.reshape(tn.transpose(x, (1, 0, 2)), (m, h * dh))


def block_forward(block: TransformerBlock, x, *, cfg: ModelConfig,
                  rope: RotaryTable, pos_start: int,
                  cache: KVCache | None = None, layer: int = 0):
    """One block over `x`: a Tensor under a tape, a plain array otherwise."""
    m = x.shape[0]
    cos, sin = rope.slices(pos_start, m)
    live = isinstance(x, Tensor)

    a = tn.rms_norm(x, tn.operand(block.attn_norm), cfg.rms_eps)
    q = tn.rope_rotate(_split_heads(tn.matmul(a, tn.operand(block.wq)), cfg.n_heads), cos, sin)
    k = tn.rope_rotate(_split_heads(tn.matmul(a, tn.operand(block.wk)), cfg.n_heads), cos, sin)
    v = _split_heads(tn.matmul(a, tn.operand(block.wv)), cfg.n_heads)

    if cache is not None:
        cache.reserve(m)
        cache.write(layer, k.data if live else k, v.data if live else v)
        k, v = (Tensor(t) if live else t for t in cache.view(layer, extra=m))
    attn = tn.causal_attention(q, k, v, past_len=cache.length if cache is not None else 0)

    x = tn.add(x, tn.matmul(_merge_heads(attn), tn.operand(block.wo)))
    g = tn.rms_norm(x, tn.operand(block.mlp_norm), cfg.rms_eps)
    mlp = tn.mul(tn.silu(tn.matmul(g, tn.operand(block.w_gate))),
                 tn.matmul(g, tn.operand(block.w_up)))
    return tn.add(x, tn.matmul(mlp, tn.operand(block.w_down)))


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
        for p in self.parameters().values():
            p.requires_grad = False
            p.zero_grad()
            p.data.flags.writeable = False
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


def main_forward(model: MainModel, tokens, cache: KVCache | None = None):
    """Run the backbone over new tokens.

    Appends the tokens' keys/values to `cache` when given; returns
    last-layer hidden states (pre final norm) and full-vocabulary logits
    for each new position, as Tensors. With no tape active the forward
    runs on plain arrays and records nothing (see ``tensor.operand``).
    """
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ShapeError("tokens must be a nonempty 1-D sequence")
    n = tokens.size
    past = cache.length if cache is not None else 0
    if past + n > cfg.max_seq_len:
        raise CapacityError(f"{past} cached + {n} new tokens exceed max_seq_len {cfg.max_seq_len}")

    x = tn.embedding(tn.operand(model.embed), tokens)
    for i, blk in enumerate(model.blocks):
        x = block_forward(blk, x, cfg=cfg, rope=model.rope, pos_start=past,
                          cache=cache, layer=i)
    if cache is not None:
        cache.advance(n)
    logits = tn.matmul(tn.rms_norm(x, tn.operand(model.final_norm), cfg.rms_eps),
                       tn.transpose(tn.operand(model.output_w), (1, 0)))
    return (x, logits) if isinstance(x, Tensor) else (Tensor(x), Tensor(logits))


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
    `main_forward`, it runs on plain arrays when no tape is active.
    """
    cfg = head.config
    h_prev = tn.operand(h_prev if isinstance(h_prev, Tensor) else Tensor(h_prev))
    tokens = np.asarray(shifted_tokens, dtype=np.int64)
    if h_prev.ndim != 2 or h_prev.shape[0] != tokens.size or tokens.size == 0:
        raise ShapeError(f"h_prev rows {h_prev.shape} must match token count {tokens.size}")
    m = tokens.size
    pos = cache.length if cache is not None else pos_offset
    if cache is not None:
        cache.reserve(m)

    hn = tn.rms_norm(h_prev, tn.operand(head.norm_hidden), cfg.rms_eps)
    en = tn.rms_norm(tn.embedding(tn.constant(head.embed), tokens),
                     tn.operand(head.norm_embed), cfg.rms_eps)
    x = tn.matmul(tn.concat_last(hn, en), tn.operand(head.combine))
    h_new = block_forward(head.block, x, cfg=cfg, rope=head.rope, pos_start=pos,
                          cache=cache, layer=0)
    if cache is not None:
        cache.advance(m)
    pre_logit = tn.rms_norm(h_new, tn.constant(head.final_norm), cfg.rms_eps)
    return (h_new, pre_logit) if isinstance(h_new, Tensor) else (Tensor(h_new), Tensor(pre_logit))


def greedy_argmax(logits) -> int:
    """Index of the maximum logit; ties break toward the lowest index."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError("greedy_argmax expects a nonempty 1-D logit row")
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite logit")
    return int(np.argmax(arr))


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
    for name, p in params.items():
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != p.data.shape:
            raise ConsistencyError(f"checkpoint shape mismatch for {name}")
        if not p.data.flags.writeable:
            p.data = arr.copy()
        else:
            p.data[...] = arr
