"""Draft-head fine-tuning and backbone pretraining.

The head trains with shifted multi-step teacher forcing: the backbone
runs once without gradients, then the head runs K sequential passes,
each consuming the previous pass's hidden chain plus embeddings of
tokens shifted one step further. Per-step cross-entropies combine under
exponentially decayed weights that sum to one. The head reads the
backbone's shared weights as constants, so no gradient reaches the
backbone through it. Pretraining and head fine-tuning share one
optimizer loop, `_fit`, and differ only in their batch loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import ConfigError, StateError, TrainingDiverged
from .model import MTPHead, MainModel, main_forward, mtp_step
from .tensor import Tape, Tensor


@dataclass(frozen=True)
class TrainConfig:
    k_steps: int = 3
    beta: float = 0.6
    lr: float = 1e-3
    warmup_ratio: float = 0.05
    epochs: int = 3
    batch_size: int = 16
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    adam_eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.k_steps < 1:
            raise ConfigError("k_steps must be >= 1")
        if not (0.0 < self.beta <= 1.0):
            raise ConfigError("beta must lie in (0, 1]")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("invalid batch_size/epochs")


def step_weights(k_steps: int, beta: float) -> list[float]:
    """Exponentially decayed step weights beta^(k-1), normalized to sum 1."""
    if k_steps < 1:
        raise ConfigError("k_steps must be >= 1")
    if not (0.0 < beta <= 1.0):
        raise ConfigError("beta must lie in (0, 1]")
    raw = [beta ** (k - 1) for k in range(1, k_steps + 1)]
    total = sum(raw)
    return [w / total for w in raw]


@dataclass
class LossReport:
    step_losses: list[float]
    total: float
    step: int
    skipped: int = 0


def step_mask_bounds(seq_len: int, k_steps: int, prompt_len: int,
                     k: int) -> tuple[int, int]:
    """Inclusive [lo, hi] of contributing source slots at step k (empty if lo > hi).

    A slot p contributes iff its target p+k+1 exists, lies in the
    response region, and p stays inside the uniform source window
    shared by all steps.
    """
    lo = max(0, prompt_len - k - 1)
    hi = min(seq_len - 1 - k_steps, seq_len - 2 - k)
    return lo, hi


def _masked_weights(seq_len: int, k_steps: int, prompt_len: int, k: int,
                    value: float) -> tuple[np.ndarray, int]:
    m = seq_len - k
    w = np.zeros(m)
    lo, hi = step_mask_bounds(seq_len, k_steps, prompt_len, k)
    if hi >= lo:
        w[lo:hi + 1] = value
    return w, max(0, hi - lo + 1)


def backbone_hidden(main: MainModel, tokens) -> np.ndarray:
    """Last-layer hidden states for a full sequence, gradient-free."""
    hidden, _ = main_forward(main, tokens)
    return hidden.data


def head_stream_loss(head: MTPHead, h_main: np.ndarray, tokens, prompt_len: int,
                     cfg: TrainConfig, step_scales) -> tuple[Tensor, list[float]]:
    """Weighted multi-step loss for one sequence given backbone hiddens.

    `step_scales[k-1]` is the per-row weight applied at step k (the
    caller folds in alpha_k and the batch-wide position count). Returns
    the scalar loss and the raw (unweighted) per-step cross-entropy sums.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    seq_len = tokens.size
    if seq_len <= cfg.k_steps:
        raise StateError("sequence too short for the configured prediction depth")
    w_t = tn.transpose(Tensor(head.embed.data), (1, 0))  # shared output head, a constant
    chain: Tensor = Tensor(h_main)
    total: Tensor | None = None
    raw_sums: list[float] = []
    for k in range(1, cfg.k_steps + 1):
        m = seq_len - k
        h_in = chain if chain.shape[0] == m else tn.rows(chain, 0, m)
        shifted = tokens[k:]
        chain, pre_logit = mtp_step(head, h_in, shifted, pos_offset=k - 1)
        logits = pre_logit @ w_t
        weights, count = _masked_weights(seq_len, cfg.k_steps, prompt_len, k,
                                         step_scales[k - 1])
        targets = np.concatenate([tokens[k + 1:], [0]])  # final row is always masked
        ce = tn.cross_entropy_rows(logits, targets, weights)
        raw_sums.append(float(ce.data) / step_scales[k - 1] if count else 0.0)
        total = ce if total is None else total + ce
    return total, raw_sums


def _contributing_counts(examples, cfg: TrainConfig) -> list[int]:
    counts = [0] * cfg.k_steps
    for ex in examples:
        seq_len = len(ex.tokens)
        for k in range(1, cfg.k_steps + 1):
            lo, hi = step_mask_bounds(seq_len, cfg.k_steps, len(ex.prompt), k)
            counts[k - 1] += max(0, hi - lo + 1)
    return counts


def mtp_training_loss(main: MainModel, head: MTPHead, batch,
                      cfg: TrainConfig) -> LossReport:
    """Batch loss with gradients accumulated onto head parameters only.

    The backbone runs outside any tape and the head reads its shared
    tensors as constants, so its parameters never receive gradients
    regardless of freeze state. Sequences no longer than k_steps are
    skipped and counted.
    """
    usable = [ex for ex in batch if len(ex.tokens) > cfg.k_steps]
    skipped = len(batch) - len(usable)
    alphas = step_weights(cfg.k_steps, cfg.beta)
    counts = _contributing_counts(usable, cfg)
    scales = [alphas[i] / counts[i] if counts[i] else 0.0 for i in range(cfg.k_steps)]

    step_sums = [0.0] * cfg.k_steps
    for ex in usable:
        tokens = ex.tokens
        h_main = backbone_hidden(main, tokens)
        with Tape() as tape:
            loss, raw = head_stream_loss(head, h_main, tokens, len(ex.prompt),
                                         cfg, scales)
            tape.backward(loss)
        for i, r in enumerate(raw):
            step_sums[i] += r

    step_losses = [step_sums[i] / counts[i] if counts[i] else 0.0
                   for i in range(cfg.k_steps)]
    total = sum(a * l for a, l in zip(alphas, step_losses))
    if not math.isfinite(total):
        raise TrainingDiverged(f"non-finite training loss {total}")
    return LossReport(step_losses=step_losses, total=total, step=0, skipped=skipped)


# ---------------------------------------------------------------------------
# optimization


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 betas: tuple[float, float] = (0.9, 0.95), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = {k: p for k, p in params.items() if p.requires_grad}
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


def cosine_lr(step: int, total_steps: int, peak: float,
              warmup_ratio: float = 0.05) -> float:
    """Linear warmup to `peak`, then cosine decay to zero."""
    warmup = max(1, int(round(warmup_ratio * total_steps)))
    if step < warmup:
        return peak * (step + 1) / warmup
    if total_steps <= warmup:
        return peak
    frac = (step - warmup) / (total_steps - warmup)
    return peak * 0.5 * (1.0 + math.cos(math.pi * frac))


@dataclass
class TrainResult:
    reports: list[LossReport] = field(default_factory=list)

    def final_epoch_step_means(self, steps_per_epoch: int) -> list[float]:
        tail = self.reports[-steps_per_epoch:] if steps_per_epoch else self.reports
        if not tail:
            return []
        k = len(tail[0].step_losses)
        return [float(np.mean([r.step_losses[i] for r in tail])) for i in range(k)]


def _fit(items, params: dict[str, Tensor], cfg: TrainConfig, batch_loss) -> list:
    """The one optimizer loop: seeded shuffled batches, cosine-scheduled AdamW.

    `batch_loss(batch)` accumulates gradients for one batch; what it
    returns is collected, one entry per optimizer step.
    """
    opt = AdamW(params, cfg.lr, (cfg.adam_beta1, cfg.adam_beta2),
                cfg.adam_eps, cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    total_steps = cfg.epochs * math.ceil(len(items) / cfg.batch_size)
    results = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(items), cfg.batch_size):
            opt.zero_grad()
            results.append(batch_loss([items[i] for i in order[start:start + cfg.batch_size]]))
            opt.step(lr=cosine_lr(len(results) - 1, total_steps, cfg.lr, cfg.warmup_ratio))
    return results


def train_mtp_head(dataset, main: MainModel, head: MTPHead,
                   cfg: TrainConfig) -> TrainResult:
    """Fine-tune the head on a dataset; the backbone must be frozen.

    Deterministic given the config seed: identical seeds produce
    bit-identical trained heads. Emits one LossReport per optimizer step
    so per-step loss curves can be inspected afterwards.
    """
    if not main.frozen:
        raise StateError("backbone must be frozen before head training")
    if not dataset:
        raise ConfigError("empty training dataset")
    reports = _fit(dataset, head.parameters(), cfg,
                   lambda batch: mtp_training_loss(main, head, batch, cfg))
    for step, report in enumerate(reports):
        report.step = step
    head.trained_depth = cfg.k_steps
    return TrainResult(reports)


def pretrain_main(sequences, model: MainModel, cfg: TrainConfig) -> list[float]:
    """Ordinary next-token pretraining of the backbone; freezes it afterwards."""
    if model.frozen:
        raise StateError("backbone is already frozen")
    if not sequences:
        raise ConfigError("empty pretraining corpus")

    def batch_loss(batch) -> float:
        count = sum(len(s) - 1 for s in batch)
        loss = 0.0
        for seq in batch:
            tokens = np.asarray(seq, dtype=np.int64)
            with Tape() as tape:
                _, logits = main_forward(model, tokens)
                head_rows = tn.rows(logits, 0, tokens.size - 1)
                ce = tn.cross_entropy_rows(head_rows, tokens[1:],
                                           np.full(tokens.size - 1, 1.0 / count))
                tape.backward(ce)
            loss += float(ce.data)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"non-finite pretraining loss {loss}")
        return loss

    curve = _fit(sequences, model.parameters(), cfg, batch_loss)
    model.freeze()
    return curve
