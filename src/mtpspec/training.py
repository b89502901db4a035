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
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from . import workers
from .errors import ConfigError, StateError, TrainingDiverged, check_int_fields
from .model import MTPHead, MainModel, main_forward, mtp_step
from .tensor import Tape, Tensor


# One optimizer setting for both trainers: AdamW's moments and epsilon, no
# weight decay, and the share of steps the learning rate warms up over.
ADAM_BETAS = (0.9, 0.95)
ADAM_EPS = 1e-8
WARMUP_RATIO = 0.05


@dataclass(frozen=True)
class TrainConfig:
    k_steps: int = 3
    beta: float = 0.6
    lr: float = 1e-3
    epochs: int = 3
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        check_int_fields(self)
        if self.k_steps < 1:
            raise ConfigError("k_steps must be >= 1")
        if not (0.0 < self.beta <= 1.0):
            raise ConfigError("beta must lie in (0, 1]")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("invalid batch_size/epochs")
        if not self.lr > 0:
            raise ConfigError("lr must be positive")


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
    usable, one, finish = _head_batch(main, head, batch, cfg)
    return finish([one(ex) for ex in usable])


def _head_batch(main: MainModel, head: MTPHead, batch, cfg: TrainConfig):
    """`mtp_training_loss` in the three parts `_fit` takes: the examples
    that run, one example's taped loss and backward, and the report."""
    usable = [ex for ex in batch if len(ex.tokens) > cfg.k_steps]
    alphas = step_weights(cfg.k_steps, cfg.beta)
    counts = _contributing_counts(usable, cfg)
    scales = [alphas[i] / counts[i] if counts[i] else 0.0 for i in range(cfg.k_steps)]

    def one(ex) -> list[float]:
        h_main = backbone_hidden(main, ex.tokens)
        with Tape() as tape:
            loss, raw = head_stream_loss(head, h_main, ex.tokens, len(ex.prompt), cfg, scales)
            tape.backward(loss)
        return raw

    def finish(raws) -> LossReport:
        step_sums = [0.0] * cfg.k_steps
        for raw in raws:
            for i, r in enumerate(raw):
                step_sums[i] += r
        step_losses = [step_sums[i] / counts[i] if counts[i] else 0.0
                       for i in range(cfg.k_steps)]
        total = sum(a * l for a, l in zip(alphas, step_losses))
        if not math.isfinite(total):
            raise TrainingDiverged(f"non-finite training loss {total}")
        return LossReport(step_losses=step_losses, total=total, step=0,
                          skipped=len(batch) - len(usable))

    return usable, one, finish


# ---------------------------------------------------------------------------
# optimization


class AdamW:
    """AdamW at weight decay 0, with betas `ADAM_BETAS` and epsilon `ADAM_EPS`."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = {k: p for k, p in params.items() if p.requires_grad}
        self.lr = lr
        self.b1, self.b2 = ADAM_BETAS
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
            p.data -= lr * ((m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS))


def cosine_lr(step: int, total_steps: int, peak: float) -> float:
    """Linear warmup to `peak` over `WARMUP_RATIO` of the steps, then cosine decay to zero."""
    warmup = max(1, int(round(WARMUP_RATIO * total_steps)))
    if step < warmup:
        return peak * (step + 1) / warmup
    if total_steps <= warmup:
        return peak
    frac = (step - warmup) / (total_steps - warmup)
    return peak * 0.5 * (1.0 + math.cos(math.pi * frac))


def _fit(items, params: dict[str, Tensor], cfg: TrainConfig, batch_loss) -> list:
    """The one optimizer loop: seeded shuffled batches, cosine-scheduled AdamW.

    `batch_loss(batch)` returns three parts: the batch's work items,
    `one(item)`, which runs one item's taped loss and backward and
    returns its values, and `finish(values)`, which takes every item's
    values in order and returns the step's entry; the entries are
    collected, one per optimizer step.

    With workers (`workers.extra_processes`), this process runs the
    first share of each batch's items and each worker a later share
    (`_serve_shares`). A worker takes the weights of this step, and
    sends back each of its items' values and gradient contributions in
    tape order (`tensor.diverted_grads`). This process applies those,
    item after item, through the same `accumulate_grad` calls that
    would have made them here, so gradients, updates and losses are the
    serial run's bits.

    Before its first taped step and before it forks, this process keeps
    the memory its tapes free (`workers.keep_freed_memory`): at the C
    allocator's defaults, each step faults the pages of the last step's
    freed intermediates back in.
    """
    workers.keep_freed_memory()
    opt = AdamW(params, cfg.lr)
    trainable = list(opt.params.values())
    rng = np.random.default_rng(cfg.seed)
    batches = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(items))
        batches += [[items[i] for i in order[start:start + cfg.batch_size]]
                    for start in range(0, len(items), cfg.batch_size)]
    count = workers.extra_processes(max(map(len, batches), default=0))

    def serve(_, link) -> None:
        _serve_shares(link, batches, trainable, batch_loss)

    results = []
    with workers.forked(count, serve) as links:
        replay = _Replay(trainable)
        for step, batch in enumerate(batches):
            opt.zero_grad()
            work, one, finish = batch_loss(batch)
            cuts = workers.shares(len(work), 1 + len(links))
            for link, cut in zip(links, cuts[1:]):
                if cut:
                    link.send((step, cut))
                    for p in trainable:
                        link.send_array(p.data)
            values = [one(work[i]) for i in cuts[0]]
            for link, cut in zip(links, cuts[1:]):
                values += [replay(link) for _ in cut]
            results.append(finish(values))
            opt.step(lr=cosine_lr(step, len(batches), cfg.lr))
    return results


def _serve_shares(link, batches, trainable: list[Tensor], batch_loss) -> None:
    """A worker's side of `_fit`: per job, run a share of one batch's items
    and send each item's values and gradient contributions.

    A job is the step and the share, then the weights. The share runs to
    its end before anything is sent: the caller reads only after its
    own share, and a pipe holds far less than a share's gradients.
    """
    while True:
        try:
            step, cut = link.recv()
        except EOFError:
            return
        for p in trainable:
            link.recv_into(p.data)
        work, one, _ = batch_loss(batches[step])
        done = []
        for i in cut:
            taken = []
            with tn.diverted_grads(trainable, lambda j, g, rows: taken.append((j, g.copy(), rows))):
                done.append((one(work[i]), taken))
        for value, taken in done:
            link.send((value, [(j, rows) for j, _, rows in taken]))
            for _, g, _ in taken:
                link.send_array(g)


class _Replay:
    """Applies one item a worker sent: its gradient contributions, in order,
    read into one reused buffer; returns the item's values."""

    def __init__(self, trainable: list[Tensor]):
        self.trainable = trainable
        self.buffer = np.empty(max((p.size for p in trainable), default=0))

    def __call__(self, link):
        value, taken = link.recv()
        for j, rows in taken:
            p = self.trainable[j]
            shape = p.shape if rows is None else (len(rows), *p.shape[1:])
            size = math.prod(shape)
            if size > self.buffer.size:
                self.buffer = np.empty(size)
            g = self.buffer[:size].reshape(shape)
            link.recv_into(g)
            p.accumulate_grad(g, rows)
        return value


def train_mtp_head(dataset, main: MainModel, head: MTPHead,
                   cfg: TrainConfig) -> list[LossReport]:
    """Fine-tune the head on a dataset; the backbone must be frozen.

    Deterministic given the config seed: identical seeds produce
    bit-identical trained heads. Returns one LossReport per optimizer
    step, so per-step loss curves can be inspected afterwards.
    """
    if not main.frozen:
        raise StateError("backbone must be frozen before head training")
    if head.main is not main:
        raise StateError("head is bound to a different backbone than the one it trains on")
    if not dataset:
        raise ConfigError("empty training dataset")
    reports = _fit(dataset, head.parameters(), cfg,
                   lambda batch: _head_batch(main, head, batch, cfg))
    for step, report in enumerate(reports):
        report.step = step
    head.trained_depth = cfg.k_steps
    return reports


def pretrain_main(sequences, model: MainModel, cfg: TrainConfig) -> list[float]:
    """Ordinary next-token pretraining of the backbone; freezes it afterwards."""
    if model.frozen:
        raise StateError("backbone is already frozen")
    if not sequences:
        raise ConfigError("empty pretraining corpus")
    if cfg.epochs < 1:
        raise ConfigError("pretraining needs at least one epoch")

    def batch_loss(batch):
        count = sum(len(s) - 1 for s in batch)

        def one(seq) -> float:
            tokens = np.asarray(seq, dtype=np.int64)
            with Tape() as tape:
                _, logits = main_forward(model, tokens)
                head_rows = tn.rows(logits, 0, tokens.size - 1)
                ce = tn.cross_entropy_rows(head_rows, tokens[1:],
                                           np.full(tokens.size - 1, 1.0 / count))
                tape.backward(ce)
            return float(ce.data)

        def finish(losses) -> float:
            loss = 0.0
            for item in losses:  # left to right: from Python 3.12, sum() compensates
                loss += item
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite pretraining loss {loss}")
            return loss

        return batch, one, finish

    curve = _fit(sequences, model.parameters(), cfg, batch_loss)
    model.freeze()
    return curve
