"""Self-distilled training data: the main model generates its own responses.

Sampling follows the usual temperature / top-k / top-p chain; at
temperature zero it degenerates to the greedy baseline. Per-prompt seeds
make the dataset independent of generation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import workers
from .data import EOS_TOKEN, TrainingExample, cumulative, draw, seed_key
from .errors import CapacityError, ConfigError, NumericError, check_int_fields
from .model import MainModel, greedy_argmax
from .specdec import decode_loop
from .tensor import Kernels


@dataclass(frozen=True)
class GenerationConfig:
    temperature: float = 0.6
    top_k: int = 20
    top_p: float = 0.95
    max_new_tokens: int = 64
    seed: int = 0
    eos_token: int | None = EOS_TOKEN

    def __post_init__(self):
        check_int_fields(self)
        if not self.temperature >= 0:
            raise ConfigError("temperature must be nonnegative")
        if self.top_k < 0:
            raise ConfigError("top_k must be nonnegative (0 keeps every token)")
        if not (0.0 < self.top_p <= 1.0):
            raise ConfigError("top_p must lie in (0, 1]")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")


def sample_token(rng: np.random.Generator, logits: np.ndarray,
                 cfg: GenerationConfig) -> int:
    """Temperature + top-k + top-p sampling over one logit row.

    `tensor.Kernels.softmax_last` normalizes the row. The kept tokens'
    probabilities become a `data.cumulative` table, and the token is one
    `data.draw` from it: the token and generator state `Generator.choice`
    gives. A non-finite logit is a `NumericError` at every temperature.
    """
    if cfg.temperature == 0.0:
        return greedy_argmax(logits)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logit")
    probs = Kernels.softmax_last(logits / cfg.temperature)

    order = np.lexsort((np.arange(probs.size), -probs))  # prob desc, ties by id
    if cfg.top_k and cfg.top_k < order.size:
        order = order[:cfg.top_k]
    kept = probs[order]
    if cfg.top_p < 1.0:
        cum = np.cumsum(kept) / kept.sum()
        cutoff = int(np.searchsorted(cum, cfg.top_p)) + 1
        order, kept = order[:cutoff], kept[:cutoff]
    return int(order[draw(rng, cumulative(kept / kept.sum()))])


def generate(main: MainModel, prompt, cfg: GenerationConfig,
             rng: np.random.Generator) -> tuple[list[int], bool]:
    """Sample a continuation by `sample_token` in the greedy baseline's token
    loop, `specdec.decode_loop`; returns (tokens, hit_length_cap)."""
    out = decode_loop(main, prompt, cfg.max_new_tokens, cfg.eos_token,
                      lambda row: sample_token(rng, row, cfg))
    return out, out[-1] != cfg.eos_token


def self_distill(prompts, main: MainModel, cfg: GenerationConfig) -> list[TrainingExample]:
    """Generate one example per (prompt tokens, lang tag) pair.

    Responses that hit the length cap are truncated and flagged; the flag
    is kept in the dataset files for readers, and no stage drops on it. A
    prompt and its longest response must fit the backbone (`CapacityError`
    before anything is generated). With workers (`workers.extra_processes`) each of the
    processes generates every n-th prompt, so each share holds its part
    of every language and the shares take about as long; per-prompt
    seeds make the examples the same either way, and they come back in
    prompt order.
    """
    prompts = [(list(prompt), lang) for prompt, lang in prompts]
    limit = main.config.max_seq_len
    for idx, (prompt, _) in enumerate(prompts):
        if len(prompt) + cfg.max_new_tokens > limit:
            raise CapacityError(f"prompt {idx}: {len(prompt)} tokens + max_new_tokens "
                                f"{cfg.max_new_tokens} exceed max_seq_len {limit}")

    def example(idx: int) -> TrainingExample:
        prompt, lang = prompts[idx]
        rng = np.random.default_rng(seed_key(cfg.seed, "distill", idx))
        response, truncated = generate(main, prompt, cfg, rng)
        return TrainingExample(prompt=prompt, response=response, lang=lang,
                               source="self-distill", truncated=truncated)

    parts = 1 + workers.extra_processes(len(prompts))
    shares = [range(i, len(prompts), parts) for i in range(parts)]

    def serve(i, link) -> None:
        done = [example(idx) for idx in shares[i]]  # all first: the caller reads after its share
        for ex in done:
            link.send(ex)

    out: list[TrainingExample | None] = [None] * len(prompts)
    with workers.forked(parts - 1, serve) as links:
        for idx in shares[0]:
            out[idx] = example(idx)
        for link, share in zip(links, shares[1:]):
            for idx in share:
                out[idx] = link.recv()
    return out
