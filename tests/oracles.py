"""Reference code the tests compare the package against.

Nothing here runs in a decode or a pipeline stage. Each function states
plainly something the package computes another way (a cross-entropy
row, a replay of a round log, an analytic continuation), or draws test
inputs.
"""

import copy
import math

import numpy as np

from mtpspec import tensor as tn
from mtpspec.errors import ShapeError
from mtpspec.data import CYCLE_TOKENS, SPECIAL_TOKENS, MarkovLanguage, zipf_probs
from mtpspec.distill import GenerationConfig
from mtpspec.model import MainModel, main_forward
from mtpspec.specdec import DecodeMetrics, DecodeSession
from mtpspec.vocab import FrequencyTable, compress_vocab


def sample_zipf_tokens(rng: np.random.Generator, ids, count: int,
                       s: float = 1.0) -> list[int]:
    """IID draws from a Zipf(s) law over the given ids (rank = list order)."""
    ids = np.asarray(ids, dtype=np.int64)
    return rng.choice(ids, size=count, p=zipf_probs(ids.size, s)).tolist()


def markov_sample(lang: MarkovLanguage, rng: np.random.Generator, length: int) -> list[int]:
    """`MarkovLanguage.sample` with every token drawn by `Generator.choice`
    and each state's candidates drawn again on every visit."""
    marginal = zipf_probs(lang.ids.size)

    def candidates(prev: int) -> np.ndarray:
        state_rng = np.random.default_rng((lang.seed, prev))
        keep = lang.ids != prev
        pool, p = lang.ids[keep], marginal[keep]
        return state_rng.choice(pool, size=lang.branching, replace=False, p=p / p.sum())

    out = [int(rng.choice(lang.ids, p=marginal))]
    while len(out) < length:
        out.append(int(rng.choice(candidates(out[-1]), p=zipf_probs(lang.branching))))
    return out


def sample_token(rng: np.random.Generator, logits: np.ndarray, cfg: GenerationConfig) -> int:
    """`distill.sample_token` at a temperature above zero, with the kept token
    drawn by `Generator.choice`."""
    z = logits / cfg.temperature
    z = z - z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    order = np.lexsort((np.arange(probs.size), -probs))
    if cfg.top_k and cfg.top_k < order.size:
        order = order[:cfg.top_k]
    kept = probs[order]
    if cfg.top_p < 1.0:
        cum = np.cumsum(kept) / kept.sum()
        cutoff = int(np.searchsorted(cum, cfg.top_p)) + 1
        order, kept = order[:cutoff], kept[:cutoff]
    return int(rng.choice(order, p=kept / kept.sum()))


def cycle_continuation(last: int, length: int) -> list[int]:
    """The `length` cycle tokens that follow `last`."""
    phase = CYCLE_TOKENS.index(last)
    return [CYCLE_TOKENS[(phase + 1 + i) % len(CYCLE_TOKENS)] for i in range(length)]


def sum_all(a: tn.Tensor) -> tn.Tensor:
    """The sum of every entry, as a taped scalar: a loss for gradient checks."""
    x = tn._data(a)
    return tn._record(np.sum(x), lambda g: (np.full_like(x, float(g)),), a)


def composed_attention(q: tn.Tensor, k: tn.Tensor, v: tn.Tensor, past_len: int = 0) -> tn.Tensor:
    """`tensor.causal_attention` of (heads, rows, head_dim) operands composed of
    the public primitives: under a tape, op by op what it records as one step."""
    m, s = q.shape[-2], k.shape[-2]
    scores = tn.scale(tn.matmul(q, tn.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(q.shape[-1]))
    mask = None if m == 1 else np.where(np.tri(m, s, past_len, dtype=bool), 0.0, -np.inf)
    return tn.matmul(tn.softmax_last(scores, mask), v)


def composed_block(block, x: tn.Tensor, cos, sin, cfg) -> tn.Tensor:
    """One transformer block composed of the public primitives, with separate
    Q/K/V and gate/up products: under a tape, op by op what
    `model.taped_block` records as one step."""
    m, d = x.shape

    def heads(t):  # (m, d) -> (heads, m, head_dim)
        return tn.transpose(tn.reshape(t, (m, cfg.n_heads, cfg.head_dim)), (1, 0, 2))

    a = tn.rms_norm(x, block.attn_norm, cfg.rms_eps)
    q, k, v = (heads(tn.matmul(a, w)) for w in (block.wq, block.wk, block.wv))
    attn = composed_attention(tn.rope_rotate(q, cos, sin), tn.rope_rotate(k, cos, sin), v)
    x = tn.add(x, tn.matmul(tn.reshape(tn.transpose(attn, (1, 0, 2)), (m, d)), block.wo))
    g = tn.rms_norm(x, block.mlp_norm, cfg.rms_eps)
    mlp = tn.mul(tn.silu(tn.matmul(g, block.w_gate)), tn.matmul(g, block.w_up))
    return tn.add(x, tn.matmul(mlp, block.w_down))


def softmax_cross_entropy(logits: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one logit row against a target id, and its gradient
    with respect to the logits; `tensor.cross_entropy_rows` is the taped,
    weighted form over many rows."""
    logp = tn._log_softmax(np.asarray(logits, dtype=np.float64))
    grad = np.exp(logp)
    grad[target] -= 1.0
    return float(-logp[target]), grad


def response_perplexity(main: MainModel, prompt, response) -> float:
    """Mean per-token perplexity of a response under the backbone."""
    _, logits = main_forward(main, list(prompt) + list(response), main.new_cache())
    start = len(prompt) - 1
    total = 0.0
    for i, target in enumerate(response):
        loss, _ = softmax_cross_entropy(logits.data[start + i], int(target))
        total += loss
    return float(np.exp(total / len(response)))


def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """The share of equal MinHash entries, which estimates Jaccard similarity."""
    return float(np.mean(sig_a == sig_b))


def size_for_coverage(table: FrequencyTable, coverage: float,
                      specials=SPECIAL_TOKENS) -> int:
    """Smallest keep-size whose kept mass reaches `coverage`.

    Accounts for forced specials displacing counted members: the
    returned size guarantees the final keep set covers the target.
    """
    specials = tuple(specials)
    order = np.lexsort((np.arange(table.counts.size), -table.counts))
    cum = np.cumsum(table.counts[order]) / table.total
    base = int(np.searchsorted(cum, coverage)) + 1
    for size in range(max(base, len(specials), 1), table.counts.size + 1):
        if table.coverage(compress_vocab(table, size, specials).keep) >= coverage:
            return size
    return table.counts.size


def tau_from_records(records) -> float:
    """Recompute the mean accepted length from a round log alone."""
    records = list(records)
    return DecodeMetrics(rounds=len(records),
                         output_tokens=sum(r["committed"] for r in records)).tau


def rates_from_records(records, k_depth: int) -> list[float]:
    """Recompute per-step acceptance rates from a round log alone."""
    m = DecodeMetrics()
    for rec in records:
        m.tally(min(k_depth, len(rec["drafts"])), rec["matched"])
    return [m.rate(k) for k in range(1, k_depth + 1)]


def cache_consistency_gap(session: DecodeSession) -> float:
    """Max logit gap between cached-state decoding and a from-scratch forward."""
    _, cached = main_forward(session.main, [session.verified[-1]],
                             copy.deepcopy(session.main_cache))
    _, scratch = main_forward(session.main, session.verified)
    return float(np.max(np.abs(cached.data[-1] - scratch.data[-1])))


def token_ids(tokens: list, vocab_size: int) -> np.ndarray:
    """The forwards' token check on a flat list, one element at a time: an
    empty list raises `ShapeError`; any element that is not an integer (a
    bool is not one) raises `TypeError`; then any integer outside
    [0, vocab_size), however large, raises `IndexError`."""
    if not tokens:
        raise ShapeError("no tokens")
    for t in tokens:
        if isinstance(t, (bool, np.bool_)) or not isinstance(t, (int, np.integer)):
            raise TypeError(f"{t!r} is not an integer")
    ids = [int(t) for t in tokens]
    for t in ids:
        if not 0 <= t < vocab_size:
            raise IndexError(f"{t} is outside [0, {vocab_size})")
    return np.array(ids, dtype=np.int64)
