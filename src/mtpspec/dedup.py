"""MinHash near-duplicate removal plus heuristic quality filters.

Signatures hash token shingles through a bank of universal hash
functions; two examples whose estimated Jaccard similarity reaches the
threshold collapse to the first occurrence. Filters only ever remove
examples: a response shorter than `MIN_RESPONSE_LEN`, or one with at
least `MIN_NGRAM_TOTAL` `NGRAM_WIDTH`-grams whose most common gram's
share exceeds `max_ngram_ratio`.
"""

from __future__ import annotations

import numpy as np

from .data import TrainingExample

# largest 32-bit prime: keeps (a*x + b) products exactly inside uint64
_PRIME = np.uint64(4294967291)
_SHINGLE_BASE = np.uint64(1_000_003)

SHINGLE_WIDTH = 3
NUM_HASHES = 64
HASH_SEED = 977
MIN_RESPONSE_LEN = 4
NGRAM_WIDTH = 4
MIN_NGRAM_TOTAL = 8
# the library's repetition bound; the CLI's desk corpora repeat themselves and use 0.3
MAX_NGRAM_RATIO = 0.2

_hash_rng = np.random.default_rng(HASH_SEED)
_HASH_A = _hash_rng.integers(1, int(_PRIME), size=NUM_HASHES, dtype=np.uint64)
_HASH_B = _hash_rng.integers(0, int(_PRIME), size=NUM_HASHES, dtype=np.uint64)
del _hash_rng


def _shingle_values(tokens) -> np.ndarray:
    """Polynomial hashes of overlapping token windows (whole sequence if shorter)."""
    if len(tokens) < SHINGLE_WIDTH:
        windows = [tuple(tokens)]
    else:
        windows = [tuple(tokens[i:i + SHINGLE_WIDTH])
                   for i in range(len(tokens) - SHINGLE_WIDTH + 1)]
    values = set()
    base, prime = int(_SHINGLE_BASE), int(_PRIME)
    for w in windows:
        h = 0
        for t in w:
            h = (h * base + int(t) + 1) % prime
        values.add(h)
    return np.fromiter(values, dtype=np.uint64, count=len(values))


def minhash_signature(tokens) -> np.ndarray:
    """One min-hash per hash function over the example's shingle set."""
    values = _shingle_values(tokens)
    hashed = (_HASH_A[:, None] * values[None, :] + _HASH_B[:, None]) % _PRIME
    return hashed.min(axis=1)


def repetition_ratio(tokens, width: int) -> float:
    """Frequency share of the most common width-gram."""
    if len(tokens) < width:
        return 0.0
    grams: dict[tuple, int] = {}
    for i in range(len(tokens) - width + 1):
        g = tuple(tokens[i:i + width])
        grams[g] = grams.get(g, 0) + 1
    total = len(tokens) - width + 1
    return max(grams.values()) / total


def passes_filters(ex: TrainingExample, max_ngram_ratio: float = MAX_NGRAM_RATIO) -> bool:
    n = len(ex.response)
    if n < MIN_RESPONSE_LEN:
        return False
    if n - NGRAM_WIDTH + 1 >= MIN_NGRAM_TOTAL:
        if repetition_ratio(ex.response, NGRAM_WIDTH) > max_ngram_ratio:
            return False
    return True


def dedup_and_filter(dataset, jaccard_threshold: float,
                     max_ngram_ratio: float = MAX_NGRAM_RATIO) -> list[TrainingExample]:
    """Collapse near-duplicates (first occurrence wins), then apply filters."""
    if not (0.0 < jaccard_threshold <= 1.0):
        raise ValueError("jaccard_threshold must lie in (0, 1]")
    kept: list[TrainingExample] = []
    kept_sigs: list[np.ndarray] = []
    for ex in dataset:
        sig = minhash_signature(ex.tokens)
        if kept_sigs:
            sims = np.mean(np.stack(kept_sigs) == sig, axis=1)
            if float(sims.max()) >= jaccard_threshold:
                continue
        kept.append(ex)
        kept_sigs.append(sig)
    return [ex for ex in kept if passes_filters(ex, max_ngram_ratio)]


def mix_back(original, kept, langs, max_ngram_ratio: float = MAX_NGRAM_RATIO):
    """Post-dedup mixing: restore language slices the global pass collapsed.

    A degenerate corpus slice (the period-4 cycle: every example shares
    one shingle set) survives global dedup as a single example, starving
    that language during training. Mixing restores the slice at its
    distilled proportion: every example of the named languages that is
    not already among the survivors comes back, repeats included, so the
    training mixture keeps its balance.
    """
    survivors = list(kept)
    restored = [ex for ex in original
                if ex.lang in langs and ex not in survivors
                and passes_filters(ex, max_ngram_ratio)]
    return survivors + restored
