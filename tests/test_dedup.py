"""MinHash dedup and quality-filter behavior."""

import numpy as np

from mtpspec.data import TrainingExample
from mtpspec.dedup import (
    MAX_NGRAM_RATIO, _shingle_values, dedup_and_filter, minhash_signature, mix_back,
    passes_filters, repetition_ratio,
)
from oracles import estimated_jaccard


def example(tokens, prompt_len=2, lang="t"):
    return TrainingExample(prompt=list(tokens[:prompt_len]),
                           response=list(tokens[prompt_len:]),
                           lang=lang, source="test")


class TestMinHash:
    def test_exact_duplicates_collapse(self):
        rng = np.random.default_rng(0)
        toks = rng.integers(512, size=40).tolist()
        kept = dedup_and_filter([example(toks), example(toks)], jaccard_threshold=0.9)
        assert len(kept) == 1

    def test_first_occurrence_wins(self):
        rng = np.random.default_rng(1)
        toks = rng.integers(512, size=40).tolist()
        a = example(toks, lang="first")
        b = example(toks, lang="second")
        kept = dedup_and_filter([a, b], jaccard_threshold=0.5)
        assert kept == [a]

    def test_disjoint_examples_both_kept(self):
        a = example(list(range(0, 40)))
        b = example(list(range(100, 140)))
        for threshold in (0.05, 0.5, 1.0):
            assert len(dedup_and_filter([a, b], threshold)) == 2

    def test_signature_estimates_jaccard(self):
        # property: estimate tracks true shingle-set Jaccard within ~0.2
        rng = np.random.default_rng(2)
        for _ in range(10):
            base = rng.integers(512, size=60).tolist()
            variant = list(base)
            for i in rng.choice(60, size=rng.integers(0, 25), replace=False):
                variant[i] = int(rng.integers(512))
            sa = set(_shingle_values(base).tolist())
            sb = set(_shingle_values(variant).tolist())
            true_j = len(sa & sb) / len(sa | sb)
            est = estimated_jaccard(minhash_signature(base), minhash_signature(variant))
            assert abs(est - true_j) < 0.2

    def test_near_duplicates_collapse_at_moderate_threshold(self):
        rng = np.random.default_rng(3)
        base = rng.integers(512, size=80).tolist()
        variant = list(base)
        variant[40] = (variant[40] + 1) % 512  # one-token edit
        kept = dedup_and_filter([example(base), example(variant)], 0.8)
        assert len(kept) == 1


class TestFilters:
    def test_repeated_four_gram_fires_repetition_rule(self):
        block = [7, 11, 13, 17]
        ex = example([1, 2] + block * 50, prompt_len=2)
        assert repetition_ratio(ex.response, 4) > MAX_NGRAM_RATIO
        assert not passes_filters(ex)
        assert dedup_and_filter([ex], 0.9) == []

    def test_varied_response_passes(self):
        rng = np.random.default_rng(4)
        ex = example(rng.integers(512, size=60).tolist())
        assert passes_filters(ex)

    def test_length_range(self):
        short = example([1, 2, 3, 4, 5], prompt_len=3)  # response length 2
        assert not passes_filters(short)

    def test_filters_only_remove(self):
        rng = np.random.default_rng(7)
        data = [example(rng.integers(512, size=30).tolist()) for _ in range(8)]
        kept = dedup_and_filter(data, 0.9)
        assert all(ex in data for ex in kept)


class TestMixBack:
    def test_restores_collapsed_slice(self):
        rng = np.random.default_rng(8)
        base = rng.integers(512, size=40).tolist()
        rotations = [example(base[i:] + base[:i], lang="cycle") for i in range(4)]
        other = [example(rng.integers(512, size=40).tolist(), lang="en")
                 for _ in range(3)]
        data = rotations + other
        kept = dedup_and_filter(data, 0.9, max_ngram_ratio=1.0)
        assert sum(ex.lang == "cycle" for ex in kept) == 1  # rotations collapsed
        mixed = mix_back(data, kept, langs=("cycle",), max_ngram_ratio=1.0)
        assert sum(ex.lang == "cycle" for ex in mixed) == 4
        assert sum(ex.lang == "en" for ex in mixed) == len(
            [ex for ex in kept if ex.lang == "en"])

    def test_exact_duplicates_stay_out(self):
        rng = np.random.default_rng(9)
        toks = rng.integers(512, size=40).tolist()
        data = [example(toks, lang="cycle"), example(toks, lang="cycle")]
        kept = dedup_and_filter(data, 0.9, max_ngram_ratio=1.0)
        mixed = mix_back(data, kept, langs=("cycle",), max_ngram_ratio=1.0)
        assert len(mixed) == 1
