"""Shared trained stack for pipeline and acceptance tests.

Built once per session: pretrained backbone, self-distilled dataset,
finetuned (K=6), fixed-data vanilla (K=1) and untrained heads, plus
per-language frequency tables. Everything is seeded, so the stack is
bit-identical across runs.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from mtpspec.data import LANG_TAGS, make_examples, mixed_dataset, sample_prompts
from mtpspec.dedup import FilterRules, dedup_and_filter, mix_back
from mtpspec.distill import GenerationConfig, self_distill
from mtpspec.model import ModelConfig, MTPHead, init_model
from mtpspec.training import TrainConfig, pretrain_main, train_mtp_head
from mtpspec.vocab import build_frequency_table

STACK_CONFIG = ModelConfig(vocab_size=512, model_dim=64, n_layers=2, n_heads=4,
                           max_seq_len=160, seed=1234)
PROMPT_LEN = 24
RESPONSE_LEN = 56


@pytest.fixture(scope="session")
def stack():
    t0 = time.time()
    corpus = mixed_dataset(seed=7, per_lang=96, prompt_len=PROMPT_LEN,
                           response_len=RESPONSE_LEN)
    main, _ = init_model(STACK_CONFIG)
    pretrain_curve = pretrain_main([ex.tokens for ex in corpus], main,
                                   TrainConfig(lr=1e-2, epochs=8, batch_size=8, seed=1))

    prompts = [(p, tag) for tag in LANG_TAGS
               for p in sample_prompts(tag, 11, 72, PROMPT_LEN)]
    distilled = self_distill(prompts, main, GenerationConfig(seed=11))
    # desk corpora are legitimately repetitive, so the n-gram bound is looser
    # here than the library default; the cycle slice collapses to one survivor
    # under global dedup and is re-added to keep the mixture balanced
    rules = FilterRules(max_ngram_ratio=0.3)
    deduped = dedup_and_filter(distilled, 0.9, rules)
    dataset = mix_back(distilled, deduped, langs=("cycle",), rules=rules)

    backbone_snapshot = {name: p.data.copy()
                         for name, p in main.parameters().items()}

    finetuned = MTPHead(main, np.random.default_rng(1234))
    train_result = train_mtp_head(dataset, main, finetuned,
                                  TrainConfig(k_steps=6, beta=0.6, lr=3e-3,
                                              epochs=4, batch_size=8, seed=3))

    vanilla = MTPHead(main, np.random.default_rng(1234))
    train_mtp_head(corpus, main, vanilla,
                   TrainConfig(k_steps=1, beta=0.6, lr=3e-3, epochs=2,
                               batch_size=8, seed=3))

    untrained = MTPHead(main, np.random.default_rng(4321))

    tables = {}
    for tag in LANG_TAGS:
        slices = [ex.tokens for ex in
                  make_examples(tag, 7, 96, PROMPT_LEN, RESPONSE_LEN)]
        tables[tag] = build_frequency_table(slices, tag, STACK_CONFIG.vocab_size)

    return SimpleNamespace(
        config=STACK_CONFIG,
        corpus=corpus,
        dataset=dataset,
        distilled=distilled,
        main=main,
        finetuned=finetuned,
        vanilla=vanilla,
        untrained=untrained,
        tables=tables,
        pretrain_curve=pretrain_curve,
        train_result=train_result,
        backbone_snapshot=backbone_snapshot,
        build_seconds=time.time() - t0,
    )


def pool_metrics(main, head, tag_counts, k_depth, *, max_new=48, seed=23,
                 vocab=None, lang=None, prompt_len=PROMPT_LEN):
    """Decode a prompt mix and pool the session metrics."""
    from mtpspec.data import EOS_TOKEN
    from mtpspec.specdec import DecodeMetrics, speculative_decode

    pooled = DecodeMetrics()
    for tag, n in tag_counts:
        for p in sample_prompts(tag, seed, n, prompt_len):
            pooled.merge(speculative_decode(main, head, p, max_new, k_depth, vocab=vocab,
                                            lang=lang, eos_token=EOS_TOKEN)[1])
    return SimpleNamespace(
        tau=pooled.tau,
        rates=[pooled.accepted.get(kk, 0) / max(1, pooled.reached.get(kk, 0))
               for kk in range(1, k_depth + 1)],
        draft_mults=pooled.draft_mults, draft_steps=pooled.draft_forwards)
