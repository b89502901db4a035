"""Shared trained stack for pipeline and acceptance tests.

Built once per session by the CLI's stage functions on the default
config: pretrained backbone, self-distilled and deduplicated dataset,
finetuned head and per-language frequency tables. Two controls sit
beside them: a vanilla head (K=1, two epochs on the source corpus) and
an untrained head. Everything is seeded, so the stack is bit-identical
across runs.

Training and distillation fork workers; the session fails if any child
of the test process is left when it ends.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from mtpspec import cli
from mtpspec.data import sample_prompts
from mtpspec.model import MTPHead


@pytest.fixture(scope="session", autouse=True)
def no_leaked_children():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # raises ChildProcessError when there is no child
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the call that started it (waitpid gave pid {pid})")


@pytest.fixture(scope="session")
def stack():
    t0 = time.time()
    cfg = cli.load_config(None)
    corpus, main, pretrain_curve = cli.pretrain_backbone(cfg)
    dataset = cli.dedup_dataset(cfg, cli.distill_dataset(cfg, main))
    backbone_snapshot = {name: p.data.copy()
                         for name, p in main.parameters().items()}
    finetuned, train_reports = cli.train_head(cfg, main, dataset)
    vanilla, _ = cli.train_head(cfg, main, corpus, k_steps=1, epochs=2)
    return SimpleNamespace(
        config=main.config,
        corpus=corpus,
        dataset=dataset,
        main=main,
        finetuned=finetuned,
        vanilla=vanilla,
        untrained=MTPHead(main, np.random.default_rng(4321)),
        tables=cli.frequency_tables(cfg, dataset),
        pretrain_curve=pretrain_curve,
        train_reports=train_reports,
        backbone_snapshot=backbone_snapshot,
        build_seconds=time.time() - t0,
    )


def pool_metrics(main, head, tag_counts, k_depth, *, max_new=48, seed=23,
                 vocab=None, lang=None, prompt_len=cli.DEFAULT_CONFIG["data"]["prompt_len"]):
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
