"""Trained-stack behaviors: distillation alignment, drafting oracles,
method orderings, language dispatch."""

import numpy as np

from conftest import pool_metrics
from mtpspec.bench import BenchTask, run_benchmark, sweep_draft_depth
from mtpspec.data import EOS_TOKEN, language, sample_prompts
from mtpspec.dedup import FilterRules, dedup_and_filter
from mtpspec.distill import GenerationConfig, response_perplexity, self_distill
from mtpspec.model import MTPHead
from mtpspec.specdec import DecodeSession, baseline_decode, draft_round, speculative_decode
from mtpspec.training import TrainConfig, train_mtp_head
from mtpspec.vocab import VocabBank, compress_vocab


class TestBackboneQuality:
    def test_pretraining_reduced_loss(self, stack):
        assert stack.pretrain_curve[-1] < 2.5 < stack.pretrain_curve[0]

    def test_cycle_continuation_is_analytic(self, stack):
        cyc = language("cycle")
        for seed in range(4):
            prompt = cyc.sample(np.random.default_rng(seed), 12)
            got = baseline_decode(stack.main, prompt, 24, eos_token=None)
            assert got == cyc.continuation(prompt[-1], 24)


class TestDistillationAlignment:
    def test_distilled_responses_have_lower_perplexity_than_source(self, stack):
        # the model's own generations sit closer to its distribution than
        # source-corpus continuations on the same prompts
        source = [ex for ex in stack.corpus if ex.lang in ("syn-a", "syn-b")][:24]
        prompts = [(ex.prompt, ex.lang) for ex in source]
        regen = self_distill(prompts, stack.main, GenerationConfig(seed=77))
        ppl_self = np.mean([response_perplexity(stack.main, ex.prompt, ex.response)
                            for ex in regen])
        ppl_source = np.mean([response_perplexity(stack.main, ex.prompt, ex.response)
                              for ex in source])
        assert ppl_self < ppl_source

    def test_dataset_covers_every_language(self, stack):
        langs = {ex.lang for ex in stack.dataset}
        assert langs == {"syn-a", "syn-b", "en", "zh", "cycle"}


class TestPeriodicDraftOracle:
    def test_every_draft_matches_the_cycle(self, stack):
        # on the period-4 corpus the correct continuation is analytic;
        # a trained head drafts it exactly and all drafts are accepted
        cyc = language("cycle")
        prompt = cyc.sample(np.random.default_rng(5), 12)
        session = DecodeSession(stack.main, stack.finetuned, prompt, 32,
                                eos_token=EOS_TOKEN)
        session.prefill()
        for _ in range(3):
            rnd = draft_round(session, 3)
            expected = cyc.continuation(session.verified[-1], 3)
            assert rnd.tokens == expected
            from mtpspec.specdec import verify_round
            out = verify_round(session, rnd)
            assert out.accepted_count == 3


class TestTrainingCurves:
    def test_deeper_steps_show_higher_final_loss_on_text(self, stack):
        # natural-ish byte corpora keep the per-step difficulty ordering
        prompts = [(p, tag) for tag in ("en", "zh")
                   for p in sample_prompts(tag, 31, 48, 24)]
        text = self_distill(prompts, stack.main, GenerationConfig(seed=13))
        text = dedup_and_filter(text, 0.9, FilterRules(max_ngram_ratio=0.3))
        head = MTPHead(stack.main, np.random.default_rng(99))
        result = train_mtp_head(text, stack.main, head,
                                TrainConfig(k_steps=3, beta=0.6, lr=3e-3,
                                            epochs=2, batch_size=8, seed=5))
        steps_per_epoch = -(-len(text) // 8)
        l1, l2, l3 = result.final_epoch_step_means(steps_per_epoch)
        assert l1 <= l2 <= l3

    def test_full_run_losses_are_finite_and_reported(self, stack):
        reports = stack.train_result.reports
        assert reports
        assert all(np.isfinite(r.total) for r in reports)
        assert all(len(r.step_losses) == 6 for r in reports)


class TestMethodOrdering:
    def test_finetuned_beats_vanilla_at_k3_on_every_desk_task(self, stack):
        for tag in ("syn-a", "syn-b", "en", "zh"):
            fine = pool_metrics(stack.main, stack.finetuned, [(tag, 10)], 3)
            van = pool_metrics(stack.main, stack.vanilla, [(tag, 10)], 3)
            assert fine.tau > van.tau, (tag, fine.tau, van.tau)

    def test_vanilla_head_flattens_beyond_k2_on_text(self, stack):
        # a head never trained for recursion stalls after its first draft
        prompts = sample_prompts("zh", 23, 10, 24)
        task = BenchTask(name="zh", prompts=prompts, lang="zh", max_new_tokens=48)
        van = sweep_draft_depth(task, [2, 3, 4], main=stack.main, head=stack.vanilla)
        fine = sweep_draft_depth(task, [2, 3, 4], main=stack.main, head=stack.finetuned)
        van_by_k = {r.k: r.tau for r in van}
        fine_by_k = {r.k: r.tau for r in fine}
        assert van_by_k[4] - van_by_k[2] < 0.1
        assert fine_by_k[4] - fine_by_k[2] > 0.2

    def test_benchmark_is_lossless_across_methods(self, stack):
        prompts = sample_prompts("syn-b", 29, 6, 24)
        task = BenchTask(name="syn-b", prompts=prompts, lang="syn-b",
                         max_new_tokens=32)
        bank = VocabBank(stack.main, [compress_vocab(stack.tables["syn-b"], 64,
                                                     main=stack.main)])
        rows = run_benchmark([task], main=stack.main, vanilla_head=stack.vanilla,
                             finetuned_head=stack.finetuned, bank=bank, k_depth=3)
        totals = {r.method: r.output_tokens + r.prompts for r in rows}
        assert len(set(totals.values())) == 1


class TestLanguageDispatch:
    def test_detection_routes_zh_prompts_to_zh_vocab(self, stack):
        bank = VocabBank(stack.main,
                         [compress_vocab(stack.tables["zh"], 64, main=stack.main),
                          compress_vocab(stack.tables["en"], 64, main=stack.main)])
        zh_prompt = sample_prompts("zh", 61, 1, 24)[0]
        _, m = speculative_decode(stack.main, stack.finetuned, zh_prompt, 24, 3,
                                  vocab=bank, lang=None, eos_token=EOS_TOKEN)
        assert all(r["lang"] == "zh" for r in m.records)
        en_prompt = sample_prompts("en", 61, 1, 24)[0]
        _, m = speculative_decode(stack.main, stack.finetuned, en_prompt, 24, 3,
                                  vocab=bank, lang=None, eos_token=EOS_TOKEN)
        assert all(r["lang"] == "en" for r in m.records)

    def test_head_weight_identity_across_rounds(self, stack):
        # one weight set reused at every draft step: the arrays consulted
        # during decoding are the very same objects afterwards
        ids_before = {name: id(p.data) for name, p in stack.finetuned.parameters().items()}
        prompt = sample_prompts("syn-a", 67, 1, 24)[0]
        speculative_decode(stack.main, stack.finetuned, prompt, 24, 4,
                           eos_token=EOS_TOKEN)
        ids_after = {name: id(p.data) for name, p in stack.finetuned.parameters().items()}
        assert ids_before == ids_after
