"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The trained stack comes from the session fixture
in conftest.py and is bit-reproducible.
"""

import time

import numpy as np
import pytest

from conftest import pool_metrics
from mtpspec.bench import BenchTask, argmax_speedup, run_benchmark, sweep_draft_depth
from mtpspec.data import (EOS_TOKEN, LANG_TAGS, SPECIAL_TOKENS, TrainingExample,
                          sample_prompts)
from mtpspec.dedup import FilterRules, dedup_and_filter, repetition_ratio
from mtpspec.model import ModelConfig, init_model
from mtpspec.specdec import baseline_decode, read_round_log, speculative_decode, tau_from_records
from mtpspec.tensor import grad_check
from mtpspec.training import (TrainConfig, _contributing_counts, backbone_hidden,
                              head_stream_loss, step_weights)
from mtpspec.vocab import compress_vocab, identity_vocab, size_for_coverage


def _report(criterion: int, passed: bool, detail: str):
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class TestCriterion1Losslessness:
    def test_speculative_equals_baseline_everywhere(self, stack):
        t0 = time.time()
        merged = None
        for table in stack.tables.values():
            merged = table if merged is None else merged + table
        quarter = compress_vocab(merged, 128, SPECIAL_TOKENS, main=stack.main)
        six_pct = compress_vocab(merged, 31, SPECIAL_TOKENS, main=stack.main)

        prompts = [p for tag in LANG_TAGS for p in sample_prompts(tag, 101, 20, 24)]
        assert len(prompts) >= 100
        mismatches = 0
        checked = 0
        for prompt in prompts:
            expected = baseline_decode(stack.main, prompt, 32, eos_token=EOS_TOKEN)
            for k in (1, 2, 3, 4):
                for vocab in (None, quarter, six_pct):
                    got, _ = speculative_decode(stack.main, stack.finetuned, prompt,
                                                32, k, vocab=vocab,
                                                eos_token=EOS_TOKEN)
                    checked += 1
                    if got != expected:
                        mismatches += 1
        elapsed = time.time() - t0
        _report(1, mismatches == 0 and elapsed < 120,
                f"{checked} decodes over {len(prompts)} prompts, K in 1..4, "
                f"3 vocab modes, {mismatches} mismatches, {elapsed:.1f}s")


class TestCriterion2GradientFidelity:
    def test_full_mtp_loss_gradcheck(self):
        t0 = time.time()
        cfg_model = ModelConfig(vocab_size=16, model_dim=8, n_layers=2, n_heads=2,
                                max_seq_len=32, seed=17)
        main, head = init_model(cfg_model)
        rng = np.random.default_rng(3)
        tokens = rng.integers(16, size=12).tolist()
        cfg = TrainConfig(k_steps=3, beta=0.6)
        ex = TrainingExample(prompt=tokens[:4], response=tokens[4:],
                             lang="t", source="t")
        alphas = step_weights(cfg.k_steps, cfg.beta)
        counts = _contributing_counts([ex], cfg)
        scales = [a / c for a, c in zip(alphas, counts)]
        hidden = backbone_hidden(main, tokens)

        def loss():
            return head_stream_loss(head, hidden, tokens, 4, cfg, scales)[0]

        err = grad_check(loss, head.parameters().values(), eps=1e-5)
        elapsed = time.time() - t0
        _report(2, err < 1e-4,
                f"d=8 V=16 T=12 K=3 max relative error {err:.2e} ({elapsed:.1f}s)")


class TestCriterion3LossWeights:
    def test_reference_values_and_normalization(self):
        w = step_weights(3, 0.6)
        ref = [0.510204, 0.306122, 0.183673]
        value_ok = all(abs(a - b) < 1e-9 for a, b in
                       zip(w, [25 / 49, 15 / 49, 9 / 49]))
        close_ok = all(abs(a - b) < 5e-7 for a, b in zip(w, ref))
        rng = np.random.default_rng(0)
        sums_ok = True
        for _ in range(1000):
            k = int(rng.integers(1, 16))
            beta = float(rng.uniform(1e-4, 1.0))
            sums_ok &= abs(sum(step_weights(k, beta)) - 1.0) < 1e-12
        _report(3, value_ok and close_ok and sums_ok,
                f"step_weights(3, 0.6)={[round(x, 6) for x in w]}, "
                f"1000 random (K, beta) sums within 1e-12")


class TestCriterion4RecursionTraining:
    def test_rates_and_tau_margins(self, stack):
        t0 = time.time()
        fine = pool_metrics(stack.main, stack.finetuned, [("zh", 32)], 3)
        base = pool_metrics(stack.main, stack.untrained, [("zh", 32)], 3)
        ordered = fine.rates[0] >= fine.rates[1] >= fine.rates[2]
        doubled = all(f >= 2 * u for f, u in zip(fine.rates, base.rates))
        tau_margin = fine.tau - base.tau >= 0.5
        cycle = pool_metrics(stack.main, stack.finetuned, [("cycle", 12)], 3)
        budget = stack.build_seconds + (time.time() - t0)
        _report(4, ordered and doubled and tau_margin and cycle.tau >= 3.8
                and budget < 1800,
                f"rates={[round(r, 3) for r in fine.rates]} "
                f"(untrained {[round(r, 3) for r in base.rates]}), "
                f"tau {fine.tau:.3f} vs {base.tau:.3f}, "
                f"cycle tau={cycle.tau:.3f}, "
                f"train+eval {budget:.0f}s")


class TestCriterion5DraftDepthSweep:
    def test_sweep_shape_and_interior_optimum(self, stack):
        prompts = sample_prompts("zh", 23, 16, 24)
        task = BenchTask(name="zh", prompts=prompts, lang="zh", max_new_tokens=48)
        rows = sweep_draft_depth(task, range(0, 7), main=stack.main,
                                 head=stack.finetuned)
        taus = [r.tau for r in rows]
        nondecreasing = all(a <= b + 1e-12 for a, b in zip(taus, taus[1:]))
        c_draft = rows[1].c_draft
        k_star = argmax_speedup(rows)
        brute = max(rows, key=lambda r: r.analytic_speedup)
        interior_ok = (c_draft < 0.05) or (1 <= k_star <= 6)
        _report(5, nondecreasing and interior_ok and brute.k == k_star,
                f"tau(K)={[round(t, 3) for t in taus]}, c_draft={c_draft:.3f}, "
                f"K*={k_star} (brute force {brute.k})")


class TestCriterion6VocabTradeoff:
    def test_coverage_identity_and_dispatch(self, stack):
        table = stack.tables["syn-a"]
        size99 = size_for_coverage(table, 0.99, specials=SPECIAL_TOKENS)
        cv99 = compress_vocab(table, size99, SPECIAL_TOKENS, main=stack.main)
        covered = table.coverage(cv99.keep)

        mix = [("syn-a", 16)]
        full = pool_metrics(stack.main, stack.finetuned, mix, 3)
        comp = pool_metrics(stack.main, stack.finetuned, mix, 3, vocab=cv99)
        ident = pool_metrics(stack.main, stack.finetuned, mix, 3,
                             vocab=identity_vocab(stack.main))
        drop = full.tau - comp.tau
        ident_drop = full.tau - ident.tau

        d = stack.config.model_dim
        v = stack.config.vocab_size
        mults_ok = (comp.draft_mults == comp.draft_steps * size99 * d
                    and full.draft_mults == full.draft_steps * v * d)

        cv_zh = compress_vocab(stack.tables["zh"], 64, SPECIAL_TOKENS, main=stack.main)
        cv_en = compress_vocab(stack.tables["en"], 64, SPECIAL_TOKENS, main=stack.main)
        zh_with_zh = pool_metrics(stack.main, stack.finetuned, [("zh", 12)], 3,
                                  vocab=cv_zh)
        zh_with_en = pool_metrics(stack.main, stack.finetuned, [("zh", 12)], 3,
                                  vocab=cv_en)

        _report(6, covered >= 0.99 and drop <= 0.1 and ident_drop == 0.0
                and mults_ok and zh_with_zh.tau > zh_with_en.tau,
                f"keep={size99}/{v} coverage={covered:.4f} tau drop={drop:.4f}, "
                f"identity drop={ident_drop}, per-step mults proportional, "
                f"zh-vocab tau {zh_with_zh.tau:.3f} > en-vocab tau "
                f"{zh_with_en.tau:.3f} on the Chinese task")


class TestCriterion7MetricConsistency:
    def test_log_replay_and_baseline_unity(self, stack, tmp_path):
        tasks = [BenchTask(name=tag, prompts=sample_prompts(tag, 43, 6, 24),
                           lang=tag, max_new_tokens=32)
                 for tag in ("syn-a", "zh")]
        rows = run_benchmark(tasks, main=stack.main, finetuned_head=stack.finetuned,
                             k_depth=3, log_dir=str(tmp_path))
        baselines_exact = all(r.tau == 1.0 for r in rows if r.method == "baseline")
        replay_ok = True
        for row in rows:
            if row.method == "baseline":
                continue
            records = read_round_log(
                tmp_path / f"rounds_{row.task}_finetuned-head_k3.jsonl")
            replay_ok &= abs(tau_from_records(records) - row.tau) < 1e-9
        _report(7, baselines_exact and replay_ok,
                f"{len(rows)} rows; baseline tau exactly 1.00; "
                f"log-replay tau matches within 1e-9")


class TestCriterion8FrozenBackbone:
    def test_backbone_bytes_unchanged_by_head_training(self, stack):
        params = stack.main.parameters()
        same = all(np.array_equal(stack.backbone_snapshot[name], p.data)
                   and stack.backbone_snapshot[name].dtype == p.data.dtype
                   for name, p in params.items())
        locked = all(not p.data.flags.writeable for p in params.values())
        _report(8, same and locked,
                f"{len(params)} backbone tensors byte-identical after head "
                f"training and write-locked")


class TestCriterion9DedupFilter:
    def test_dedup_and_repetition_rules(self):
        rng = np.random.default_rng(0)
        toks = rng.integers(512, size=40).tolist()
        dup_pair = [TrainingExample(toks[:4], toks[4:], "t", "a"),
                    TrainingExample(toks[:4], toks[4:], "t", "b")]
        dup_ok = len(dedup_and_filter(dup_pair, 0.9)) == 1

        disjoint = [TrainingExample(list(range(4)), list(range(4, 40)), "t", "a"),
                    TrainingExample(list(range(100, 104)), list(range(104, 140)), "t", "b")]
        disjoint_ok = all(len(dedup_and_filter(disjoint, th)) == 2
                          for th in (0.1, 0.5, 0.99))

        block = [7, 11, 13, 17]
        repeat = TrainingExample([1, 2], block * 50, "t", "a")
        ratio = repetition_ratio(repeat.response, 4)
        rep_ok = (dedup_and_filter([repeat], 0.9) == []
                  and ratio > FilterRules().max_ngram_ratio)
        _report(9, dup_ok and disjoint_ok and rep_ok,
                f"exact duplicates collapse, disjoint survive any threshold, "
                f"4-gram x50 repetition ratio {ratio:.3f} fires the rule")
