"""Training-side tests: loss weights, masking, gradients, optimizer loops."""

import numpy as np
import pytest

from mtpspec.data import TrainingExample, make_examples
from mtpspec.errors import ConfigError, StateError, TrainingDiverged
from mtpspec.model import ModelConfig, init_model, mtp_step
from mtpspec.tensor import grad_check, softmax_cross_entropy, transpose
from mtpspec.training import (
    AdamW, TrainConfig, backbone_hidden, cosine_lr, head_stream_loss,
    mtp_training_loss, pretrain_main, step_mask_bounds, step_weights,
    train_mtp_head,
)

TOY = ModelConfig(vocab_size=16, model_dim=8, n_layers=2, n_heads=2,
                  max_seq_len=32, seed=7)


def toy_example(seed=0, total=12, prompt_len=4, vocab=16):
    rng = np.random.default_rng(seed)
    toks = rng.integers(vocab, size=total).tolist()
    return TrainingExample(prompt=toks[:prompt_len], response=toks[prompt_len:],
                           lang="syn-a", source="test")


class TestStepWeights:
    def test_reference_values(self):
        w = step_weights(3, 0.6)
        np.testing.assert_allclose(w, [0.510204, 0.306122, 0.183673], atol=5e-7)

    def test_no_decay_gives_uniform(self):
        np.testing.assert_allclose(step_weights(4, 1.0), [0.25] * 4, atol=1e-15)

    def test_single_step(self):
        assert step_weights(1, 0.3) == [1.0]

    def test_sum_to_one_and_strictly_decreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            beta = float(rng.uniform(1e-3, 1.0))
            w = step_weights(k, beta)
            assert abs(sum(w) - 1.0) < 1e-12
            if beta < 1.0:
                assert all(a > b for a, b in zip(w, w[1:]))

    def test_invalid_beta(self):
        with pytest.raises(ConfigError):
            step_weights(3, 0.0)
        with pytest.raises(ConfigError):
            step_weights(3, 1.5)


class TestMaskBounds:
    def test_window_respects_prompt_and_depth(self):
        # T=12, K=3: source window ends at T-1-K=8; step 3 loses one more slot
        assert step_mask_bounds(12, 3, 4, 1) == (2, 8)
        assert step_mask_bounds(12, 3, 4, 2) == (1, 8)
        assert step_mask_bounds(12, 3, 4, 3) == (0, 7)

    def test_targets_stay_in_response(self):
        seq_len, k_steps, prompt_len = 12, 3, 4
        for k in range(1, k_steps + 1):
            lo, hi = step_mask_bounds(seq_len, k_steps, prompt_len, k)
            for p in range(lo, hi + 1):
                target = p + k + 1
                assert prompt_len <= target <= seq_len - 1

    def test_minimum_length_sequence(self):
        # T=K+1 leaves the deepest step without any valid target
        lo, hi = step_mask_bounds(4, 3, 1, 3)
        assert hi < lo


class TestMtpTrainingLoss:
    def test_report_total_is_weighted_sum(self):
        main, head = init_model(TOY)
        cfg = TrainConfig(k_steps=3, beta=0.6, epochs=1)
        batch = [toy_example(i) for i in range(3)]
        report = mtp_training_loss(main, head, batch, cfg)
        alphas = step_weights(3, 0.6)
        expected = sum(a * l for a, l in zip(alphas, report.step_losses))
        assert report.total == pytest.approx(expected, abs=1e-10)

    def test_backbone_gradients_stay_absent(self):
        main, head = init_model(TOY)
        cfg = TrainConfig(k_steps=2, beta=0.6)
        mtp_training_loss(main, head, [toy_example()], cfg)
        assert all(p.grad is None for p in main.parameters().values())
        assert any(p.grad is not None for p in head.parameters().values())

    def test_short_sequences_skipped_and_counted(self):
        main, head = init_model(TOY)
        cfg = TrainConfig(k_steps=4, beta=0.6)
        short = TrainingExample(prompt=[1], response=[2, 3], lang="x", source="t")
        report = mtp_training_loss(main, head, [short, toy_example()], cfg)
        assert report.skipped == 1

    def test_k1_matches_hand_rolled_single_step(self):
        # independent oracle: per-position one-step shifted cross-entropy
        main, head = init_model(TOY)
        cfg = TrainConfig(k_steps=1, beta=0.9)
        ex = toy_example(3)
        report = mtp_training_loss(main, head, [ex], cfg)

        tokens = np.asarray(ex.tokens)
        seq_len, prompt_len = tokens.size, len(ex.prompt)
        h = backbone_hidden(main, tokens)
        _, pre = mtp_step(head, h[:-1], tokens[1:])
        logits = (pre @ transpose(head.embed, (1, 0))).data
        losses = []
        for p in range(seq_len - 1):
            target = p + 2
            if target > seq_len - 1 or target < prompt_len or p > seq_len - 2:
                continue
            # uniform window at K=1: p <= seq_len - 3
            if p > seq_len - 3:
                continue
            losses.append(softmax_cross_entropy(logits[p], int(tokens[target]))[0])
        assert report.step_losses[0] == pytest.approx(np.mean(losses), abs=1e-10)
        assert report.total == pytest.approx(np.mean(losses), abs=1e-10)

    def test_masked_steps_invariant_to_last_token(self):
        # the final token can only reach the loss as a target of the two
        # deepest steps; shallower step losses must be bit-identical
        main, head = init_model(TOY)
        cfg = TrainConfig(k_steps=3, beta=0.6)
        ex = toy_example(5)
        mutated_tokens = ex.tokens
        mutated_tokens[-1] = (mutated_tokens[-1] + 1) % TOY.vocab_size
        mutated = TrainingExample(prompt=ex.prompt,
                                  response=mutated_tokens[len(ex.prompt):],
                                  lang=ex.lang, source=ex.source)
        a = mtp_training_loss(main, head, [ex], cfg)
        b = mtp_training_loss(main, head, [mutated], cfg)
        assert a.step_losses[0] == b.step_losses[0]
        assert a.step_losses[1] != b.step_losses[1] or a.step_losses[2] != b.step_losses[2]

    def test_gradients_match_finite_differences(self):
        main, head = init_model(ModelConfig(vocab_size=16, model_dim=8, n_layers=1,
                                            n_heads=2, max_seq_len=16, seed=11))
        cfg = TrainConfig(k_steps=2, beta=0.6)
        ex = toy_example(9, total=8, prompt_len=3)
        h = backbone_hidden(main, ex.tokens)
        from mtpspec.training import _contributing_counts
        alphas = step_weights(cfg.k_steps, cfg.beta)
        counts = _contributing_counts([ex], cfg)
        scales = [a / c for a, c in zip(alphas, counts)]

        def loss():
            return head_stream_loss(head, h, ex.tokens, len(ex.prompt), cfg, scales)[0]

        err = grad_check(loss, head.parameters().values(), eps=1e-5)
        assert err < 1e-4


class TestOptimizer:
    def test_cosine_schedule_shape(self):
        total, peak = 100, 1.0
        lrs = [cosine_lr(s, total, peak, warmup_ratio=0.1) for s in range(total)]
        assert lrs[0] < lrs[5] <= peak
        assert max(lrs) == pytest.approx(peak)
        assert lrs[-1] < 0.01
        assert np.argmax(lrs) == 9  # end of warmup

    def test_adamw_moves_only_grad_params(self):
        from mtpspec.tensor import Tensor
        p = Tensor(np.ones(3), requires_grad=True)
        frozen = Tensor(np.ones(3), requires_grad=False)
        opt = AdamW({"p": p, "f": frozen}, lr=0.1)
        p.grad = np.ones(3)
        opt.step()
        assert not np.allclose(p.data, 1.0)
        np.testing.assert_array_equal(frozen.data, np.ones(3))


class TestTrainMtpHead:
    def _frozen_toy(self):
        main, head = init_model(TOY)
        main.freeze()
        return main, head

    def test_zero_epochs_leaves_head_unchanged(self):
        main, head = self._frozen_toy()
        before = {k: v.data.copy() for k, v in head.parameters().items()}
        train_mtp_head([toy_example()], main, head, TrainConfig(epochs=0))
        for k, v in head.parameters().items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_requires_frozen_backbone(self):
        main, head = init_model(TOY)
        with pytest.raises(StateError):
            train_mtp_head([toy_example()], main, head, TrainConfig(epochs=1))

    def test_deterministic_given_seed(self):
        data = [toy_example(i) for i in range(6)]
        cfg = TrainConfig(k_steps=2, epochs=2, batch_size=3, lr=1e-3, seed=5)
        outs = []
        for _ in range(2):
            main, head = self._frozen_toy()
            train_mtp_head(data, main, head, cfg)
            outs.append({k: v.data.copy() for k, v in head.parameters().items()})
        for k in outs[0]:
            np.testing.assert_array_equal(outs[0][k], outs[1][k])

    def test_periodic_corpus_drives_all_step_losses_low(self):
        # period-4 cycles are exactly learnable: analytic entropy is zero,
        # so every per-step loss should approach it
        cfg_model = ModelConfig(vocab_size=512, model_dim=48, n_layers=1,
                                n_heads=4, max_seq_len=48, seed=3)
        main, head = init_model(cfg_model)
        seqs = [ex.tokens for ex in
                make_examples("cycle", seed=4, count=16, prompt_len=4, response_len=20)]
        pretrain_main(seqs, main, TrainConfig(lr=1e-2, epochs=30, batch_size=4, seed=6))
        data = make_examples("cycle", seed=1, count=24, prompt_len=4, response_len=20)
        cfg = TrainConfig(k_steps=3, beta=0.6, lr=1e-2, epochs=30, batch_size=4, seed=2)
        result = train_mtp_head(data, main, head, cfg)
        final = result.final_epoch_step_means(steps_per_epoch=6)
        assert all(l < 0.05 for l in final), final


class TestPretrainMain:
    def test_freezes_and_learns_cycle(self):
        cfg_model = ModelConfig(vocab_size=512, model_dim=48, n_layers=1,
                                n_heads=4, max_seq_len=48, seed=9)
        main, _ = init_model(cfg_model)
        seqs = [ex.tokens for ex in
                make_examples("cycle", seed=4, count=16, prompt_len=4, response_len=20)]
        curve = pretrain_main(seqs, main, TrainConfig(lr=1e-2, epochs=30, batch_size=4, seed=6))
        assert main.frozen
        assert curve[-1] < 0.1 < curve[0]

    def test_rejects_already_frozen(self):
        main, _ = init_model(TOY)
        main.freeze()
        with pytest.raises(StateError):
            pretrain_main([[1, 2, 3]], main, TrainConfig(epochs=1))


class TestOptimizerLoop:
    """Both trainers: one cosine-scheduled optimizer step per batch."""

    def _run(self, trainer, main, head, data, cfg):
        if trainer == "pretrain":
            return pretrain_main([ex.tokens for ex in data], main, cfg)
        main.freeze()
        return train_mtp_head(data, main, head, cfg)

    @pytest.mark.parametrize("trainer", ["pretrain", "head"])
    def test_lr_schedule_per_step(self, monkeypatch, trainer):
        lrs = []
        step = AdamW.step

        def recording_step(self, lr=None):
            lrs.append(lr)
            step(self, lr)

        monkeypatch.setattr(AdamW, "step", recording_step)
        main, head = init_model(TOY)
        cfg = TrainConfig(k_steps=2, lr=1e-2, warmup_ratio=0.34, epochs=2, batch_size=2,
                          seed=3)
        out = self._run(trainer, main, head, [toy_example(i) for i in range(5)], cfg)
        assert lrs == [cosine_lr(s, 6, cfg.lr, cfg.warmup_ratio) for s in range(6)]
        if trainer == "pretrain":
            assert len(out) == 6
        else:
            assert [r.step for r in out.reports] == list(range(6))

    @pytest.mark.parametrize("trainer", ["pretrain", "head"])
    def test_nan_weight_diverges(self, trainer):
        main, head = init_model(TOY)
        weight = main.final_norm if trainer == "pretrain" else head.norm_hidden
        weight.data[0] = np.nan
        with pytest.raises(TrainingDiverged):
            self._run(trainer, main, head, [toy_example(i) for i in range(3)],
                      TrainConfig(k_steps=2, epochs=1, batch_size=2))
