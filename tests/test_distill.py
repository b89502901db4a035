"""Self-distillation generation behavior (untrained backbones suffice here)."""

import numpy as np
import pytest

from mtpspec import distill
from mtpspec.distill import GenerationConfig, generate, sample_token, self_distill
from mtpspec.errors import CapacityError, ConfigError, NumericError
from mtpspec.model import ModelConfig, init_model
from mtpspec.specdec import baseline_decode
from oracles import sample_token as sample_token_oracle

CFG = ModelConfig(vocab_size=64, model_dim=16, n_layers=1, n_heads=2,
                  max_seq_len=64, seed=21)


@pytest.fixture(scope="module")
def main():
    model, _ = init_model(CFG)
    model.freeze()
    return model


class TestGenerationConfig:
    @pytest.mark.parametrize("field, value", [
        ("temperature", -1.0), ("temperature", float("nan")),
        ("top_k", -2),
        ("top_p", 0.0), ("top_p", -0.5), ("top_p", 1.01),
        ("max_new_tokens", 0), ("max_new_tokens", -3),
    ])
    def test_bad_settings_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GenerationConfig(**{field: value})


class TestSampleToken:
    def test_temperature_zero_is_argmax(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=32)
        cfg = GenerationConfig(temperature=0.0)
        assert sample_token(rng, logits, cfg) == int(np.argmax(logits))

    def test_top_k_one_is_argmax(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=32)
        cfg = GenerationConfig(temperature=1.0, top_k=1, top_p=1.0)
        for _ in range(5):
            assert sample_token(rng, logits, cfg) == int(np.argmax(logits))

    def test_top_p_restricts_support(self):
        logits = np.log(np.array([0.6, 0.3, 0.05, 0.05]))
        cfg = GenerationConfig(temperature=1.0, top_k=0, top_p=0.85)
        rng = np.random.default_rng(2)
        seen = {sample_token(rng, logits, cfg) for _ in range(200)}
        assert seen <= {0, 1}

    def test_samples_restricted_to_top_k(self):
        rng = np.random.default_rng(3)
        logits = np.linspace(0, 3, 16)
        cfg = GenerationConfig(temperature=1.0, top_k=4, top_p=1.0)
        seen = {sample_token(rng, logits, cfg) for _ in range(200)}
        assert seen <= {12, 13, 14, 15}

    # rows of 8, 64 and 512 logits, every third one rounded so that ties
    # abound, under six settings that include top_k=0 and top_p=1.0
    def test_equals_choice_oracle(self):
        settings = [GenerationConfig(), GenerationConfig(temperature=1.0, top_k=0, top_p=1.0),
                    GenerationConfig(temperature=0.3, top_k=5, top_p=0.5),
                    GenerationConfig(temperature=1.5, top_k=0, top_p=0.9),
                    GenerationConfig(temperature=0.8, top_k=50, top_p=1.0),
                    GenerationConfig(temperature=2.0, top_k=1, top_p=0.95)]
        rows = np.random.default_rng(5)
        rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
        for i in range(1200):
            logits = rows.normal(scale=3.0, size=(8, 64, 512)[i % 3])
            if i // 3 % 3 == 0:
                logits = np.round(logits)
            cfg = settings[i // 9 % len(settings)]
            assert sample_token(rng, logits, cfg) == sample_token_oracle(oracle_rng, logits, cfg)
            assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_rejected(self, bad):
        logits = np.linspace(0, 3, 16)
        logits[5] = bad
        with pytest.raises(NumericError, match="non-finite logit"):
            sample_token(np.random.default_rng(7), logits, GenerationConfig(temperature=0.6))


class TestGenerate:
    def test_temperature_zero_matches_baseline(self, main):
        cfg = GenerationConfig(temperature=0.0, max_new_tokens=12, eos_token=None)
        rng = np.random.default_rng(4)
        prompt = [3, 9, 27]
        tokens, truncated = generate(main, prompt, cfg, rng)
        assert tokens == baseline_decode(main, prompt, 12, eos_token=None)
        assert truncated  # no EOS id in play, so the cap always hits

    def test_eos_terminates(self, main):
        base = baseline_decode(main, [5, 6], 16, eos_token=None)
        eos = base[4]
        cfg = GenerationConfig(temperature=0.0, max_new_tokens=16, eos_token=eos)
        tokens, truncated = generate(main, [5, 6], cfg, np.random.default_rng(5))
        assert tokens[-1] == eos and not truncated


class TestSelfDistill:
    def test_same_seed_identical_dataset(self, main):
        prompts = [([1, 2, 3], "syn-a"), ([7, 8, 9], "syn-b")]
        cfg = GenerationConfig(max_new_tokens=10, seed=9, eos_token=None)
        a = self_distill(prompts, main, cfg)
        b = self_distill(prompts, main, cfg)
        assert [ex.to_json() for ex in a] == [ex.to_json() for ex in b]

    def test_examples_tagged_and_sourced(self, main):
        cfg = GenerationConfig(max_new_tokens=6, seed=1, eos_token=None)
        exs = self_distill([([2, 4], "zh")], main, cfg)
        assert exs[0].lang == "zh"
        assert exs[0].source == "self-distill"
        assert exs[0].prompt == [2, 4]
        assert len(exs[0].response) == 6 and exs[0].truncated

    def test_seed_change_perturbs_responses(self, main):
        prompts = [([1, 2, 3], "syn-a")] * 4
        a = self_distill(prompts, main, GenerationConfig(max_new_tokens=12, seed=0,
                                                         eos_token=None))
        b = self_distill(prompts, main, GenerationConfig(max_new_tokens=12, seed=1,
                                                         eos_token=None))
        assert any(x.response != y.response for x, y in zip(a, b))

    def test_prompt_beyond_capacity_rejected_before_generating(self, monkeypatch):
        # 30 prompt tokens + 10 new ones cannot fit 32 positions; the first prompt fits
        model, _ = init_model(ModelConfig(vocab_size=64, model_dim=16, n_layers=1, n_heads=2,
                                          max_seq_len=32, seed=21))
        model.freeze()
        calls = []
        real = distill.generate
        monkeypatch.setattr(distill, "generate", lambda *a: calls.append(1) or real(*a))
        prompts = [([1, 2], "syn-a"), (list(range(30)), "syn-b")]
        with pytest.raises(CapacityError, match="prompt 1"):
            self_distill(prompts, model, GenerationConfig(max_new_tokens=10, eos_token=None))
        assert calls == []
        assert len(self_distill(prompts[:1], model,
                                GenerationConfig(max_new_tokens=30, eos_token=None))) == 1
