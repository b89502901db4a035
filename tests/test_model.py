"""Model-layer tests: forwards, KV cache semantics, init, checkpoints."""

import numpy as np
import pytest

from mtpspec.errors import CapacityError, ConfigError, ConsistencyError, NumericError, ShapeError
from mtpspec.model import (
    KVCache, ModelConfig, MainModel, MTPHead, greedy_argmax, init_model,
    load_checkpoint, main_forward, mtp_step,
)
from mtpspec.tensor import Tape, Tensor

CFG = ModelConfig(vocab_size=64, model_dim=16, n_layers=2, n_heads=2,
                  max_seq_len=48, seed=42)


@pytest.fixture(scope="module")
def models():
    return init_model(CFG)


class TestModelConfig:
    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=1)
        with pytest.raises(ConfigError):
            ModelConfig(model_dim=30, n_heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(max_seq_len=4)

    def test_head_dim_must_be_even(self):
        with pytest.raises(ConfigError):
            ModelConfig(model_dim=12, n_heads=4)


class TestInitModel:
    def test_same_seed_bit_identical(self):
        m1, h1 = init_model(CFG)
        m2, h2 = init_model(CFG)
        for a, b in zip(m1.parameters().values(), m2.parameters().values()):
            np.testing.assert_array_equal(a.data, b.data)
        for a, b in zip(h1.parameters().values(), h2.parameters().values()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_seed_change_differs(self):
        m1, _ = init_model(CFG)
        m2, _ = init_model(ModelConfig(**{**CFG.__dict__, "seed": 43}))
        assert any(
            not np.array_equal(a.data, b.data)
            for a, b in zip(m1.parameters().values(), m2.parameters().values())
        )

    def test_parameter_count_matches_analytic_formula(self):
        cfg = ModelConfig(vocab_size=512, model_dim=64, n_layers=2, n_heads=4,
                          max_seq_len=64, seed=0)
        main, head = init_model(cfg)
        d, v, layers = cfg.model_dim, cfg.vocab_size, cfg.n_layers
        block = 10 * d * d + 2 * d  # 4 attn mats + 3 swiglu mats (f=2d) + 2 norms
        assert main.parameter_count() == v * d + layers * block + d
        assert head.parameter_count() == 12 * d * d + 4 * d
        again, _ = init_model(cfg)
        assert again.parameter_count() == main.parameter_count()

    def test_head_shares_embedding_and_output_head_by_identity(self, models):
        main, head = models
        assert head.embed is main.embed
        assert head.final_norm is main.final_norm
        assert main.output_w is main.embed


class TestMainForward:
    def test_shape_contract_single_token(self, models):
        main, _ = models
        cache = main.new_cache()
        hidden, logits = main_forward(main, [3], cache)
        assert hidden.shape == (1, CFG.model_dim)
        assert logits.shape == (1, CFG.vocab_size)
        assert cache.length == 1

    def test_incremental_matches_batch(self, models):
        main, _ = models
        prompt = [5, 9, 2, 40, 17]
        _, batch_logits = main_forward(main, prompt, main.new_cache())
        cache = main.new_cache()
        last = None
        for t in prompt:
            _, last = main_forward(main, [t], cache)
        np.testing.assert_allclose(last.data[-1], batch_logits.data[-1], atol=1e-9)

    def test_repeated_runs_bit_identical(self, models):
        main, _ = models
        prompt = [1, 2, 3, 4]
        _, a = main_forward(main, prompt, main.new_cache())
        _, b = main_forward(main, prompt, main.new_cache())
        np.testing.assert_array_equal(a.data, b.data)

    def test_capacity_error(self, models):
        main, _ = models
        with pytest.raises(CapacityError):
            main_forward(main, list(range(10)) * 5, main.new_cache())

    def test_cache_consistency_against_scratch(self, models):
        # decode with cache == decode recomputed from scratch over the prefix
        main, _ = models
        rng = np.random.default_rng(0)
        tokens = rng.integers(CFG.vocab_size, size=12).tolist()
        cache = main.new_cache()
        main_forward(main, tokens[:7], cache)
        _, inc = main_forward(main, tokens[7:], cache)
        _, scratch = main_forward(main, tokens, main.new_cache())
        np.testing.assert_allclose(inc.data, scratch.data[7:], atol=1e-9)


class TestMTPStep:
    def test_shape_contract_and_cache_growth(self, models):
        main, head = models
        cache = head.new_cache()
        h_prev = np.random.default_rng(1).normal(size=(1, CFG.model_dim))
        h_new, pre = mtp_step(head, h_prev, [7], cache)
        assert h_new.shape == (1, CFG.model_dim)
        assert pre.shape == (1, CFG.model_dim)
        assert cache.length == 1

    def test_chained_calls_match_batched(self, models):
        _, head = models
        rng = np.random.default_rng(2)
        h = rng.normal(size=(2, CFG.model_dim))
        toks = [11, 23]

        c1 = head.new_cache()
        _, pre_batch = mtp_step(head, h, toks, c1)

        c2 = head.new_cache()
        mtp_step(head, h[:1], toks[:1], c2)
        _, pre_two = mtp_step(head, h[1:], toks[1:], c2)

        np.testing.assert_allclose(pre_two.data[0], pre_batch.data[1], atol=1e-9)

    def test_identity_configuration_reproduces_normed_hidden(self):
        main, head = init_model(CFG)
        d = CFG.model_dim
        # combine selects the hidden half; zero value/gate paths make the block an identity
        head.combine.data[...] = np.vstack([np.eye(d), np.zeros((d, d))])
        head.block.wv.data[...] = 0.0
        head.block.w_gate.data[...] = 0.0
        h_prev = np.random.default_rng(3).normal(size=(3, d))
        h_new, _ = mtp_step(head, h_prev, [1, 2, 3], head.new_cache())
        from mtpspec.tensor import Tensor, rms_norm
        expected = rms_norm(Tensor(h_prev), head.norm_hidden, CFG.rms_eps).data
        np.testing.assert_allclose(h_new.data, expected, atol=1e-12)

    def test_row_count_mismatch(self, models):
        _, head = models
        with pytest.raises(ShapeError):
            mtp_step(head, np.zeros((2, CFG.model_dim)), [1], head.new_cache())

    def test_purity_given_state(self, models):
        _, head = models
        h = np.random.default_rng(4).normal(size=(1, CFG.model_dim))
        c1, c2 = head.new_cache(), head.new_cache()
        a, _ = mtp_step(head, h, [5], c1)
        b, _ = mtp_step(head, h, [5], c2)
        np.testing.assert_array_equal(a.data, b.data)


class TestTapeFreeForward:
    """With no tape active the forwards run on plain arrays; their results
    must equal the taped forwards' bit for bit."""

    @staticmethod
    def free_and_taped(run):
        free = run()
        with Tape() as tape:
            taped = run()
        assert len(tape) > 0  # the second run really went through the tape
        assert all(isinstance(t, Tensor) for t in free + taped)
        return [t.data for t in free], [t.data for t in taped]

    def test_main_forward_matches_taped(self, models):
        main, _ = models

        def run():
            cache = main.new_cache()
            prefill = main_forward(main, [3, 9, 27, 1, 4, 33], cache)
            step = main_forward(main, [8], cache)
            verify = main_forward(main, [5, 6, 7, 2], cache)  # K+1 rows at K=3
            full = main_forward(main, list(range(40)))
            return [*prefill, *step, *verify, *full]

        free, taped = self.free_and_taped(run)
        for a, b in zip(free, taped):
            assert np.array_equal(a, b)

    def test_mtp_step_matches_taped(self, models):
        _, head = models
        h = np.random.default_rng(6).normal(size=(5, CFG.model_dim))

        def run():
            cache = head.new_cache()
            stream = mtp_step(head, h, [11, 23, 5, 9, 40], cache)
            draft = mtp_step(head, stream[0].data[-1:], [17], cache)
            return [*stream, *draft]

        free, taped = self.free_and_taped(run)
        for a, b in zip(free, taped):
            assert np.array_equal(a, b)


class TestGreedyArgmax:
    def test_basic(self):
        assert greedy_argmax(np.array([0.1, 0.9, 0.3])) == 1

    def test_tie_breaks_lowest_index(self):
        assert greedy_argmax(np.array([0.5, 0.5])) == 0

    def test_singleton(self):
        assert greedy_argmax(np.array([-1.0])) == 0

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            greedy_argmax(np.array([0.0, np.inf]))


class TestKVCache:
    def test_truncate_to_verified_prefix(self):
        cache = KVCache(1, 2, 4, 16)
        cache.advance(10)
        cache.truncate(6)
        assert cache.length == 6
        with pytest.raises(ValueError):
            cache.truncate(7)

    def test_capacity_guard(self):
        cache = KVCache(1, 2, 4, 8)
        cache.advance(8)
        with pytest.raises(CapacityError):
            cache.reserve(1)


class TestFreeze:
    def test_frozen_parameters_reject_writes(self):
        main, _ = init_model(CFG)
        main.freeze()
        assert main.frozen
        with pytest.raises(ValueError):
            main.embed.data[0, 0] = 1.0
        assert not main.embed.requires_grad


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, models):
        main, head = models
        cfg, arrays = None, None
        path = tmp_path / "main.npz"
        main.save(path)
        cfg, arrays = load_checkpoint(path)
        assert cfg == CFG
        for name, p in main.parameters().items():
            np.testing.assert_array_equal(arrays[name], p.data)

    def test_loaded_model_reproduces_logits(self, tmp_path):
        main, head = init_model(CFG)
        prompt = [4, 8, 15, 16]
        _, before = main_forward(main, prompt, main.new_cache())
        mp, hp = tmp_path / "main.npz", tmp_path / "head.npz"
        main.save(mp)
        head.save(hp)
        main2 = MainModel.load(mp)
        head2 = MTPHead.load(hp, main2)
        _, after = main_forward(main2, prompt, main2.new_cache())
        np.testing.assert_array_equal(before.data, after.data)
        h = np.random.default_rng(5).normal(size=(1, CFG.model_dim))
        a, _ = mtp_step(head, h, [3], head.new_cache())
        b, _ = mtp_step(head2, h, [3], head2.new_cache())
        np.testing.assert_array_equal(a.data, b.data)

    def test_config_mismatch_rejected(self, tmp_path):
        main, head = init_model(CFG)
        other_main, _ = init_model(ModelConfig(**{**CFG.__dict__, "model_dim": 32}))
        hp = tmp_path / "head.npz"
        head.save(hp)
        with pytest.raises(ConsistencyError):
            MTPHead.load(hp, other_main)
