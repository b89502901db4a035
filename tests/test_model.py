"""Model-layer tests: forwards, KV cache semantics, init, checkpoints."""

import contextlib
from pathlib import Path

import numpy as np
import pytest

from mtpspec.errors import (CapacityError, ConfigError, ConsistencyError, NumericError,
                            ShapeError, StateError)
from mtpspec.model import (
    CONTIGUOUS_HEAD_ROWS, KVCache, ModelConfig, MainModel, MTPHead, _load_into, greedy_argmax,
    greedy_rows, init_model, load_checkpoint, main_forward, mtp_step, token_input_table,
)
from mtpspec.specdec import DecodeSession
from mtpspec import tensor as tn
from mtpspec.tensor import Tape, Tensor, cross_entropy_rows, grad_check

STACK = Path(__file__).resolve().parents[1] / "perfbench" / "stack"

STACKS = {"qkv": ("wq", "wk", "wv"), "gate_up": ("w_gate", "w_up")}  # buffer: its views

CFG = ModelConfig(vocab_size=64, model_dim=16, n_layers=2, n_heads=2,
                  max_seq_len=48, seed=42)


@pytest.fixture(scope="module")
def models():
    return init_model(CFG)


def head_with_scaled_inputs(cfg: ModelConfig) -> MTPHead:
    """A fresh head whose `norm_embed` is not all ones, so it shows in its inputs."""
    _, head = init_model(cfg)
    head.norm_embed.data[...] = np.random.default_rng(7).normal(1.0, 0.3, size=cfg.model_dim)
    return head


def assert_token_table_parity(head: MTPHead) -> None:
    """A session's table holds, for every id, the bits of the per-token input."""
    cfg = head.config
    table = DecodeSession(head.main, head, [1], 1).token_table
    assert table.shape == (cfg.vocab_size, cfg.model_dim)
    for t in range(cfg.vocab_size):
        row = tn.Kernels.rms_norm(tn.Kernels.embedding(head.embed.data, [t]),
                                  head.norm_embed.data, cfg.rms_eps)
        assert np.array_equal(table[t:t + 1], row), t


def assert_draft_steps_equal_through_table(head: MTPHead, h, tokens) -> None:
    """Extension plus one draft step, with and without the token table: same bits."""
    table = token_input_table(head)

    def run(**table_arg):
        cache = head.new_cache()
        stream = mtp_step(head, h, tokens, cache, **table_arg)
        draft = mtp_step(head, stream[0].data[-1:], [17], cache, **table_arg)
        return [t.data for t in (*stream, *draft)]

    for a, b in zip(run(), run(token_table=table)):
        assert np.array_equal(a, b)


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
    must equal the taped forwards' bit for bit. A KV cache serves tape-free
    forwards only, so both sides run cache-free, at the row counts and
    positions of a decode."""

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
            prefill = main_forward(main, [3, 9, 27, 1, 4, 33])
            step = main_forward(main, [8])
            verify = main_forward(main, [5, 6, 7, 2])  # K+1 rows at K=3
            full = main_forward(main, list(range(40)))
            return [*prefill, *step, *verify, *full]

        free, taped = self.free_and_taped(run)
        for a, b in zip(free, taped):
            assert np.array_equal(a, b)

    def test_mtp_step_matches_taped(self, models):
        _, head = models
        h = np.random.default_rng(6).normal(size=(5, CFG.model_dim))

        def run():
            stream = mtp_step(head, h, [11, 23, 5, 9, 40])
            draft = mtp_step(head, stream[0].data[-1:], [17], pos_offset=5)
            return [*stream, *draft]

        free, taped = self.free_and_taped(run)
        for a, b in zip(free, taped):
            assert np.array_equal(a, b)

    def test_taped_backbone_loss_records_the_primitives_it_always_did(self):
        main, _ = init_model(ModelConfig())
        tokens = np.random.default_rng(13).integers(main.config.vocab_size, size=12)
        with Tape() as tape:
            _, logits = main_forward(main, tokens)
            cross_entropy_rows(logits, np.roll(tokens, -1), np.full(12, 0.5))
        assert len(tape) == 55  # 27 per block, embedding, final norm, projection, loss

    def test_token_table_rows_equal_per_token_inputs(self):
        assert_token_table_parity(head_with_scaled_inputs(CFG))

    def test_draft_step_through_token_table_equals_per_token(self):
        head = head_with_scaled_inputs(CFG)
        h = np.random.default_rng(6).normal(size=(5, CFG.model_dim))
        assert_draft_steps_equal_through_table(head, h, [11, 23, 5, 9, 40])

    def test_token_table_rejected_under_tape(self, models):
        _, head = models
        with Tape(), pytest.raises(StateError):
            mtp_step(head, np.zeros((1, CFG.model_dim)), [3], token_table=token_input_table(head))

    def test_main_forward_cache_rejected_under_tape(self, models):
        main, _ = models
        cache = main.new_cache()
        with Tape(), pytest.raises(StateError, match="KV cache"):
            main_forward(main, [3, 9, 27], cache)
        assert cache.length == 0

    def test_mtp_step_cache_rejected_under_tape(self, models):
        _, head = models
        cache = head.new_cache()
        with Tape(), pytest.raises(StateError, match="KV cache"):
            mtp_step(head, np.zeros((2, CFG.model_dim)), [3, 4], cache)
        assert cache.length == 0


def _filled(cache: KVCache, length: int) -> KVCache:
    cache.advance(length)
    return cache


def _rows(n: int, width: int = CFG.model_dim) -> np.ndarray:
    return np.ones((n, width))


# name: (forward call on (main, head), tape modes it applies in, error); the
# token table and the caches are tape-free only, the over-full ones hold arrays
MALFORMED = {
    "main-no-tokens": (lambda m, h: main_forward(m, []), "both", ShapeError),
    "main-2d-tokens": (lambda m, h: main_forward(m, [[1, 2]]), "both", ShapeError),
    "main-token-above": (lambda m, h: main_forward(m, [1, CFG.vocab_size]), "both", IndexError),
    "main-token-below": (lambda m, h: main_forward(m, [-1, 2]), "both", IndexError),
    "main-token-int64-min": (lambda m, h: main_forward(m, [1, np.iinfo(np.int64).min]), "both",
                             IndexError),
    "main-token-uint64-above": (lambda m, h: main_forward(m, np.array([1, 2**63], np.uint64)),
                                "both", IndexError),
    "main-float-tokens": (lambda m, h: main_forward(m, [1.7, 2]), "both", TypeError),
    "main-string-tokens": (lambda m, h: main_forward(m, ["3"]), "both", TypeError),
    "main-bool-tokens": (lambda m, h: main_forward(m, [True, False]), "both", TypeError),
    "main-complex-tokens": (lambda m, h: main_forward(m, [1 + 0j]), "both", TypeError),
    "main-object-tokens": (lambda m, h: main_forward(m, np.array([1, 2], object)), "both",
                           TypeError),
    "main-rotary-range": (lambda m, h: main_forward(m, [1] * (CFG.max_seq_len + 1)), "both",
                          CapacityError),
    "main-cache-full": (lambda m, h: main_forward(m, [1, 2], _filled(m.new_cache(), 47)),
                        "free", CapacityError),
    "main-cache-capacity": (lambda m, h: main_forward(m, [1, 2, 3], KVCache(2, 2, 8, 2)),
                            "free", CapacityError),
    "main-cache-taped": (lambda m, h: main_forward(m, [1], m.new_cache()), "taped", StateError),
    "step-no-tokens": (lambda m, h: mtp_step(h, _rows(0), []), "both", ShapeError),
    "step-2d-tokens": (lambda m, h: mtp_step(h, _rows(1), [[1]]), "both", ShapeError),
    "step-1d-hidden": (lambda m, h: mtp_step(h, np.ones(CFG.model_dim), [1]), "both", ShapeError),
    "step-hidden-width": (lambda m, h: mtp_step(h, _rows(2, CFG.model_dim + 1), [1, 2]), "both",
                          ShapeError),
    "step-row-count": (lambda m, h: mtp_step(h, _rows(2), [1]), "both", ShapeError),
    "step-token-above": (lambda m, h: mtp_step(h, _rows(2), [1, CFG.vocab_size]), "both",
                         IndexError),
    "step-token-below": (lambda m, h: mtp_step(h, _rows(1), [-1]), "both", IndexError),
    "step-token-int64-min": (lambda m, h: mtp_step(h, _rows(1), [np.iinfo(np.int64).min]),
                             "both", IndexError),
    "step-float-tokens": (lambda m, h: mtp_step(h, _rows(1), [1.0]), "both", TypeError),
    "step-string-tokens": (lambda m, h: mtp_step(h, _rows(1), ["3"]), "both", TypeError),
    "step-bool-tokens": (lambda m, h: mtp_step(h, _rows(1), [True]), "both", TypeError),
    "step-table-token": (lambda m, h: mtp_step(h, _rows(1), [CFG.vocab_size],
                                               token_table=token_input_table(h)), "free",
                         IndexError),
    "step-rotary-range": (lambda m, h: mtp_step(h, _rows(2), [1, 2], pos_offset=47), "both",
                          CapacityError),
    "step-rotary-negative": (lambda m, h: mtp_step(h, _rows(1), [1], pos_offset=-1), "both",
                             CapacityError),
    "step-cache-full": (lambda m, h: mtp_step(h, _rows(2), [1, 2], _filled(h.new_cache(), 47)),
                        "free", CapacityError),
    "step-table-taped": (lambda m, h: mtp_step(h, _rows(1), [1], token_table=token_input_table(h)),
                         "taped", StateError),
    "step-cache-taped": (lambda m, h: mtp_step(h, _rows(1), [1], h.new_cache()), "taped",
                         StateError),
}


@pytest.mark.parametrize("name,mode", [
    pytest.param(name, mode, id=f"{name}-{mode}")
    for name, (_, modes, _) in MALFORMED.items()
    for mode in (("free", "taped") if modes == "both" else (modes,))])
def test_malformed_forward_inputs_raise_typed_errors(models, name, mode):
    """The forwards check their inputs where they enter, on both tape modes."""
    call, _, error = MALFORMED[name]
    main, head = models
    if mode == "free":
        with pytest.raises(error):
            call(main, head)
    else:
        with Tape(), pytest.raises(error):
            call(main, head)


@pytest.mark.parametrize("taped", [False, True], ids=["free", "taped"])
def test_strided_token_ids_are_accepted(models, taped):
    """Ids need only be integers: a strided int64 array reads like its copy."""
    main, head = models
    ids = np.arange(10)[::2]

    def run(tokens):
        with Tape() if taped else contextlib.nullcontext():
            return [t.data for t in (*main_forward(main, tokens),
                                     *mtp_step(head, _rows(ids.size), tokens))]

    for a, b in zip(run(ids), run(ids.copy())):
        assert np.array_equal(a, b)


class TestDeskShape:
    """The stacked Q/K/V and gate/up products equal the per-projection ones
    only as a property of BLAS at real shapes, so they are pinned at the
    desk config."""

    @pytest.fixture(scope="class")
    def desk(self):
        return init_model(ModelConfig())

    def test_main_forward_matches_taped(self, desk):
        main, _ = desk
        prompt = np.random.default_rng(2).integers(main.config.vocab_size, size=24).tolist()

        def run():
            prefill = main_forward(main, prompt)
            verify = main_forward(main, [5, 6, 7, 2])
            step = main_forward(main, [8])
            full = main_forward(main, (prompt * 6)[:main.config.max_seq_len])
            return [*prefill, *verify, *step, *full]

        free, taped = TestTapeFreeForward.free_and_taped(run)
        assert taped[-1].shape == (128, 512)
        for a, b in zip(free, taped):
            assert np.array_equal(a, b)

    def test_mtp_step_matches_taped(self, desk):
        _, head = desk
        h = np.random.default_rng(3).normal(size=(24, head.config.model_dim))
        tokens = np.random.default_rng(4).integers(head.config.vocab_size, size=24).tolist()

        def run():
            stream = mtp_step(head, h, tokens)
            draft = mtp_step(head, stream[0].data[-1:], [17], pos_offset=len(tokens))
            return [*stream, *draft]

        free, taped = TestTapeFreeForward.free_and_taped(run)
        for a, b in zip(free, taped):
            assert np.array_equal(a, b)

    def test_token_table_rows_equal_per_token_inputs(self):
        assert_token_table_parity(head_with_scaled_inputs(ModelConfig()))

    def test_draft_step_through_token_table_equals_per_token(self):
        head = head_with_scaled_inputs(ModelConfig())
        h = np.random.default_rng(3).normal(size=(24, head.config.model_dim))
        tokens = np.random.default_rng(4).integers(head.config.vocab_size, size=24).tolist()
        assert_draft_steps_equal_through_table(head, h, tokens)

    @pytest.mark.parametrize("buffer, m", [  # the Q/K/V cases are named by m alone
        pytest.param(buffer, m, id=str(m) if buffer == "qkv" else f"{buffer}-{m}")
        for buffer in STACKS for m in (1, 4, 24, 57, 128)])
    def test_stacked_product_equals_separate_products(self, desk, buffer, m):
        blk = desk[0].blocks[0]
        stack = getattr(blk, buffer)
        rng = np.random.default_rng(m)
        a = Tensor(rng.normal(size=(m, 64)), requires_grad=True)
        g = rng.normal(size=(len(stack), m, stack.shape[-1]))
        parts = [Tensor(getattr(blk, name).data, requires_grad=True) for name in STACKS[buffer]]
        with Tape() as tape:
            out = tn.matmul(a, tn.stacked(stack, parts))
            tape.backward(tn.sum_all(tn.mul(out, Tensor(g))))
        expected = g[-1] @ parts[-1].data.T
        for i in range(len(parts) - 2, -1, -1):
            expected += g[i] @ parts[i].data.T
        assert np.array_equal(a.grad, expected)
        for i, w in enumerate(parts):
            assert np.array_equal(out.data[i], a.data @ w.data)
            assert np.array_equal(w.grad, a.data.T @ g[i])

    @staticmethod
    def assert_views_of_one_buffer(desk, buffer):
        main, head = desk
        for blk in [*main.blocks, head.block]:
            stack = getattr(blk, buffer)
            for i, name in enumerate(STACKS[buffer]):
                w = getattr(blk, name)
                assert w.data.base is stack and w.data.flags.c_contiguous
                assert np.shares_memory(w.data, stack[i])

    def test_qkv_are_views_of_one_buffer(self, desk):
        self.assert_views_of_one_buffer(desk, "qkv")

    def test_gate_up_are_views_of_one_buffer(self, desk):
        self.assert_views_of_one_buffer(desk, "gate_up")

    def test_logits_equal_the_transposed_head_at_every_row_count(self):
        """Tape-free logits are `rms_norm(hidden) @ embed.T` through the transposed
        view, bit for bit, for every row count a desk forward can take, after
        cached prefixes of varied lengths."""
        main, _ = init_model(ModelConfig(max_seq_len=160))
        main.freeze()
        cfg = main.config
        rng = np.random.default_rng(21)
        prefix = main.new_cache()
        main_forward(main, rng.integers(cfg.vocab_size, size=cfg.max_seq_len), prefix)
        for rows in range(1, cfg.max_seq_len + 1):
            cache = prefix.clone()
            cache.truncate(rows * 37 % (cfg.max_seq_len - rows + 1))
            hidden, logits = main_forward(main, rng.integers(cfg.vocab_size, size=rows), cache)
            normed = tn.Kernels.rms_norm(hidden.data, main.final_norm.data, cfg.rms_eps)
            assert np.array_equal(logits.data, normed @ main.embed.data.T), rows

    def test_gradients_through_stacked_projection(self):
        # a toy size: finite differences at d=64 would take some 25k forwards
        cfg = ModelConfig(vocab_size=12, model_dim=8, n_layers=1, n_heads=2,
                          max_seq_len=8, seed=4)
        main, _ = init_model(cfg)
        blk = main.blocks[0]
        tokens = [3, 1, 4, 1, 5]

        def loss():
            _, logits = main_forward(main, tokens)
            return cross_entropy_rows(logits, [1, 4, 1, 5, 9], np.full(5, 0.2))

        assert grad_check(loss, [blk.wq, blk.wk, blk.wv, blk.w_gate, blk.w_up]) < 1e-4


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

    def test_rows_match_row_by_row(self):
        logits = np.random.default_rng(8).normal(size=(5, 7))
        logits[2, [1, 4]] = logits[2].max() + 1.0  # a tie goes to the lowest id
        assert greedy_rows(logits) == [greedy_argmax(row) for row in logits]
        assert greedy_rows(logits)[2] == 1
        logits[3, 6] = np.nan
        with pytest.raises(NumericError):
            greedy_rows(logits)
        with pytest.raises(ShapeError):
            greedy_rows(logits[0])


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
        for blk in main.blocks:
            for buffer in STACKS:
                with pytest.raises(ValueError):
                    getattr(blk, buffer)[1, 0, 0] = 1.0


class TestOutputHeadCopy:
    """A frozen backbone keeps its output head as a read-only contiguous copy;
    tape-free forwards of `CONTIGUOUS_HEAD_ROWS` or more rows project through
    it, every other forward through the transposed view."""

    def test_frozen_model_holds_a_read_only_contiguous_copy(self):
        main, _ = init_model(CFG)
        assert main.output_wt is None
        main.freeze()
        wt = main.output_wt
        assert wt.shape == (CFG.model_dim, CFG.vocab_size)
        assert wt.flags.c_contiguous and not wt.flags.writeable
        assert np.array_equal(wt, main.embed.data.T)
        assert not np.shares_memory(wt, main.embed.data)
        with pytest.raises(ValueError):
            wt[0, 0] = 1.0

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 16])
    def test_unfrozen_forwards_run_through_the_view(self, models, rows):
        main, _ = models
        assert not main.frozen and main.output_wt is None
        hidden, logits = main_forward(main, list(range(rows)), main.new_cache())
        normed = tn.Kernels.rms_norm(hidden.data, main.final_norm.data, CFG.rms_eps)
        assert np.array_equal(logits.data, normed @ main.embed.data.T)

    @pytest.mark.parametrize("taped", [False, True], ids=["free", "taped"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 16])
    def test_which_forwards_read_the_copy(self, rows, taped):
        """A copy of zeros shows which forwards read it: those that do give zero logits."""
        main, _ = init_model(CFG)
        main.freeze()
        main.output_wt = np.zeros_like(main.output_wt)
        with Tape() if taped else contextlib.nullcontext():
            _, logits = main_forward(main, list(range(rows)))
        reads = not taped and rows >= CONTIGUOUS_HEAD_ROWS
        assert np.array_equal(logits.data, np.zeros_like(logits.data)) == reads

    def test_loaded_model_holds_the_copy(self, tmp_path, models):
        main, _ = models
        main.save(tmp_path / "main.npz")
        loaded = MainModel.load(tmp_path / "main.npz")
        assert not loaded.output_wt.flags.writeable
        assert np.array_equal(loaded.output_wt, main.embed.data.T)


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

    def test_loading_writes_through_stacked_views(self, tmp_path):
        source, source_head = init_model(ModelConfig(**{**CFG.__dict__, "seed": 43}))
        mp, hp = tmp_path / "main.npz", tmp_path / "head.npz"
        source.save(mp)
        source_head.save(hp)
        fresh = MainModel.load(mp)
        fresh_head = MTPHead.load(hp, fresh)
        target, target_head = init_model(CFG)
        _load_into(target.parameters(), load_checkpoint(mp)[1])
        _load_into(target_head.parameters(),
                   {k: v for k, v in load_checkpoint(hp)[1].items() if not k.startswith("__")})
        for blk in [*target.blocks, target_head.block]:
            for buffer, names in STACKS.items():
                assert all(getattr(blk, name).data.base is getattr(blk, buffer) for name in names)
        prompt = [4, 8, 15, 16, 23, 42]
        for a, b in zip(main_forward(target, prompt), main_forward(fresh, prompt)):
            np.testing.assert_array_equal(a.data, b.data)
        h = np.random.default_rng(5).normal(size=(2, CFG.model_dim))
        for a, b in zip(mtp_step(target_head, h, [3, 7]), mtp_step(fresh_head, h, [3, 7])):
            np.testing.assert_array_equal(a.data, b.data)

    def test_failed_load_changes_nothing(self):
        main, _ = init_model(CFG)
        before = {k: p.data.copy() for k, p in main.parameters().items()}
        arrays = {k: np.zeros_like(v) for k, v in before.items()}
        arrays["block1.w_down"] = np.zeros((3, 3))
        with pytest.raises(ConsistencyError):
            _load_into(main.parameters(), arrays)
        for k, p in main.parameters().items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_loading_into_frozen_model_rejected(self, tmp_path):
        main, _ = init_model(CFG)
        path = tmp_path / "main.npz"
        main.save(path)
        frozen = MainModel.load(path)
        with pytest.raises(StateError):
            _load_into(frozen.parameters(), load_checkpoint(path)[1])

    @pytest.mark.parametrize("name", ["main.npz", "head.npz"])
    def test_committed_stack_round_trips(self, tmp_path, name):
        main = MainModel.load(STACK / "main.npz")
        model = main if name == "main.npz" else MTPHead.load(STACK / name, main)
        model.save(tmp_path / name)
        with np.load(STACK / name) as old, np.load(tmp_path / name) as new:
            params = sorted(k for k in old.files if k.startswith("param/"))
            assert params and params == sorted(k for k in new.files if k.startswith("param/"))
            for key in old.files:
                assert old[key].dtype == new[key].dtype and old[key].shape == new[key].shape
                assert old[key].tobytes() == new[key].tobytes(), key
            assert sorted(old.files) == sorted(new.files)

    def test_config_mismatch_rejected(self, tmp_path):
        main, head = init_model(CFG)
        other_main, _ = init_model(ModelConfig(**{**CFG.__dict__, "model_dim": 32}))
        hp = tmp_path / "head.npz"
        head.save(hp)
        with pytest.raises(ConsistencyError):
            MTPHead.load(hp, other_main)
