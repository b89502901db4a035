"""Model-layer tests: forwards, KV cache semantics, init, checkpoints."""

import contextlib
import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mtpspec.errors import (CapacityError, ConfigError, ConsistencyError, NumericError,
                            ShapeError, StateError)
from mtpspec import model as model_module
from mtpspec.model import (
    CONTIGUOUS_HEAD_ROWS, KVCache, ModelConfig, MainModel, MTPHead, _load_into, greedy_argmax,
    greedy_rows, init_model, load_checkpoint, main_forward, mtp_step, taped_block,
)
from mtpspec import tensor as tn
from mtpspec.tensor import Tape, Tensor, cross_entropy_rows, grad_check
from mtpspec.training import TrainConfig, backbone_hidden, head_stream_loss
from hypothesis import given, settings, strategies as st

from oracles import composed_block, sum_all, token_ids

STACK = Path(__file__).resolve().parents[1] / "perfbench" / "stack"

STACKS = {"qkv": ("wq", "wk", "wv"), "gate_up": ("w_gate", "w_up")}  # buffer: its views

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

        def count(model):
            return sum(p.size for p in model.parameters().values())

        assert count(main) == v * d + layers * block + d
        assert count(head) == 12 * d * d + 4 * d
        again, _ = init_model(cfg)
        assert count(again) == count(main)

    def test_head_shares_embedding_and_output_head_by_identity(self, models):
        main, head = models
        assert head.main is main
        assert not {"embed", "final_norm"} & set(head.parameters())


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

    @pytest.mark.parametrize("n_layers", [1, 2, 4])
    def test_taped_backbone_loss_records_one_step_per_block(self, n_layers):
        main, _ = init_model(ModelConfig(n_layers=n_layers))
        tokens = np.random.default_rng(13).integers(main.config.vocab_size, size=12)
        with Tape() as tape:
            _, logits = main_forward(main, tokens)
            cross_entropy_rows(logits, np.roll(tokens, -1), np.full(12, 0.5))
        # one per block, embedding, head transpose, final norm, projection, loss
        assert len(tape) == n_layers + 5

    def test_taped_head_step_records_the_primitives_it_always_did(self):
        _, head = init_model(ModelConfig())
        rng = np.random.default_rng(14)
        tokens = rng.integers(head.config.vocab_size, size=12)
        with Tape() as tape:
            mtp_step(head, rng.normal(size=(12, head.config.model_dim)), tokens)
        # two input norms, concat, combine, one for the block, final norm; the
        # embedding of the frozen table records nothing
        assert len(tape) == 6

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
# caches are tape-free only, the over-full ones hold arrays
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
    "main-bool-among-ints": (lambda m, h: main_forward(m, [True, 5]), "both", TypeError),
    "main-numpy-bool-among-ints": (lambda m, h: main_forward(m, [3, np.True_]), "both",
                                   TypeError),
    "main-token-past-uint64": (lambda m, h: main_forward(m, [1, 2**64]), "both", IndexError),
    "main-tokens-past-both-int64s": (lambda m, h: main_forward(m, [2**63, -1]), "both",
                                     IndexError),
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
    "step-bool-among-ints": (lambda m, h: mtp_step(h, _rows(2), [5, True]), "both", TypeError),
    "step-rotary-range": (lambda m, h: mtp_step(h, _rows(2), [1, 2], pos_offset=47), "both",
                          CapacityError),
    "step-rotary-negative": (lambda m, h: mtp_step(h, _rows(1), [1], pos_offset=-1), "both",
                             CapacityError),
    "step-cache-full": (lambda m, h: mtp_step(h, _rows(2), [1, 2], _filled(h.new_cache(), 47)),
                        "free", CapacityError),
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


# the elements a token list may hold: ids in and out of the vocabulary (past
# int64 and uint64 too), bools, floats and numpy scalars
TOKEN_ELEMENTS = st.one_of(
    st.integers(0, CFG.vocab_size - 1),
    st.integers(CFG.vocab_size, 2**70),
    st.integers(-2**70, -1),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1]),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(tokens=st.lists(TOKEN_ELEMENTS, max_size=6))
def test_token_ids_follow_the_element_oracle(tokens):
    """The forwards' one-pass route for lists of ints, and the general checks
    behind it, give the element-by-element oracle's ids or its error type."""
    try:
        expected = token_ids(tokens, CFG.vocab_size)
    except (ShapeError, TypeError, IndexError) as exc:
        with pytest.raises(Exception) as raised:
            model_module._token_ids(tokens, CFG.vocab_size)
        assert type(raised.value) is type(exc)
    else:
        ids = model_module._token_ids(tokens, CFG.vocab_size)
        assert ids.dtype == np.int64 and ids.tolist() == expected.tolist()


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

    @pytest.mark.parametrize("buffer, m", [  # the Q/K/V cases are named by m alone
        pytest.param(buffer, m, id=str(m) if buffer == "qkv" else f"{buffer}-{m}")
        for buffer in STACKS for m in (1, 4, 24, 57, 128)])
    def test_stacked_product_equals_separate_products(self, desk, buffer, m):
        """The stacked product and its `Grads.matmul` rule, as `block_kernels` and
        `block_backward` run them, equal the separate products and their sum
        of gradients replayed last part first."""
        blk = desk[0].blocks[0]
        stack = getattr(blk, buffer)
        rng = np.random.default_rng(m)
        a = rng.normal(size=(m, 64))
        g = rng.normal(size=(len(stack), m, stack.shape[-1]))
        parts = [getattr(blk, name).data for name in STACKS[buffer]]
        out = a @ stack
        ga, gw = tn.Grads.matmul(g, a, stack)
        expected = g[-1] @ parts[-1].T
        for i in range(len(parts) - 2, -1, -1):
            expected += g[i] @ parts[i].T
        summed = ga[-1]
        for part in ga[-2::-1]:
            summed = summed + part
        assert np.array_equal(summed, expected)
        for i, w in enumerate(parts):
            assert np.array_equal(out[i], a @ w)
            assert np.array_equal(gw[i], a.T @ g[i])

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
            cache = copy.deepcopy(prefix)
            cache.truncate(rows * 37 % (cfg.max_seq_len - rows + 1))
            hidden, logits = main_forward(main, rng.integers(cfg.vocab_size, size=rows), cache)
            normed = tn.Kernels.rms_norm(hidden.data, main.final_norm.data, cfg.rms_eps)
            assert np.array_equal(logits.data, normed @ main.embed.data.T), rows


class TestBlockBackward:
    """`taped_block` records a block as one tape step, and `block_backward`
    gives the gradients the block composed of public primitives
    (`oracles.composed_block`) gets, bit for bit, at the desk config."""

    @pytest.fixture(scope="class")
    def desk(self):
        return init_model(ModelConfig())

    @staticmethod
    def block_grads(forward, block, x, prior, g, rope_rows, cfg):
        """The block's output, its parameters' and input's gradients, and the tape length.

        The input starts with the gradient `prior`, so the order in which its
        two contributions add shows."""
        params = list(block.named("block").values())
        x = Tensor(x, requires_grad=True)
        x.grad = prior.copy()
        with Tape() as tape:
            out = forward(block, x, *rope_rows, cfg)
            tape.backward(sum_all(tn.mul(out, Tensor(g))))
        grads = [p.grad for p in params] + [x.grad]
        for p in params:
            p.zero_grad()
        return out.data, grads, len(tape)

    @pytest.mark.parametrize("which", ["backbone", "head"])
    @pytest.mark.parametrize("rows", [1, 2, 7, 40, 128])
    def test_gradients_equal_the_composed_block(self, desk, which, rows):
        main, head = desk
        cfg = main.config
        block = main.blocks[-1] if which == "backbone" else head.block
        rng = np.random.default_rng(rows)
        x, prior, g = (rng.normal(size=(rows, cfg.model_dim)) for _ in range(3))
        rope_rows = main.rope.slices(0, rows)
        out, grads, steps = self.block_grads(taped_block, block, x, prior, g, rope_rows, cfg)
        ref_out, ref_grads, _ = self.block_grads(composed_block, block, x, prior, g, rope_rows, cfg)
        assert steps == 3  # the block, the product with g, the sum
        assert np.array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("loss", ["backbone", "head"])
    def test_loss_gradients_equal_the_composed_blocks(self, monkeypatch, loss):
        """A backbone loss and a K=3 `head_stream_loss` over 80 tokens."""
        def grads():
            main, head = init_model(ModelConfig())
            tokens = np.random.default_rng(80).integers(main.config.vocab_size, size=80)
            if loss == "head":
                main.freeze()
                hidden = backbone_hidden(main, tokens)
            with Tape() as tape:
                if loss == "backbone":
                    _, logits = main_forward(main, tokens)
                    total = cross_entropy_rows(logits, np.roll(tokens, -1), np.full(80, 1 / 80))
                else:
                    total, _ = head_stream_loss(head, hidden, tokens, 20, TrainConfig(k_steps=3),
                                                [0.5, 0.3, 0.2])
                tape.backward(total)
            model = main if loss == "backbone" else head
            return [p.grad for p in model.parameters().values()]

        ours = grads()
        monkeypatch.setattr(model_module, "taped_block", composed_block)
        for got, want in zip(ours, grads(), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.0, 1.0, 0.25, 0.0]],
                             ids=["one-row", "masked-rows"])
    def test_grad_check_covers_every_block_parameter_and_the_input(self, weights):
        # a toy size: finite differences at d=64 would take some 25k forwards
        cfg = ModelConfig(vocab_size=12, model_dim=8, n_layers=1, n_heads=2,
                          max_seq_len=8, seed=4)
        main, _ = init_model(cfg)
        block = main.blocks[0]
        rows = len(weights)
        rng = np.random.default_rng(rows)
        x = Tensor(rng.normal(size=(rows, cfg.model_dim)), requires_grad=True)
        rope_rows = main.rope.slices(2, rows)
        targets = rng.integers(cfg.model_dim, size=rows)

        def loss():
            return cross_entropy_rows(taped_block(block, x, *rope_rows, cfg), targets, weights)

        assert grad_check(loss, [*block.named("block").values(), x]) < 1e-4


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


def _json_bytes(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode("utf-8"), dtype=np.uint8).copy()


# name: (the checkpoint it edits, the edit of its arrays)
MALFORMED_CHECKPOINTS = {
    "no-config": ("main", lambda a: a.pop("__config__")),
    "non-json-config": ("main", lambda a: a.update(__config__=_json_bytes("x")[1:])),
    "unknown-config-key": ("main", lambda a: a.update(
        __config__=_json_bytes({**CFG.__dict__, "colour": "red"}))),
    "string-array": ("main", lambda a: a.update(
        {"param/embed": np.full(a["param/embed"].shape, "0.5")})),
    "object-array": ("main", lambda a: a.update({"param/embed": np.array([None], object)})),
    "all-nan-weights": ("main", lambda a: a.update(
        {"param/block0.wo": np.full_like(a["param/block0.wo"], np.nan)})),
    "depth-list": ("head", lambda a: a.update({"param/__trained_depth__": np.array([1, 2])})),
    "depth-negative": ("head", lambda a: a.update({"param/__trained_depth__": np.array(-3)})),
}


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_malformed_checkpoints_fail_naming_the_path(tmp_path, case):
    which, edit = MALFORMED_CHECKPOINTS[case]
    main, head = init_model(CFG)
    head.trained_depth = 3
    main.save(tmp_path / "main.npz")
    head.save(tmp_path / "head.npz")
    with np.load(tmp_path / f"{which}.npz") as data:
        arrays = dict(data)
    edit(arrays)
    bad = tmp_path / f"bad-{which}.npz"
    np.savez(bad, **arrays)
    with pytest.raises((ConfigError, ConsistencyError), match=re.escape(str(bad))):
        if which == "main":
            MainModel.load(bad)
        else:
            MTPHead.load(bad, MainModel.load(tmp_path / "main.npz"))


def test_head_checkpoint_loaded_as_backbone_names_the_file(tmp_path):
    main, head = init_model(CFG)
    path = tmp_path / "head.npz"
    head.save(path)
    with pytest.raises(ConsistencyError, match=re.escape(str(path))):
        MainModel.load(path)


def test_checkpoint_shape_mismatch_names_the_file(tmp_path):
    main, _ = init_model(CFG)
    arrays = {k: p.data for k, p in main.parameters().items()}
    arrays["block1.wo"] = np.zeros((3, 3))
    path = tmp_path / "main.npz"
    model_module.save_checkpoint(path, CFG, arrays)
    with pytest.raises(ConsistencyError, match=re.escape(str(path)) + ".*block1.wo"):
        MainModel.load(path)


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
