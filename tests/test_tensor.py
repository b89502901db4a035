"""Tests for the float64 tensor core: forward values, tape gradients, attention."""

import ast
import inspect
import math
import textwrap

import numpy as np
import pytest

from mtpspec import model as M
from mtpspec import tensor as T
from mtpspec.errors import DeterminismError, ShapeError, StateError
from mtpspec.tensor import Tensor, Tape
from oracles import composed_attention, softmax_cross_entropy, sum_all


def fd_grad(loss_fn, param, eps=1e-6):
    """Central finite differences over every entry of `param`."""
    flat = param.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(loss_fn().data)
        flat[i] = orig - eps
        fm = float(loss_fn().data)
        flat[i] = orig
        out[i] = (fp - fm) / (2 * eps)
    return out.reshape(param.data.shape)


def tape_grad(loss_fn, params):
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        tape.backward(loss_fn())
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


def assert_grads_match(loss_fn, params, rtol=1e-6, atol=1e-8):
    analytic = tape_grad(loss_fn, params)
    for p, a in zip(params, analytic):
        np.testing.assert_allclose(a, fd_grad(loss_fn, p), rtol=rtol, atol=atol)


def full_width(cos, sin):
    """Half-width rotary tables in the full-width form `rope_rotate` takes."""
    return np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)


def split_half_rope(x, cos, sin):
    """The split-half rotary formula on half-width tables, the reference
    for `rope_rotate`: its output and its gradient rule."""
    h = x.shape[-1] // 2
    x1, x2 = x[..., :h], x[..., h:]
    out = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)

    def grad(g):
        g1, g2 = g[..., :h], g[..., h:]
        return np.concatenate([g1 * cos + g2 * sin, -g1 * sin + g2 * cos], axis=-1)

    return out, grad


class TestRmsNorm:
    def test_constant_vector_normalizes_to_ones(self):
        out = T.rms_norm(Tensor([2.0, 2.0, 2.0, 2.0]), Tensor([1.0] * 4), eps=0.0)
        np.testing.assert_allclose(out.data, [1, 1, 1, 1])

    def test_zero_input_stays_zero(self):
        out = T.rms_norm(Tensor([0.0, 0.0, 0.0]), Tensor([1.0] * 3), eps=1e-6)
        np.testing.assert_allclose(out.data, [0, 0, 0])

    def test_hand_evaluated_row(self):
        # rms of [3, 4] is sqrt(12.5); gamma 2 doubles the result
        out = T.rms_norm(Tensor([3.0, 4.0]), Tensor([2.0, 2.0]), eps=0.0)
        expected = [2 * 3 / math.sqrt(12.5), 2 * 4 / math.sqrt(12.5)]
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_gamma_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.rms_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))

    def test_gradients(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gamma = Tensor(rng.normal(size=5), requires_grad=True)
        w = rng.normal(size=(3, 5))

        def loss():
            return T.cross_entropy_rows(
                T.rms_norm(x, gamma, eps=1e-6) * Tensor(w),
                [1, 0, 4], [0.5, 0.3, 0.2],
            )

        assert_grads_match(loss, [x, gamma])

    def test_one_row_equals_its_row_of_a_batch(self):
        # a one-row call takes its own path; output and gradients keep the batch's bits
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n, d = int(rng.integers(2, 6)), int(rng.choice([5, 64]))
            xs = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            gamma = rng.normal(size=d)
            i = int(rng.integers(n))
            one_row = T.Kernels.rms_norm(xs[i:i + 1], gamma, 1e-6)
            assert np.array_equal(one_row, T.Kernels.rms_norm(xs, gamma, 1e-6)[i:i + 1])
            g = np.zeros((n, d))
            g[i] = rng.normal(size=d)
            one, batch = (self.taped(x, gamma, gx) for x, gx in ((xs[i:i + 1], g[i:i + 1]), (xs, g)))
            assert np.array_equal(one[0], batch[0][i:i + 1])
            assert np.array_equal(one[1], batch[1][i:i + 1])
            assert np.array_equal(one[2], batch[2])

    @staticmethod
    def taped(x, gamma, g):
        """Output, x gradient and gamma gradient of rms_norm under a tape."""
        xt, gt = Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True)
        with Tape() as tape:
            out = T.rms_norm(xt, gt)
            tape.backward(sum_all(out * Tensor(g)))
        return out.data, xt.grad, gt.grad

    def test_zero_row_without_eps_warns_like_a_batch(self):
        rows = np.zeros((3, 4))
        rows[0] = 1.0
        for x in (rows[1:2], rows):
            with pytest.warns(RuntimeWarning) as warned:
                out = T.Kernels.rms_norm(x, np.ones(4), 0.0)
            assert any("divide by zero" in str(w.message) for w in warned)
            assert np.isnan(out[-1]).all()


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        loss, grad = softmax_cross_entropy(np.zeros(4), 2)
        assert loss == pytest.approx(math.log(4), abs=1e-12)
        np.testing.assert_allclose(grad, [0.25, 0.25, -0.75, 0.25])

    def test_saturated_correct_class(self):
        loss, _ = softmax_cross_entropy(np.array([100.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        loss, _ = softmax_cross_entropy(np.array([1.0, 2.0, 3.0]), 1)
        lse = 3.0 + math.log(1 + math.exp(-1) + math.exp(-2))
        assert loss == pytest.approx(lse - 2.0, abs=1e-12)
        assert loss == pytest.approx(1.40760596, abs=1e-7)

    def test_loss_nonnegative_and_grad_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.integers(2, 30)
            logits = rng.normal(scale=3.0, size=v)
            target = int(rng.integers(v))
            loss, grad = softmax_cross_entropy(logits, target)
            assert loss >= 0.0
            assert abs(grad.sum()) < 1e-12

    def test_single_token_vocabulary_has_zero_loss(self):
        loss, grad = softmax_cross_entropy(np.array([3.7]), 0)
        assert loss == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad, [0.0])


class TestCrossEntropyRows:
    def test_matches_row_kernel(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 7))
        targets = rng.integers(7, size=4)
        weights = np.array([0.1, 0.2, 0.0, 0.7])
        total = T.cross_entropy_rows(Tensor(logits), targets, weights)
        expected = sum(
            w * softmax_cross_entropy(row, int(t))[0]
            for row, t, w in zip(logits, targets, weights)
        )
        assert float(total.data) == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_masks_row_from_gradient(self):
        logits = Tensor(np.random.default_rng(3).normal(size=(3, 5)), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.cross_entropy_rows(logits, [0, 1, 2], [1.0, 0.0, 1.0]))
        np.testing.assert_allclose(logits.grad[1], np.zeros(5))
        assert np.abs(logits.grad[0]).max() > 0

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        assert_grads_match(
            lambda: T.cross_entropy_rows(x, [0, 1, 2, 3, 4], [0.3, 0.0, 0.4, 0.2, 0.1]),
            [x],
        )


class TestCausalAttention:
    def test_single_position_returns_value_row(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(1, 4)))
        k = Tensor(rng.normal(size=(1, 4)))
        v = Tensor(rng.normal(size=(1, 4)))
        out = T.causal_attention(q, k, v, past_len=0)
        np.testing.assert_allclose(out.data, v.data)

    def test_zero_scores_give_uniform_average(self):
        rng = np.random.default_rng(6)
        v = Tensor(rng.normal(size=(5, 3)))
        q = Tensor(np.zeros((3, 3)))
        k = Tensor(np.zeros((5, 3)))
        out = T.causal_attention(q, k, v, past_len=2)
        for j in range(3):
            np.testing.assert_allclose(out.data[j], v.data[: 3 + j].mean(axis=0))

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        m, past, dh = 4, 3, 6
        q = rng.normal(size=(m, dh))
        k = rng.normal(size=(past + m, dh))
        v = rng.normal(size=(past + m, dh))

        expected = np.zeros((m, dh))
        for j in range(m):
            visible = past + j + 1
            scores = np.array([np.dot(q[j], k[s]) / math.sqrt(dh) for s in range(visible)])
            w = np.exp(scores - scores.max())
            w /= w.sum()
            expected[j] = sum(w[s] * v[s] for s in range(visible))

        out = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), past_len=past)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)

    def test_causality_future_rows_do_not_leak(self):
        rng = np.random.default_rng(8)
        q = Tensor(rng.normal(size=(3, 4)))
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 4))
        base = T.causal_attention(q, Tensor(k), Tensor(v), past_len=2).data
        k2, v2 = k.copy(), v.copy()
        k2[4] += 100.0  # only visible to query 2
        v2[4] -= 50.0
        poked = T.causal_attention(q, Tensor(k2), Tensor(v2), past_len=2).data
        np.testing.assert_array_equal(base[:2], poked[:2])
        assert np.abs(base[2] - poked[2]).max() > 1e-3

    @staticmethod
    def rule_mask(m, s, past_len):
        cols = np.arange(s)[None, :]
        return np.where(cols <= past_len + np.arange(m)[:, None], 0.0, -np.inf)

    def test_masks_equal_the_causal_rule_as_the_table_grows(self, monkeypatch):
        monkeypatch.setattr(T, "_mask_table", np.zeros((0, 0)))
        sizes = set()
        for past_len in range(0, 150, 11):
            for m in (1, 2, 3, 4, 9, 30):
                got = T._causal_mask(m, past_len + m, past_len)
                assert got.tobytes() == self.rule_mask(m, past_len + m, past_len).tobytes()
                sizes.add(T._mask_table.shape)
        assert len(sizes) > 2  # the grid made the table grow more than once

    def test_masks_are_read_only(self):
        mask = T._causal_mask(4, 9, 5)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 8] = 0.0

    def test_mask_returned_before_growth_keeps_its_values(self, monkeypatch):
        monkeypatch.setattr(T, "_mask_table", np.zeros((0, 0)))
        early = T._causal_mask(3, 5, 2)
        T._causal_mask(4, 200, 196)  # grows the table past early's
        assert T._mask_table.shape[0] >= 200
        assert not np.shares_memory(early, T._mask_table)
        assert early.tobytes() == self.rule_mask(3, 5, 2).tobytes()

    @pytest.mark.parametrize("m, past_len", [(1, 0), (1, 4), (5, 0), (3, 4)])
    def test_gradients_equal_the_composed_primitives(self, m, past_len):
        """One tape step with the bits of its composition of primitives."""
        rng = np.random.default_rng(10 * m + past_len)
        q, g = rng.normal(size=(2, 2, m, 4))
        k, v = rng.normal(size=(2, 2, m + past_len, 4))

        def run(attention):
            operands = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            with Tape() as tape:
                out = attention(*operands, past_len)
                tape.backward(sum_all(T.mul(out, Tensor(g))))
            return [out.data] + [t.grad for t in operands]

        for got, want in zip(run(T.causal_attention), run(composed_attention), strict=True):
            assert np.array_equal(got, want)

    def test_head_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.causal_attention(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 3))),
                               Tensor(np.ones((2, 3))))

    def test_batched_heads_match_per_head(self):
        rng = np.random.default_rng(9)
        q = rng.normal(size=(3, 2, 4))
        k = rng.normal(size=(3, 6, 4))
        v = rng.normal(size=(3, 6, 4))
        batched = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), past_len=4).data
        for h in range(3):
            single = T.causal_attention(Tensor(q[h]), Tensor(k[h]), Tensor(v[h]), past_len=4).data
            np.testing.assert_allclose(batched[h], single, rtol=1e-13)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        q = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = rng.normal(size=(3, 4))

        def loss():
            out = T.causal_attention(q, k, v, past_len=2)
            return T.cross_entropy_rows(out * Tensor(w), [0, 1, 2], [0.4, 0.3, 0.3])

        assert_grads_match(loss, [q, k, v])


class TestPrimitiveGradients:
    """Reverse-mode vs central differences on random small inputs."""

    def test_matmul_chain(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert_grads_match(
            lambda: T.cross_entropy_rows(a @ b, [0, 2, 4], [0.5, 0.25, 0.25]), [a, b])

    def test_batched_matmul(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)

        def loss():
            prod = T.reshape(a @ b, (6, 3))
            return T.cross_entropy_rows(prod, [0, 1, 2, 0, 1, 2], np.full(6, 1 / 6))

        assert_grads_match(loss, [a, b])

    def test_silu_rope_concat_rows(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        y = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        cos, sin = full_width(np.cos(rng.normal(size=(4, 3))), np.sin(rng.normal(size=(4, 3))))

        def loss():
            cat = T.concat_last(T.silu(x), T.rope_rotate(y, cos, sin))
            return T.cross_entropy_rows(T.rows(cat, 1, 4), [0, 5, 11], [0.2, 0.3, 0.5])

        assert_grads_match(loss, [x, y])

    def test_embedding_scatter_add(self):
        rng = np.random.default_rng(14)
        table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        ids = [3, 1, 3]  # repeated id exercises accumulation

        def loss():
            return T.cross_entropy_rows(T.embedding(table, ids), [0, 1, 2], [0.4, 0.3, 0.3])

        assert_grads_match(loss, [table])

    def test_add_mul_scale_transpose(self):
        rng = np.random.default_rng(15)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def loss():
            z = T.transpose((a + b) * b * 0.7, (1, 0))
            return T.cross_entropy_rows(z, [0, 1, 2, 0], np.full(4, 0.25))

        assert_grads_match(loss, [a, b])

    def test_transpose_undoes_a_cyclic_permutation(self):
        # (1, 2, 0) is not its own inverse, unlike every permutation a forward uses
        rng = np.random.default_rng(19)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def loss():
            z = T.reshape(T.transpose(a, (1, 2, 0)), (6, 4))
            return T.cross_entropy_rows(z, [0, 1, 2, 3, 0, 1], np.full(6, 1 / 6))

        assert_grads_match(loss, [a])


class TestTape:
    def test_backward_replays_in_reverse_order(self):
        order = []
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            y = T.scale(x, 2.0)
            tape._ops.append(lambda: order.append("first"))
            z = T.scale(y, 3.0)
            tape._ops.append(lambda: order.append("second"))
            tape.backward(T.cross_entropy_rows(T.reshape(z, (1, 1)), [0], [1.0]))
        assert order == ["second", "first"]

    def test_tape_populates_all_reachable_params(self):
        rng = np.random.default_rng(16)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.cross_entropy_rows(a @ b, [0, 1], [0.5, 0.5]))
        assert a.grad is not None and a.grad.shape == a.data.shape
        assert b.grad is not None and b.grad.shape == b.data.shape

    def test_backward_releases_intermediate_gradients(self):
        rng = np.random.default_rng(18)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            h = a @ b
            top, bottom = T.rows(h, 0, 1), T.rows(h, 1, 2)
            loss = sum_all(T.add(T.mul(top, top), T.scale(bottom, 3.0)))
            tape.backward(loss)
        assert all(t.grad is None for t in (h, top, bottom, loss))
        g_h = np.vstack([2.0 * h.data[:1], np.full((1, 4), 3.0)])
        np.testing.assert_allclose(a.grad, g_h @ b.data.T, rtol=1e-12, atol=0)
        np.testing.assert_allclose(b.grad, a.data.T @ g_h, rtol=1e-12, atol=0)

    def test_no_recording_without_tape(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = a @ a
        assert not out.requires_grad

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(StateError):
                with Tape():
                    pass

    def test_tape_is_one_shot(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            out = T.cross_entropy_rows(T.reshape(x, (1, 1)), [0], [1.0])
            tape.backward(out)
        with pytest.raises(StateError):
            tape.backward(out)

    def test_determinism_bit_identical_forward(self):
        rng = np.random.default_rng(17)
        q = Tensor(rng.normal(size=(4, 8)))
        k = Tensor(rng.normal(size=(4, 8)))
        v = Tensor(rng.normal(size=(4, 8)))
        one = T.causal_attention(q, k, v).data
        two = T.causal_attention(q, k, v).data
        np.testing.assert_array_equal(one, two)


def _ones(*shape):
    return np.ones(shape)


# (primitive, operands, other arguments, error); operands go in as arrays or as Tensors
BAD_CALLS = {
    "add-shapes": (T.add, (_ones(2, 3), _ones(3, 2)), (), ShapeError),
    "mul-shapes": (T.mul, (_ones(2, 3), _ones(2, 4)), (), ShapeError),
    "matmul-inner": (T.matmul, (_ones(2, 3), _ones(2, 3)), (), ShapeError),
    "matmul-1d": (T.matmul, (_ones(3), _ones(3, 2)), (), ShapeError),
    "matmul-batch": (T.matmul, (_ones(2, 2, 3), _ones(3, 3, 2)), (), ShapeError),
    "matmul-2d-by-3d": (T.matmul, (_ones(2, 3), _ones(4, 3, 5)), (), ShapeError),
    "concat-rows": (T.concat_last, (_ones(2, 3), _ones(3, 3)), (), ShapeError),
    "gamma-width": (T.rms_norm, (_ones(2, 3), _ones(4)), (), ShapeError),
    "negative-eps": (T.rms_norm, (_ones(2, 3), _ones(3)), (-1.0,), ValueError),
    "rope-odd": (T.rope_rotate, (_ones(2, 3),), (_ones(2, 3), _ones(2, 3)), ShapeError),
    "rope-table": (T.rope_rotate, (_ones(2, 4),), (_ones(2, 2), _ones(2, 2)), ShapeError),
    "kv-shapes": (T.causal_attention, (_ones(2, 4), _ones(2, 4), _ones(3, 4)), (), ShapeError),
    "head-dims": (T.causal_attention, (_ones(2, 4), _ones(2, 6), _ones(2, 6)), (), ShapeError),
    "past-len": (T.causal_attention, (_ones(2, 4), _ones(3, 4), _ones(3, 4)), (0,), ShapeError),
    "negative-past": (T.causal_attention, (_ones(2, 4), _ones(2, 4), _ones(2, 4)), (-1,),
                      ValueError),
    "ids-range": (T.embedding, (_ones(4, 2),), ([1, 4],), IndexError),
    "ids-negative": (T.embedding, (_ones(4, 2),), ([-1],), IndexError),
    "ids-2d": (T.embedding, (_ones(4, 2),), ([[1]],), ShapeError),
}


class TestArrayCalls:
    """The public primitives take Tensors only; `Kernels` is the array op set."""

    @pytest.mark.parametrize("case", BAD_CALLS.values(), ids=BAD_CALLS.keys())
    def test_checks_raise_alike_for_arrays_and_tensors(self, case):
        """On Tensors each bad call raises its own error; on arrays the
        operand type raises first, before any check or kernel runs."""
        fn, operands, rest, error = case
        with pytest.raises(error):
            fn(*(Tensor(o) for o in operands), *rest)
        with pytest.raises(TypeError, match="must be Tensors, not ndarray"):
            fn(*operands, *rest)

    def test_mixed_operands_rejected(self):
        with pytest.raises(TypeError):
            T.matmul(Tensor(_ones(2, 3)), _ones(3, 2))
        with pytest.raises(TypeError):
            T.rms_norm(Tensor(_ones(2, 3)), _ones(3))

    def test_kernels_equal_taped_primitives_and_record_nothing(self):
        rng = np.random.default_rng(18)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        cos, sin = full_width(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        calls = [
            ("silu", (a,), ()), ("rms_norm", (a, b[0]), (1e-6,)),
            ("softmax_last", (a,), ()), ("rope_rotate", (a,), (cos, sin)),
        ]
        for name, operands, rest in calls:
            with Tape() as tape:
                taped = getattr(T, name)(*(Tensor(o, requires_grad=True) for o in operands), *rest)
                assert len(tape) > 0
            with Tape() as tape:
                free = getattr(T.Kernels, name)(*operands, *rest)
                assert len(tape) == 0
            assert type(free) is np.ndarray
            assert np.array_equal(free, taped.data), name

    def test_every_kernel_is_a_public_primitive(self):
        """Each kernel is the forward math of the public primitive of its name
        and is shared with the block: `model.py` or `_causal_probs` calls it.
        Each gradient rule is called from `block_backward` or from
        `Grads.causal_attention`."""
        names = [name for name in vars(T.Kernels) if not name.startswith("_")]
        assert {"rms_norm", "rope_rotate", "silu", "softmax_last"} <= set(names)
        shared = _calls_on(M, "Kernels") | _calls_on(T._causal_probs, "Kernels")
        for name in names:
            assert callable(getattr(T.Kernels, name)), name
            assert callable(getattr(T, name, None)), name
            assert name in _calls_on(getattr(T, name), "Kernels"), name
            assert name in shared, name
        rules = {name for name in vars(T.Grads) if not name.startswith("_")}
        used = _calls_on(M.block_backward, "Grads") | _calls_on(T.Grads.causal_attention, "Grads")
        assert rules <= used, sorted(rules - used)


def _calls_on(obj, cls: str) -> set[str]:
    """The names X of the calls `<cls>.X(...)` in the source of `obj`, also
    through a local alias of the class (`kn = tn.Kernels`, `gr, eps = tn.Grads, ...`)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    aliases = {cls}

    def is_cls(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in aliases
                or isinstance(node, ast.Attribute) and node.attr == cls)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                aliases.update(t.id for t, v in pairs if isinstance(t, ast.Name) and is_cls(v))
    return {node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and is_cls(node.func.value)}


class TestRopeRotate:
    @pytest.mark.parametrize("shape", [(4, 6), (2, 4, 1, 16), (2, 4, 5, 16)])
    def test_full_width_equals_split_half(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-2])
        x = rng.normal(size=shape)
        x.flat[::7] = 0.0
        x.flat[3::7] = -0.0
        angles = 50.0 * rng.normal(size=(shape[-2], shape[-1] // 2))
        cos, sin = np.cos(angles), np.sin(angles)
        g = rng.normal(size=shape)
        expected, expected_grad = split_half_rope(x, cos, sin)

        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = T.rope_rotate(xt, *full_width(cos, sin))
            tape.backward(sum_all(T.mul(out, Tensor(g))))
        for got, want in ((T.Kernels.rope_rotate(x, *full_width(cos, sin)), expected),
                          (out.data, expected), (xt.grad, expected_grad(g))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestGradCheck:
    def test_quadratic(self):
        theta = Tensor([3.0], requires_grad=True)
        err = T.grad_check(lambda: _square(theta), [theta], eps=1e-4)
        assert err < 1e-8

    def test_constant_loss_has_zero_error(self):
        theta = Tensor([1.0, 2.0], requires_grad=True)
        err = T.grad_check(lambda: sum_all(theta * 0.0), [theta], eps=1e-5)
        assert err == 0.0

    def test_eps_range_enforced(self):
        theta = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.grad_check(lambda: _square(theta), [theta], eps=1e-2)

    def test_nondeterministic_loss_detected(self):
        theta = Tensor([1.0], requires_grad=True)
        counter = {"n": 0}

        def loss():
            counter["n"] += 1
            return T.scale(theta, float(counter["n"]))

        with pytest.raises(DeterminismError):
            T.grad_check(loss, [theta])

    def test_attention_composite(self):
        rng = np.random.default_rng(18)
        q = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

        def loss():
            out = T.causal_attention(q, k, v)
            return T.cross_entropy_rows(out, [0, 3], [0.5, 0.5])

        assert T.grad_check(loss, [q, k, v]) < 1e-4


class TestStackedProjection:
    """A 2-D operand against weights stacked in one buffer, as the model's
    blocks project: one product per part, and the `Grads.matmul` rule
    `model.block_backward` runs on the stack."""

    def test_values_and_gradients_equal_separate_products(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(5, 4))
        g = rng.normal(size=(3, 5, 4))
        buffer = rng.normal(size=(3, 4, 4))
        out = np.matmul(x, buffer)
        gx, gw = T.Grads.matmul(g, x, buffer)
        for i, w in enumerate(buffer):
            assert np.array_equal(out[i], x @ w)
            assert np.array_equal(gw[i], x.T @ g[i])
            assert np.array_equal(gx[i], g[i] @ w.T)
        # replayed as three products would be: v's gradient first, then k's, then q's
        expected = g[2] @ buffer[2].T
        expected += g[1] @ buffer[1].T
        expected += g[0] @ buffer[0].T
        assert np.array_equal(gx[2] + gx[1] + gx[0], expected)


def _square(theta):
    return sum_all(theta * theta)
