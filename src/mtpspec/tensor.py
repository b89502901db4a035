"""Dense float64 tensors with a reverse-mode gradient tape.

Each public primitive takes Tensors only (an ndarray operand raises
`TypeError` before any math runs), checks their shapes, computes its
forward and returns a Tensor; under an active :class:`Tape` it also
appends a backward step that calls its gradient rule for a
gradient-bearing input, and ``Tape.backward`` replays those steps in
exact reverse order. The forward math a primitive shares with the block
is written once, as the :class:`Kernels` attribute of its name, and each
gradient rule it shares once, as the :class:`Grads` attribute of its name,
both on plain ndarrays and with no checks.

The model's transformer block is not a composition of primitives. It is
straight-line code on arrays (`model.block_kernels`): numpy for views,
cache writes and products, the kernels for every other op. Under a tape
each block call is one tape step, whose backward (`model.block_backward`)
calls the rules here in the order the primitives would have replayed
them, so a block's gradient has the bits of that composition. A
tape-free forward at decode sizes costs about one numpy call's dispatch
per operation, not arithmetic, so a primitive's type dispatch, shape
checks and Tensor wrapping would be a large share of it; the forwards
instead check their inputs once where they enter, with the typed errors
the primitives raise. For the same reason the kernels and the forwards
save numpy calls wherever the bits stay the same:

- the hot ones call ufunc methods (``np.add.reduce``,
  ``np.maximum.reduce``) rather than ``np.sum``/``np.max``, pass every
  argument by position, the output buffer too, and work in place once
  they own a buffer;
- a one-row `rms_norm` computes its inverse root on a Python float with
  the same IEEE steps;
- the rotary half-swap is one ``take`` with a cached permutation of the
  last axis, not two slices and a concatenation, and the embedding
  gather is a ``take`` too: a take copies values, so no bit moves;
- causal masks are read-only slices of one lower-triangular table.

Everything is float64. Determinism matters more than speed here: the
whole verification story (gradient checks, lossless decoding) leans on
repeated forward passes being bit-identical.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DeterminismError, ShapeError, StateError

Array = np.ndarray


class Tensor:
    """A float64 ndarray plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate_grad(self, g: Array, rows: Array | None = None) -> None:
        """Add `g` into the gradient; with `rows`, add row i of `g` at row rows[i].

        Every gradient a trainable leaf receives passes here, so a
        `diverted_grads` block can take them in tape order instead.
        """
        if not self.requires_grad:
            return
        if _DIVERTED is not None and id(self) in _DIVERTED:
            _DIVERTED[id(self)](g, rows)
        elif rows is not None:  # a scatter-add; repeated rows add up
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            np.add.at(self.grad, rows, g)
        elif self.grad is None:
            self.grad = g.copy()  # a copy: a rule may hand the same g to two inputs
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_ACTIVE_TAPE: "Tape | None" = None
_DIVERTED: "dict[int, Callable[[Array, Array | None], None]] | None" = None


@contextmanager
def diverted_grads(params: Sequence[Tensor], take: Callable[[int, Array, Array | None], None]):
    """Within the block, each gradient contribution to `params[i]` goes to
    ``take(i, g, rows)`` instead of into its `grad`, in tape order.

    Applying the taken contributions later with ``params[i].accumulate_grad(g,
    rows)``, in the same order, leaves the same gradient bits.
    """
    global _DIVERTED
    if _DIVERTED is not None:
        raise StateError("gradients are already diverted")
    _DIVERTED = {id(p): (lambda g, rows, i=i: take(i, g, rows)) for i, p in enumerate(params)}
    try:
        yield
    finally:
        _DIVERTED = None


class Tape:
    """Ordered record of primitive ops for backward replay.

    Use as a context manager around the forward computation, then call
    :meth:`backward` on the (scalar) result. Tapes are one-shot and may
    not nest: construction is single-owner and single-threaded.
    """

    def __init__(self):
        self._ops: list[Callable[[], None]] = []
        self._used = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise StateError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._ops)

    @staticmethod
    def active() -> bool:
        """Whether a tape is recording: a forward records its ops if so, and runs bare if not."""
        return _ACTIVE_TAPE is not None

    def backward(self, root: Tensor) -> None:
        """Seed root's gradient with ones and replay the tape reversed."""
        if self._used:
            raise StateError("tape has already been replayed")
        self._used = True
        if not root.requires_grad:
            raise StateError("backward root does not require gradients")
        root.accumulate_grad(np.ones_like(root.data))
        for op in reversed(self._ops):
            op()


def _data(t: Tensor) -> Array:
    """A primitive operand's array; anything but a Tensor raises before any math runs."""
    if not isinstance(t, Tensor):
        raise TypeError(f"a primitive's operands must be Tensors, not {type(t).__name__}")
    return t.data


def _record(out: Array, grads: Callable[[Array], tuple], *inputs: Tensor) -> Tensor:
    """Wrap the result of a primitive as a Tensor.

    If a tape is active and an input needs gradients, the tape gets a
    backward step: for the output gradient g, `grads(g)` returns each
    input's gradient in input order, and they accumulate in that order.
    Every consumer of the output replays before this step, so g is final
    here and the step releases it: the tape holds only live gradients. An
    input listed twice gets two contributions, in that order.
    """
    result = Tensor(out)
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        result.requires_grad = True

        def op():
            g, result.grad = result.grad, None
            if g is not None:
                for t, gi in zip(inputs, grads(g)):
                    t.accumulate_grad(gi)
        tape._ops.append(op)
    return result


# ---------------------------------------------------------------------------
# kernels


class Kernels:
    """The forward math a primitive shares with the block, on arrays, with
    no checks and no tape.

    The primitive of each name calls its kernel for the forward, and the
    model's block (`model.block_kernels`) calls the kernels directly. A
    caller of a kernel has checked its operands: the weights where they
    were built or loaded, the rest where they entered its forward.
    """

    @staticmethod
    def silu(x: Array) -> Array:
        y = _sigmoid(x)
        y *= x
        return y

    @staticmethod
    def rms_norm(x: Array, gamma: Array, eps: float) -> Array:
        d = x.shape[-1]
        if x.size == d and (r := float(np.add.reduce(x * x, None)) / d + eps) > 0:
            # One row: the same IEEE steps on a float, not four ufunc calls.
            # r == 0 stays on arrays, where 1/0 warns instead of raising.
            y = x * (1.0 / math.sqrt(r))
        else:
            y = x * _inv_rms(np.add.reduce(x * x, -1, None, None, True), d, eps)
        y *= gamma
        return y

    @staticmethod
    def softmax_last(x: Array, mask: Array | None = None) -> Array:
        if mask is None:
            z = x - np.maximum.reduce(x, -1, None, None, True)
        else:
            z = x + mask
            z -= np.maximum.reduce(z, -1, None, None, True)
        y = np.exp(z, z)  # in place from here on: one score-sized buffer, not three
        y /= np.add.reduce(y, -1, None, None, True)
        return y

    @staticmethod
    def rope_rotate(x: Array, cos: Array, sin: Array) -> Array:
        out = _swap_halves(x)
        out *= sin
        out += x * cos
        return out


class Grads:
    """The gradient rules a primitive shares with the block, on arrays, with
    no checks: for the output gradient `g` and the forward's operands
    (softmax: its result), the operands' gradients. Primitives' tape steps
    and `model.block_backward` call them."""

    matmul = staticmethod(lambda g, x, y: (g @ y.swapaxes(-1, -2), x.swapaxes(-1, -2) @ g))
    mul = staticmethod(lambda g, x, y: (g * y, g * x))
    softmax_last = staticmethod(lambda g, y: y * (g - np.add.reduce(g * y, -1, None, None, True)))

    @staticmethod
    def silu(g: Array, x: Array) -> Array:
        sig = _sigmoid(x)
        return g * sig * (1.0 + x * (1.0 - sig))

    @staticmethod
    def rms_norm(g: Array, x: Array, gamma: Array, eps: float) -> tuple[Array, Array]:
        d = x.shape[-1]
        inv = _inv_rms(np.add.reduce(x * x, axis=-1, keepdims=True), d, eps)
        normed = x * inv
        u = g * gamma
        s = np.add.reduce(u * x, axis=-1, keepdims=True)
        return (inv * u - (inv ** 3) * x * s / d,
                np.add.reduce(g * normed, axis=tuple(range(g.ndim - 1))))

    @staticmethod
    def rope_rotate(g: Array, cos: Array, sin: Array) -> Array:
        gx = _swap_halves(g * sin)
        gx += g * cos
        return gx

    @staticmethod
    def causal_attention(g: Array, q: Array, k: Array, v: Array,
                         probs: Array) -> tuple[Array, Array, Array]:
        """Given the forward's attention weights `probs`."""
        g_probs, g_v = Grads.matmul(g, probs, v)
        g_scores = Grads.softmax_last(g_probs, probs) * (1.0 / math.sqrt(q.shape[-1]))
        g_q, g_kt = Grads.matmul(g_scores, q, k.swapaxes(-1, -2))
        return g_q, g_kt.swapaxes(-1, -2), g_v


def _causal_probs(q: Array, k: Array, past_len: int) -> Array:
    """Attention weights: softmax(q k^T / sqrt(head_dim)) under the causal mask."""
    m = q.shape[-2]
    scores = q @ k.swapaxes(-1, -2)
    scores *= 1.0 / math.sqrt(q.shape[-1])
    return Kernels.softmax_last(scores, None if m == 1 else _causal_mask(m, k.shape[-2], past_len))


def _sigmoid(x: Array) -> Array:
    """1 / (1 + exp(-x)), computed in one new buffer."""
    y = np.negative(x)
    np.exp(y, y)
    y += 1.0
    return np.divide(1.0, y, y)


def _inv_rms(ss: Array, d: int, eps: float) -> Array:
    """1 / sqrt(mean square + eps) from the rows' sums of squares: np.mean's bits."""
    return 1.0 / np.sqrt(ss / d + eps)


@functools.cache
def _half_swap(width: int) -> Array:
    """The read-only permutation of a last axis of `width` that exchanges its halves."""
    h = width // 2
    perm = np.concatenate((np.arange(h, width), np.arange(h)))
    perm.flags.writeable = False
    return perm


def _swap_halves(x: Array) -> Array:
    """x with the halves of its last axis exchanged, in a new array: one `take`."""
    return x.take(_half_swap(x.shape[-1]), -1)


# ---------------------------------------------------------------------------
# primitives: Tensors in, a Tensor out, the gradient rule recorded under a tape


def add(a: Tensor, b: Tensor) -> Tensor:
    x, y = _data(a), _data(b)
    if x.shape != y.shape:
        raise ShapeError(f"add: shapes {x.shape} vs {y.shape}")
    return _record(x + y, lambda g: (g, g), a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = _data(a), _data(b)
    if x.shape != y.shape:
        raise ShapeError(f"mul: shapes {x.shape} vs {y.shape}")
    return _record(x * y, lambda g: Grads.mul(g, x, y), a, b)


def scale(a: Tensor, s: float) -> Tensor:
    return _record(_data(a) * s, lambda g: (g * s,), a)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batched operands must share leading dimensions."""
    x, y = _data(a), _data(b)
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if x.shape[-1] != y.shape[-2] or x.shape[:-2] != y.shape[:-2]:
        raise ShapeError(f"matmul: shapes {x.shape} vs {y.shape}")
    return _record(x @ y, lambda g: Grads.matmul(g, x, y), a, b)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    out = _data(a).transpose(axes)
    return _record(  # sorted(...) is the inverse permutation
        out, lambda g: (g.transpose(sorted(range(len(axes)), key=axes.__getitem__)),), a)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    x = _data(a)
    return _record(x.reshape(shape), lambda g: (g.reshape(x.shape),), a)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along the first axis, bounds-checked: a view of `a`
    whose gradient goes back into a zero array of `a`'s shape."""
    x = _data(a)
    if not (0 <= start <= stop <= x.shape[0]):
        raise ShapeError(f"rows: [{start}, {stop}) outside axis of size {x.shape[0]}")

    def grads(g):
        full = np.zeros_like(x)
        full[start:stop] = g
        return (full,)

    return _record(x[start:stop], grads, a)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    x, y = _data(a), _data(b)
    if x.shape[:-1] != y.shape[:-1]:
        raise ShapeError(f"concat_last: shapes {x.shape} vs {y.shape}")
    split = x.shape[-1]
    return _record(np.concatenate((x, y), -1), lambda g: (g[..., :split], g[..., split:]), a, b)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather from an embedding table; backward is a scatter-add."""
    w = _data(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("embedding ids must be a 1-D sequence")
    n_rows = w.shape[0]
    if ids.size and (np.minimum.reduce(ids) < 0 or np.maximum.reduce(ids) >= n_rows):
        raise IndexError(f"token id outside embedding table of size {n_rows}")

    def scatter_add(g):  # adds into the table's gradient itself, so returns no gradients
        table.accumulate_grad(g, ids)
        return ()

    return _record(w.take(ids, 0), scatter_add, table)


def silu(a: Tensor) -> Tensor:
    x = _data(a)
    return _record(Kernels.silu(x), lambda g: (Grads.silu(g, x),), a)


def rms_norm(x: Tensor, gamma: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by gamma.

    Each row is divided by sqrt(mean(x^2) + eps) and multiplied
    elementwise by gamma. The backward computes the inverse roots again,
    on arrays: a one-row forward takes them on a Python float (the same
    bits), but the gradient's `inv ** 3` would round differently there.
    """
    xd, gd = _data(x), _data(gamma)
    if eps < 0:
        raise ValueError("rms_norm eps must be nonnegative")
    d = xd.shape[-1]
    if gd.shape != (d,):
        raise ShapeError(f"rms_norm: gamma shape {gd.shape} vs last dim {d}")

    return _record(Kernels.rms_norm(xd, gd, eps), lambda g: Grads.rms_norm(g, xd, gd, eps),
                   x, gamma)


def softmax_last(x: Tensor, mask: Array | None = None) -> Tensor:
    """Numerically stabilized softmax over the last axis.

    `mask` is an additive constant (0 for allowed, -inf for disallowed)
    broadcast onto the scores before the max-subtraction. Rows must keep
    at least one finite entry.
    """
    y = Kernels.softmax_last(_data(x), mask)
    return _record(y, lambda g: (Grads.softmax_last(g, y),), x)


def rope_rotate(x: Tensor, cos: Array, sin: Array) -> Tensor:
    """Rotary position transform on the last axis, split-half pairing.

    The last axis is split into two halves (x1, x2); the output is
    (x1*cos - x2*sin, x1*sin + x2*cos). The tables come full width,
    `cos` as [cos, cos] and `sin` as [-sin, sin], with shape (positions,
    last_dim), and broadcast over leading axes. The output is then
    x*cos + swap(x)*sin, where swap exchanges the halves: one half-swap,
    one multiply and one multiply-add. Those are the split-half bits,
    since x1*cos + x2*(-sin) is exactly x1*cos - x2*sin and addition
    commutes. The gradient g*cos + swap(g*sin) is the same bits as the
    split-half rule (g1*cos + g2*sin, -g1*sin + g2*cos) for the same
    reasons.
    """
    xd = _data(x)
    dh = xd.shape[-1]
    if dh % 2:
        raise ShapeError("rope_rotate needs an even last dimension")
    if cos.shape[-1] != dh or sin.shape[-1] != dh:
        raise ShapeError("rope tables do not match the full width")

    return _record(Kernels.rope_rotate(xd, cos, sin),
                   lambda g: (Grads.rope_rotate(g, cos, sin),), x)


# ---------------------------------------------------------------------------
# losses


def _log_softmax(z: Array) -> Array:
    z = z - np.max(z, axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def cross_entropy_rows(logits: Tensor, targets, row_weights) -> Tensor:
    """Weighted sum of per-row cross-entropies, differentiable in logits.

    A weight of zero masks a row out entirely (its tokens never touch
    the loss or the gradient).
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(row_weights, dtype=np.float64)
    n, v = _data(logits).shape
    if targets.shape != (n,) or weights.shape != (n,):
        raise ShapeError("targets/row_weights must match the number of logit rows")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError("target id outside vocabulary")
    logp = _log_softmax(logits.data)
    picked = logp[np.arange(n), targets]

    def grads(g):
        probs = np.exp(logp)
        probs[np.arange(n), targets] -= 1.0
        return (float(g) * probs * weights[:, None],)

    return _record(-np.sum(weights * picked), grads, logits)


# ---------------------------------------------------------------------------
# attention


_mask_table: Array = np.zeros((0, 0))  # read-only; row i allows keys 0..i


def _causal_mask(m: int, s: int, past_len: int) -> Array:
    # Query j sits at absolute position past_len + j and may attend keys at
    # positions <= past_len + j: rows past_len.. of one lower-triangular
    # table. A table too small is replaced, never written, so a mask
    # already returned (to this thread or another) keeps its values; its
    # side is rounded up to a multiple of 64 so a growing stream rarely
    # rebuilds it.
    global _mask_table
    table = _mask_table
    if table.shape[0] < s:
        n = -(-s // 64) * 64
        cols = np.arange(n)
        table = np.where(cols[None, :] <= cols[:, None], 0.0, -np.inf)
        table.flags.writeable = False
        _mask_table = table
    return table[past_len:past_len + m, :s]


def causal_attention(q: Tensor, k: Tensor, v: Tensor, past_len: int = 0) -> Tensor:
    """Scaled dot-product attention with a strict causal mask.

    q has T query rows; k/v carry past_len + T rows (the already-seen
    stream followed by the new positions). Query j sees keys at
    positions <= past_len + j, so a single query row needs no mask.
    Supports an optional leading head axis.
    """
    qd, kd, vd = _data(q), _data(k), _data(v)  # an array raises TypeError before the checks
    if past_len < 0:
        raise ValueError("past_len must be nonnegative")
    if k.shape != v.shape:
        raise ShapeError(f"k/v shapes differ: {k.shape} vs {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"head dims differ: {q.shape[-1]} vs {k.shape[-1]}")
    m, s = q.shape[-2], k.shape[-2]
    if s != past_len + m:
        raise ShapeError(f"key rows {s} != past_len {past_len} + query rows {m}")
    probs = _causal_probs(qd, kd, past_len)
    return _record(probs @ vd, lambda g: Grads.causal_attention(g, qd, kd, vd, probs), q, k, v)


# ---------------------------------------------------------------------------
# verification harness


def grad_check(loss_fn: Callable[[], Tensor], params: Iterable[Tensor],
               eps: float = 1e-5) -> float:
    """Compare tape gradients against central finite differences.

    `loss_fn` must be a deterministic closure over `params` returning a
    scalar Tensor. Every parameter entry is perturbed by +/-eps and the
    numeric derivative (f(t+eps)-f(t-eps))/(2 eps) is compared with the
    recorded gradient. Returns the worst relative error, with the
    denominator floored at 1e-6 so noise on near-zero gradients does not
    dominate.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-6, 1e-3]")
    params = list(params)

    def evaluate() -> float:
        value = loss_fn().data
        if value.size != 1:
            raise ShapeError("grad_check loss must be a scalar")
        return float(value.reshape(()))

    if evaluate() != evaluate():
        raise DeterminismError("loss_fn returned different values on repeated calls")

    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = evaluate()
            flat[i] = orig - eps
            fm = evaluate()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            denom = max(abs(numeric), abs(aflat[i]), 1e-6)
            worst = max(worst, abs(numeric - aflat[i]) / denom)
    return worst
