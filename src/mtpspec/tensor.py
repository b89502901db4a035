"""Dense float64 tensors with a reverse-mode gradient tape.

The module has two op sets with the same names. A kernel, the attribute
of :class:`Kernels` with its name, holds a forward primitive's math on
plain ndarrays and checks nothing. The public primitive of that name
takes Tensors only (an ndarray operand raises `TypeError` before any
math runs), checks their shapes, calls the kernel and returns a Tensor;
under an active :class:`Tape` it also appends a backward closure for a
gradient-bearing input, and ``Tape.backward`` replays those in exact
reverse order. Both op sets run the same kernel, so their results are
bitwise equal. The hot kernels call ufunc methods (``np.add.reduce``,
``np.maximum.reduce``) rather than ``np.sum``/``np.max``, which give the
same bits without numpy's Python wrappers.

A forward picks its op set once per call with `ops`: the kernels when no
tape is active, this module's primitives under one. The two sets share
their names (`operand`, `constant` and `stacked` included), so a forward
is written once. A tape-free forward at decode sizes costs about one
numpy call's dispatch per operation, not arithmetic, so a primitive's
type dispatch and shape checks were a large share of it; the kernels
skip them, and the forwards check their own inputs once where they
enter, with the typed errors the primitives raise. For the same reason
the kernels save numpy calls wherever the bits stay the same: a one-row
`rms_norm` computes its inverse root on a Python float with the same
IEEE steps, and causal masks are read-only slices of one
lower-triangular table.

Weights that are used together can live in one buffer: `stacked` passes
a (n, k, j) buffer whose n parts are the parameters' own views, and
`matmul` of a 2-D left operand against it makes all n products in one
call. Its backward adds the left operand's n gradients last part first,
the order in which n separate products would have replayed, so trained
bits do not depend on the stacking. `take` splits such a result again.

Everything is float64. Determinism matters more than speed here: the
whole verification story (gradient checks, lossless decoding) leans on
repeated forward passes being bit-identical.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DeterminismError, NumericError, ShapeError, StateError

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
    def ndim(self) -> int:
        return self.data.ndim

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


_PRIMITIVES = sys.modules[__name__]  # the public primitives, as one op set


def ops():
    """The op set a forward runs, picked once per call: `Kernels` when no
    tape is active, this module's primitives under one."""
    return Kernels if _ACTIVE_TAPE is None else _PRIMITIVES


def operand(t: Tensor) -> Tensor:
    """How a forward passes `t` to the primitives: as is (`Kernels` passes its array)."""
    return t


def constant(t: Tensor) -> Tensor:
    """Like `operand` for a weight that must get no gradient: a grad-free Tensor over its array."""
    return Tensor(t.data)


def stacked(buffer: Array, parts: Sequence[Tensor]) -> Tensor:
    """How a forward passes weights that are consecutive views of one buffer:
    a Tensor over the same memory whose gradient goes to `parts`, one
    slice of the first axis each (`Kernels` passes `buffer` itself)."""
    return _record(buffer, tuple, *parts)


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
    here and the step releases it: the tape holds only live gradients.
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
    """Each forward primitive's math on arrays, with no checks and no tape.

    A primitive checks its Tensor operands and calls its kernel for the
    forward, so the math exists once. A forward that checked its inputs
    where they entered runs on the kernels when no tape is active (`ops`):
    the weights were checked where they were built or loaded, and the
    shape of every other operand follows from them. The names are the
    primitives', `operand`, `constant` and `stacked` included, so one
    forward definition runs on either op set.
    """

    add = np.add
    mul = np.multiply
    scale = np.multiply
    matmul = np.matmul
    operand = staticmethod(lambda t: t.data)
    constant = operand
    stacked = staticmethod(lambda buffer, parts: buffer)
    transpose = staticmethod(lambda x, axes: x.transpose(axes))
    reshape = staticmethod(lambda x, shape: x.reshape(shape))
    take = staticmethod(lambda x, *keys: tuple([x[key] for key in keys]))
    concat_last = staticmethod(lambda x, y: np.concatenate([x, y], axis=-1))
    embedding = staticmethod(lambda w, ids: w[ids])
    silu = staticmethod(lambda x: x * _sigmoid(x))

    @staticmethod
    def rms_norm(x: Array, gamma: Array, eps: float) -> Array:
        ss = np.add.reduce(x * x, axis=-1, keepdims=True)
        if ss.size == 1 and (r := ss.item() / x.shape[-1] + eps) > 0:
            # One row: the same IEEE steps on a float, not four ufunc calls.
            # r == 0 stays on arrays, where 1/0 warns instead of raising.
            return x * (1.0 / math.sqrt(r)) * gamma
        return x * _inv_rms(ss, x.shape[-1], eps) * gamma

    @staticmethod
    def softmax_last(x: Array, mask: Array | None = None) -> Array:
        if mask is None:
            z = x - np.maximum.reduce(x, axis=-1, keepdims=True)
        else:
            z = x + mask
            z -= np.maximum.reduce(z, axis=-1, keepdims=True)
        y = np.exp(z, out=z)  # in place from here on: one score-sized buffer, not three
        y /= np.add.reduce(y, axis=-1, keepdims=True)
        return y

    @staticmethod
    def rope_rotate(x: Array, cos: Array, sin: Array) -> Array:
        out = _swap_halves(x)
        out *= sin
        out += x * cos
        return out

    @staticmethod
    def causal_attention(q: Array, k: Array, v: Array, past_len: int = 0) -> Array:
        return _attend(Kernels, q, k, v, past_len)


def _sigmoid(x: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-x))


def _inv_rms(ss: Array, d: int, eps: float) -> Array:
    """1 / sqrt(mean square + eps) from the rows' sums of squares: np.mean's bits."""
    return 1.0 / np.sqrt(ss / d + eps)


def _swap_halves(x: Array) -> Array:
    h = x.shape[-1] // 2
    return np.concatenate([x[..., h:], x[..., :h]], axis=-1)


# ---------------------------------------------------------------------------
# primitives: Tensors in, a Tensor out, the gradient rule recorded under a tape


def add(a: Tensor, b: Tensor) -> Tensor:
    x, y = _data(a), _data(b)
    if x.shape != y.shape:
        raise ShapeError(f"add: shapes {x.shape} vs {y.shape}")
    return _record(Kernels.add(x, y), lambda g: (g, g), a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = _data(a), _data(b)
    if x.shape != y.shape:
        raise ShapeError(f"mul: shapes {x.shape} vs {y.shape}")
    return _record(Kernels.mul(x, y), lambda g: (g * y, g * x), a, b)


def scale(a: Tensor, s: float) -> Tensor:
    return _record(Kernels.scale(_data(a), s), lambda g: (g * s,), a)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batched operands must share leading dimensions.

    A 2-D left operand may also meet a stacked (n, k, j) right operand:
    the result stacks its n products, (n, m, j), and the left operand's
    gradient adds their n gradients from the last to the first.
    """
    x, y = _data(a), _data(b)
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    stacked_right = x.ndim == 2 and y.ndim == 3
    if x.shape[-1] != y.shape[-2] or (x.shape[:-2] != y.shape[:-2] and not stacked_right):
        raise ShapeError(f"matmul: shapes {x.shape} vs {y.shape}")

    def grads(g):
        gx = g @ y.swapaxes(-1, -2)
        if stacked_right:
            parts, gx = gx, gx[-1]
            for part in parts[-2::-1]:
                gx = gx + part
        return gx, x.swapaxes(-1, -2) @ g

    return _record(Kernels.matmul(x, y), grads, a, b)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    out = Kernels.transpose(_data(a), axes)
    return _record(  # sorted(...) is the inverse permutation
        out, lambda g: (g.transpose(sorted(range(len(axes)), key=axes.__getitem__)),), a)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    x = _data(a)
    return _record(Kernels.reshape(x, shape), lambda g: (g.reshape(x.shape),), a)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice rows [start, stop) along the first axis: `take` of one slice, bounds-checked."""
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"rows: [{start}, {stop}) outside axis of size {a.shape[0]}")
    return take(a, slice(start, stop))[0]


def take(a: Tensor, *keys) -> tuple[Tensor, ...]:
    """The parts a[key] along the first axis, one per key (an int or a slice).

    The keys must pick disjoint parts; each is a Tensor over a view of
    `a`. This is the one primitive with several outputs, so under a tape
    it records its own backward step rather than going through `_record`:
    that step moves the parts' gradients into one zero array for `a`.
    """
    x = _data(a)
    outs = tuple([Tensor(part) for part in Kernels.take(x, *keys)])
    tape = _ACTIVE_TAPE
    if tape is not None and a.requires_grad:
        for out in outs:
            out.requires_grad = True

        def op():
            if any(out.grad is not None for out in outs):
                full = np.zeros_like(x)
                for key, out in zip(keys, outs):
                    if out.grad is not None:
                        full[key], out.grad = out.grad, None
                a.accumulate_grad(full)
        tape._ops.append(op)
    return outs


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    x, y = _data(a), _data(b)
    if x.shape[:-1] != y.shape[:-1]:
        raise ShapeError(f"concat_last: shapes {x.shape} vs {y.shape}")
    split = x.shape[-1]
    return _record(Kernels.concat_last(x, y), lambda g: (g[..., :split], g[..., split:]), a, b)


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

    return _record(Kernels.embedding(w, ids), scatter_add, table)


def sum_all(a: Tensor) -> Tensor:
    x = _data(a)
    return _record(np.sum(x), lambda g: (np.full_like(x, float(g)),), a)


def silu(a: Tensor) -> Tensor:
    x = _data(a)

    def grads(g):
        sig = _sigmoid(x)
        return (g * sig * (1.0 + x * (1.0 - sig)),)

    return _record(Kernels.silu(x), grads, a)


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

    def grads(g):
        inv = _inv_rms(np.add.reduce(xd * xd, axis=-1, keepdims=True), d, eps)
        normed = xd * inv
        u = g * gd
        s = np.add.reduce(u * xd, axis=-1, keepdims=True)
        return (inv * u - (inv ** 3) * xd * s / d,
                np.add.reduce(g * normed, axis=tuple(range(g.ndim - 1))))

    return _record(Kernels.rms_norm(xd, gd, eps), grads, x, gamma)


def softmax_last(x: Tensor, mask: Array | None = None) -> Tensor:
    """Numerically stabilized softmax over the last axis.

    `mask` is an additive constant (0 for allowed, -inf for disallowed)
    broadcast onto the scores before the max-subtraction. Rows must keep
    at least one finite entry.
    """
    y = Kernels.softmax_last(_data(x), mask)
    return _record(
        y, lambda g: (y * (g - np.add.reduce(g * y, axis=-1, keepdims=True)),), x)


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

    def grads(g):
        gx = _swap_halves(g * sin)
        gx += g * cos
        return (gx,)

    return _record(Kernels.rope_rotate(xd, cos, sin), grads, x)


# ---------------------------------------------------------------------------
# losses


def _log_softmax(z: Array) -> Array:
    z = z - np.max(z, axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def softmax_cross_entropy(logits, target: int) -> tuple[float, Array]:
    """Cross-entropy of a single logit row against a target id.

    Returns (loss, gradient wrt the logits). Stand-alone functional form;
    the tape-integrated batched variant is :func:`cross_entropy_rows`.
    """
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeError("softmax_cross_entropy expects a 1-D logit row")
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite logits")
    if not (0 <= target < z.shape[0]):
        raise IndexError(f"target {target} outside vocabulary of size {z.shape[0]}")
    logp = _log_softmax(z)
    loss = -logp[target]
    grad = np.exp(logp)
    grad[target] -= 1.0
    return float(loss), grad


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
    for t in (q, k, v):
        _data(t)  # an array raises TypeError here, before the checks below
    if past_len < 0:
        raise ValueError("past_len must be nonnegative")
    if k.shape != v.shape:
        raise ShapeError(f"k/v shapes differ: {k.shape} vs {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"head dims differ: {q.shape[-1]} vs {k.shape[-1]}")
    m, s = q.shape[-2], k.shape[-2]
    if s != past_len + m:
        raise ShapeError(f"key rows {s} != past_len {past_len} + query rows {m}")
    return _attend(_PRIMITIVES, q, k, v, past_len)


def _attend(op_set, q, k, v, past_len: int):
    """Attention composed of the ops of `op_set`: the kernels, or primitives a tape records."""
    m, s = q.shape[-2], k.shape[-2]
    scores = op_set.scale(op_set.matmul(q, op_set.transpose(k, _swap_last(k.ndim))),
                          1.0 / math.sqrt(q.shape[-1]))
    probs = op_set.softmax_last(scores, None if m == 1 else _causal_mask(m, s, past_len))
    return op_set.matmul(probs, v)


def _swap_last(ndim: int) -> tuple[int, ...]:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


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
