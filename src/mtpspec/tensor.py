"""Dense float64 tensors with a reverse-mode gradient tape.

Each primitive's forward math and checks are written once and run on
plain ndarrays. Called with arrays, a forward primitive (all but
`sum_all` and the losses) returns an array and records nothing: this is
the inference path, taken whenever no tape is active. Called with
Tensors under an active :class:`Tape`, a primitive touching a
gradient-bearing tensor also appends a backward closure, and
``Tape.backward`` replays those in exact reverse order. Both paths make
the same numpy calls, so their results are bitwise equal. The hot
primitives call ufunc methods (``np.add.reduce``, ``np.maximum.reduce``)
rather than ``np.sum``/``np.max``, which give the same bits without
numpy's Python wrappers.

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

    def accumulate_grad(self, g: Array) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
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


def operand(t: Tensor):
    """How a forward passes `t` to the primitives: as is under a tape, its array otherwise."""
    return t if _ACTIVE_TAPE is not None else t.data


def constant(t: Tensor):
    """Like `operand` for a weight that must get no gradient: a grad-free Tensor under a tape."""
    return Tensor(t.data) if _ACTIVE_TAPE is not None else t.data


def stacked(buffer: Array, parts: Sequence[Tensor]):
    """How a forward passes weights that are consecutive views of one buffer.

    With no tape active that is `buffer` itself. Under a tape it is a
    Tensor over the same memory whose gradient goes to `parts`, one
    slice of the first axis each.
    """
    return buffer if _ACTIVE_TAPE is None else _record(buffer, tuple, *parts)


def _record(out: Array, grads: Callable[[Array], tuple], *inputs: Tensor) -> Tensor:
    """Wrap the result of a primitive called with Tensors.

    If a tape is active and an input needs gradients, the tape gets a
    backward step: for the output gradient g, `grads(g)` returns each
    input's gradient in input order, and they accumulate in that order.
    Every consumer of the output replays before this step, so g is final
    here and the step releases it: the tape holds only live gradients.
    """
    if not all(isinstance(t, Tensor) for t in inputs):
        raise TypeError("a primitive's operands must be all Tensors or all arrays")
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
# primitives: an array call returns at ``x is a``, before any gradient rule exists


def add(a, b):
    x, y = (a.data, b.data) if isinstance(a, Tensor) else (a, b)
    if x.shape != y.shape:
        raise ShapeError(f"add: shapes {x.shape} vs {y.shape}")
    out = x + y
    return out if x is a else _record(out, lambda g: (g, g), a, b)


def mul(a, b):
    x, y = (a.data, b.data) if isinstance(a, Tensor) else (a, b)
    if x.shape != y.shape:
        raise ShapeError(f"mul: shapes {x.shape} vs {y.shape}")
    out = x * y
    return out if x is a else _record(out, lambda g: (g * y, g * x), a, b)


def scale(a, s: float):
    x = a.data if isinstance(a, Tensor) else a
    out = x * s
    return out if x is a else _record(out, lambda g: (g * s,), a)


def matmul(a, b):
    """Matrix product; batched operands must share leading dimensions.

    A 2-D left operand may also meet a stacked (n, k, j) right operand:
    the result stacks its n products, (n, m, j), and the left operand's
    gradient adds their n gradients from the last to the first.
    """
    x, y = (a.data, b.data) if isinstance(a, Tensor) else (a, b)
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    stacked_right = x.ndim == 2 and y.ndim == 3
    if x.shape[-1] != y.shape[-2] or (x.shape[:-2] != y.shape[:-2] and not stacked_right):
        raise ShapeError(f"matmul: shapes {x.shape} vs {y.shape}")
    out = x @ y
    if x is a:
        return out

    def grads(g):
        gx = g @ y.swapaxes(-1, -2)
        if stacked_right:
            parts, gx = gx, gx[-1]
            for part in parts[-2::-1]:
                gx = gx + part
        return gx, x.swapaxes(-1, -2) @ g

    return _record(out, grads, a, b)


def transpose(a, axes: Sequence[int]):
    x = a.data if isinstance(a, Tensor) else a
    out = x.transpose(axes)
    return out if x is a else _record(  # sorted(...) is the inverse permutation
        out, lambda g: (g.transpose(sorted(range(len(axes)), key=axes.__getitem__)),), a)


def reshape(a, shape: Sequence[int]):
    x = a.data if isinstance(a, Tensor) else a
    out = x.reshape(shape)
    return out if x is a else _record(out, lambda g: (g.reshape(x.shape),), a)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice rows [start, stop) along the first axis: `take` of one slice, bounds-checked."""
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"rows: [{start}, {stop}) outside axis of size {a.shape[0]}")
    return take(a, slice(start, stop))[0]


def take(a, *keys):
    """The parts a[key] along the first axis, one per key (an int or a slice).

    The keys must pick disjoint parts. With arrays the parts are views.
    Under a tape this is the one primitive with several outputs, so it
    records its own backward step rather than going through `_record`:
    that step moves the parts' gradients into one zero array for `a`.
    """
    x = a.data if isinstance(a, Tensor) else a
    parts = tuple([x[key] for key in keys])
    if x is a:
        return parts
    outs = tuple([Tensor(part) for part in parts])
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


def concat_last(a, b):
    x, y = (a.data, b.data) if isinstance(a, Tensor) else (a, b)
    if x.shape[:-1] != y.shape[:-1]:
        raise ShapeError(f"concat_last: shapes {x.shape} vs {y.shape}")
    out = np.concatenate([x, y], axis=-1)
    split = x.shape[-1]
    return out if x is a else _record(out, lambda g: (g[..., :split], g[..., split:]), a, b)


def embedding(table, ids):
    """Row gather from an embedding table; backward is a scatter-add."""
    w = table.data if isinstance(table, Tensor) else table
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("embedding ids must be a 1-D sequence")
    n_rows = w.shape[0]
    if ids.size and (np.minimum.reduce(ids) < 0 or np.maximum.reduce(ids) >= n_rows):
        raise IndexError(f"token id outside embedding table of size {n_rows}")
    out = w[ids]
    if w is table:
        return out

    def scatter_add(g):  # adds into the table's gradient itself, so returns no gradients
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(w)
            np.add.at(table.grad, ids, g)
        return ()

    return _record(out, scatter_add, table)


def sum_all(a: Tensor) -> Tensor:
    return _record(np.sum(a.data), lambda g: (np.full_like(a.data, float(g)),), a)


def silu(a):
    x = a.data if isinstance(a, Tensor) else a
    sig = 1.0 / (1.0 + np.exp(-x))
    out = x * sig
    return out if x is a else _record(
        out, lambda g: (g * sig * (1.0 + x * (1.0 - sig)),), a)


def rms_norm(x, gamma, eps: float = 1e-6):
    """Root-mean-square normalization over the last axis, scaled by gamma.

    Each row is divided by sqrt(mean(x^2) + eps) and multiplied
    elementwise by gamma.
    """
    xd, gd = (x.data, gamma.data) if isinstance(x, Tensor) else (x, gamma)
    if eps < 0:
        raise ValueError("rms_norm eps must be nonnegative")
    d = xd.shape[-1]
    if gd.shape != (d,):
        raise ShapeError(f"rms_norm: gamma shape {gd.shape} vs last dim {d}")
    inv = 1.0 / np.sqrt(np.add.reduce(xd * xd, axis=-1, keepdims=True) / d + eps)  # np.mean's bits
    normed = xd * inv
    out = normed * gd
    if xd is x:
        return out

    def grads(g):
        u = g * gd
        s = np.add.reduce(u * xd, axis=-1, keepdims=True)
        return (inv * u - (inv ** 3) * xd * s / d,
                np.add.reduce(g * normed, axis=tuple(range(g.ndim - 1))))

    return _record(out, grads, x, gamma)


def softmax_last(x, mask: Array | None = None):
    """Numerically stabilized softmax over the last axis.

    `mask` is an additive constant (0 for allowed, -inf for disallowed)
    broadcast onto the scores before the max-subtraction. Rows must keep
    at least one finite entry.
    """
    xd = x.data if isinstance(x, Tensor) else x
    if mask is None:
        z = xd - np.maximum.reduce(xd, axis=-1, keepdims=True)
    else:
        z = xd + mask
        z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    y = np.exp(z, out=z)  # in place from here on: one score-sized buffer, not three
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    return y if xd is x else _record(
        y, lambda g: (y * (g - np.add.reduce(g * y, axis=-1, keepdims=True)),), x)


def rope_rotate(x, cos: Array, sin: Array):
    """Rotary position transform on the last axis, split-half pairing.

    The last axis is split into two halves (x1, x2); the output is
    (x1*cos - x2*sin, x1*sin + x2*cos). `cos`/`sin` have shape
    (positions, last_dim/2) and broadcast over leading axes.
    """
    xd = x.data if isinstance(x, Tensor) else x
    dh = xd.shape[-1]
    if dh % 2:
        raise ShapeError("rope_rotate needs an even last dimension")
    h = dh // 2
    if cos.shape[-1] != h or sin.shape[-1] != h:
        raise ShapeError("rope tables do not match half width")
    x1, x2 = xd[..., :h], xd[..., h:]
    out = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
    if xd is x:
        return out

    def grads(g):
        g1, g2 = g[..., :h], g[..., h:]
        return (np.concatenate([g1 * cos + g2 * sin, -g1 * sin + g2 * cos], axis=-1),)

    return _record(out, grads, x)


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
    n, v = logits.data.shape
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


_last_mask: tuple = (None, None)  # the last (m, s, past_len) key and its mask


def _causal_mask(m: int, s: int, past_len: int) -> Array:
    # Every layer of a forward asks for the same mask, so the last one is
    # kept (read-only); one per shape would grow with every length seen.
    # The cache is one tuple, read once and replaced whole, so a thread
    # never returns a mask that another thread stored for its own shape.
    global _last_mask
    key = (m, s, past_len)
    cached = _last_mask
    if cached[0] == key:
        return cached[1]
    # query j may attend keys at absolute positions <= past_len + j
    cols = np.arange(s)[None, :]
    q_pos = past_len + np.arange(m)[:, None]
    mask = np.where(cols <= q_pos, 0.0, -np.inf)
    mask.flags.writeable = False
    _last_mask = (key, mask)
    return mask


def causal_attention(q, k, v, past_len: int = 0):
    """Scaled dot-product attention with a strict causal mask.

    q has T query rows; k/v carry past_len + T rows (the already-seen
    stream followed by the new positions). Query j sees keys at
    positions <= past_len + j, so a single query row needs no mask.
    Supports an optional leading head axis.
    """
    if past_len < 0:
        raise ValueError("past_len must be nonnegative")
    if k.shape != v.shape:
        raise ShapeError(f"k/v shapes differ: {k.shape} vs {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"head dims differ: {q.shape[-1]} vs {k.shape[-1]}")
    m, s = q.shape[-2], k.shape[-2]
    if s != past_len + m:
        raise ShapeError(f"key rows {s} != past_len {past_len} + query rows {m}")
    scores = scale(matmul(q, transpose(k, _swap_last(k.ndim))), 1.0 / np.sqrt(q.shape[-1]))
    probs = softmax_last(scores, None if m == 1 else _causal_mask(m, s, past_len))
    return matmul(probs, v)


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
