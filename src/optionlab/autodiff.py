"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps a float64 C-contiguous array.  While a ``Tape`` is active,
every primitive that touches a gradient-requiring tensor appends one record
(output, inputs, one rule mapping the output gradient to one gradient or None
per input) to a Wengert list.  ``Tape.backward`` walks that list once in
reverse, accumulating vector-Jacobian products; the dict it returns, keyed by
tensor, is the only place gradients come back.  Tensors are value-semantic:
primitives never alias their inputs, slicing or reshaping copies, and every
output is checked finite.

The primitive set is intentionally small: it holds what the layers call, and
the attention layer is composed from it.  Gradients of ``matmul`` support
broadcasting over leading batch axes; elementwise primitives unbroadcast
their gradients back to each operand's shape.  Five kernels are primitives
of their own, each one tape record:

* ``affine``: ``x @ w + b`` on a 2-D batch (dense layers, heads, KAN mix);
* ``kan_contract``: P_0..P_d of one polynomial family, contracted against
  [in, out, d+1] coefficients in one matmul (a KAN layer's expansion) and
  differentiated by the family's derivative recurrence;
* ``conv1d``: im2col, one gather of the shifted windows and one matmul, to
  which the bias is added in place;
* ``lstm``/``gru``: fused gates over the whole sequence, time-major
  ([time, features, batch] in, [time, hidden, batch] out), with a
  hand-written backpropagation-through-time sweep; one step loop runs with
  and without a tape, and keeps the state the sweep reads only for a tape.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "matmul",
    "add",
    "scale",
    "tanh",
    "sigmoid",
    "relu",
    "softmax",
    "concat",
    "reshape",
    "slice_",
    "transpose_last",
    "transpose",
    "reduce_mean",
    "dropout_apply",
    "mse_loss",
    "affine",
    "kan_contract",
    "conv1d",
    "lstm",
    "gru",
    "grad_check",
]

class Tensor:
    """A float64 array.

    ``requires_grad`` marks leaves whose gradients the caller wants; it
    propagates automatically through primitives.  Tensors hash by identity,
    so they key ``Tape.backward``'s gradient dict.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:  # ascontiguousarray would lift 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


_TAPE_STACK: list["Tape"] = []


class Tape:
    """A Wengert list.  Use as a context manager around the forward pass."""

    def __init__(self):
        self._records = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"
        return False

    @staticmethod
    def active() -> bool:
        """Whether a tape is recording.  Without one nothing is recorded, so
        ``lstm`` and ``gru`` run their step loop without keeping the gates
        and cell states that only their backward sweep reads."""
        return bool(_TAPE_STACK)

    def backward(self, loss: Tensor, params) -> dict:
        """Reverse-accumulate gradients of a scalar ``loss``.

        Walks the list once in reverse, so each recorded node is visited
        exactly once; a tensor consumed by several ops accumulates the sum of
        its downstream contributions.  Returns ``{tensor: gradient}`` for the
        tensors of ``params``, in their order, zero-filled where the loss does
        not depend on one.
        """
        if loss.size != 1:
            raise ValueError(
                f"backward needs a scalar loss, got shape {loss.shape}"
            )
        grads = {loss: np.ones_like(loss.data)}
        for out, inputs, rule in reversed(self._records):
            g = grads.get(out)
            if g is None:
                continue  # not on the path from the loss
            for inp, contribution in zip(inputs, rule(g)):
                if contribution is None:
                    continue
                if inp in grads:
                    grads[inp] = grads[inp] + contribution
                else:
                    grads[inp] = contribution
        return {p: grads[p] if p in grads else np.zeros_like(p.data) for p in params}


def _emit(name: str, out_data: np.ndarray, inputs: tuple, rule) -> Tensor:
    """Finish a primitive: finite check, grad flag, optional tape record.

    ``rule`` maps the output gradient to one gradient (None: no gradient) per
    tensor in ``inputs``.
    """
    if not np.all(np.isfinite(out_data)):
        raise FloatingPointError(f"{name}: produced non-finite values")
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    if _TAPE_STACK and out.requires_grad:
        _TAPE_STACK[-1]._records.append((out, inputs, rule))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _batched_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over leading batch axes.  Over a contracted dimension of 1 (the
    batched outer products of the last-query attention's backward) each
    entry is one product added to zero, which ``einsum`` forms with the bits
    of numpy's matmul and without its per-matrix loop."""
    if x.shape[-1] == 1:
        return np.einsum("...i,...j->...ij", x[..., 0], y[..., 0, :])
    return x @ y


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Matrix product with broadcasting over leading axes.  Both operands 2-D+.

    With ``transpose_b`` the product is a @ b^T (b's last two axes swapped,
    without a copy).  A 2-D right operand multiplies the rows of every
    leading index of ``a`` as one 2-D product, forward and backward, rather
    than one small product per leading index.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}"
        )
    bd = _swap_last(b.data) if transpose_b else b.data
    if a.shape[-1] != bd.shape[-2]:
        raise ValueError(
            f"matmul: inner dimensions differ: {a.shape} @ {b.shape}"
            + (" transposed" if transpose_b else "")
        )
    rows = a.data.reshape(-1, a.shape[-1]) if bd.ndim == 2 else None
    if rows is None:
        out = a.data @ bd
    else:
        out = (rows @ bd).reshape(a.shape[:-1] + bd.shape[-1:])

    def backward(g):
        if rows is None:
            da = _unbroadcast(_batched_product(g, _swap_last(bd)), a.shape)
            db = _unbroadcast(_batched_product(_swap_last(a.data), g), bd.shape)
        else:
            g_rows = g.reshape(-1, g.shape[-1])
            da = (g_rows @ bd.T).reshape(a.shape)
            db = rows.T @ g_rows
        return da, (_swap_last(db) if transpose_b else db)

    return _emit("matmul", out, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    return _emit("add", a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"scale: factor must be finite, got {c}")
    return _emit("scale", x.data * c, (x,), lambda g: (g * c,))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit("tanh", out, (x,), lambda g: (g * (1.0 - out * out),))


def sigmoid(x: Tensor) -> Tensor:
    out = 0.5 * (1.0 + np.tanh(0.5 * x.data))  # stable logistic
    return _emit("sigmoid", out, (x,), lambda g: (g * out * (1.0 - out),))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return _emit("relu", np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, computed with the max-shift for stability.

    Rows sum to one and entries are strictly positive for finite inputs.
    """
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _emit("softmax", out, (x,), backward)


def concat(tensors) -> Tensor:
    """Concatenate along the last axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    lead = tensors[0].shape[:-1]
    for t in tensors[1:]:
        if t.shape[:-1] != lead:
            raise ValueError(
                "concat: leading shapes differ: "
                f"{[t.shape for t in tensors]}"
            )
    out = np.concatenate([t.data for t in tensors], axis=-1)
    offsets = np.cumsum([t.shape[-1] for t in tensors])[:-1]
    return _emit(
        "concat", out, tuple(tensors), lambda g: np.split(g, offsets, axis=-1)
    )


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ValueError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape
    return _emit(
        "reshape",
        x.data.reshape(shape).copy(),
        (x,),
        lambda g: (g.reshape(old),),
    )


def slice_(x: Tensor, key) -> Tensor:
    """Basic numpy indexing (ints and slices).  Gradient scatters back as zeros-plus-write."""
    out = np.array(x.data[key], dtype=np.float64)  # always a copy: value semantics
    full_shape = x.shape

    def backward(g):
        z = np.zeros(full_shape)
        z[key] = g
        return (z,)

    return _emit("slice", out, (x,), backward)


def transpose_last(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ValueError(f"transpose_last: need at least 2-D, got {x.shape}")
    return _emit(
        "transpose_last",
        np.array(_swap_last(x.data), dtype=np.float64),  # copy: value semantics
        (x,),
        lambda g: (_swap_last(g),),
    )


def transpose(x: Tensor, axes) -> Tensor:
    """Permute the axes, as ``np.transpose(x, axes)``, into a C-contiguous
    copy; the gradient is permuted back the same way."""
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ValueError(f"transpose: {axes} is not a permutation of the axes of {x.shape}")
    back = tuple(np.argsort(axes).tolist())
    return _emit(
        "transpose",
        np.transpose(x.data, axes).copy(),
        (x,),
        lambda g: (np.transpose(g, back).copy(),),
    )


def reduce_mean(x: Tensor) -> Tensor:
    """Mean over all elements, returned as a 0-D tensor."""
    n = x.size
    if n == 0:
        raise ValueError("reduce_mean: empty tensor")
    shape = x.shape
    return _emit(
        "reduce_mean",
        np.asarray(x.data.mean()),
        (x,),
        lambda g: (np.full(shape, float(g) / n),),
    )


def dropout_apply(x: Tensor, mask) -> Tensor:
    """Multiply by a precomputed dropout mask (already inverted-scaled).

    Mask generation lives with the layers; this primitive only applies it, so
    the backward rule is exact: the same mask gates the gradient.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.shape:
        raise ValueError(
            f"dropout_apply: mask shape {mask.shape} != input shape {x.shape}"
        )
    return _emit("dropout_apply", x.data * mask, (x,), lambda g: (g * mask,))


def mse_loss(pred: Tensor, actual: Tensor) -> Tensor:
    """Mean squared error over 1-D vectors; gradient is 2*(pred-actual)/N."""
    if pred.ndim != 1 or actual.ndim != 1:
        raise ValueError(
            f"mse_loss: expects 1-D vectors, got {pred.shape} and {actual.shape}"
        )
    if pred.shape != actual.shape:
        raise ValueError(
            f"mse_loss: length mismatch {pred.shape} vs {actual.shape}"
        )
    if pred.size == 0:
        raise ValueError("mse_loss: empty vectors")
    diff = pred.data - actual.data
    n = diff.size
    out = np.asarray(np.mean(diff * diff))

    def backward(g):
        return float(g) * 2.0 * diff / n, float(g) * (-2.0) * diff / n

    return _emit("mse_loss", out, (pred, actual), backward)


# ---------------------------------------------------------------------------
# layer kernels: one tape record per layer


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x [batch, in], w [in, out] and b [out], as one record.

    The forward is the arithmetic of ``add(matmul(x, w), b)``, so the output
    has the same bits; the backward rule returns g @ w^T (skipped when x needs
    no gradient), x^T @ g and the batch sum of g.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(
            f"affine: expects x [batch, in], w [in, out], b [out], got "
            f"{x.shape}, {w.shape}, {b.shape}"
        )
    out = x.data @ w.data
    out += b.data

    def backward(g):
        dx = g @ w.data.T if x.requires_grad else None
        return dx, x.data.T @ g, g.sum(axis=0)

    return _emit("affine", out, (x, w, b), backward)


# dP_1/dx of each polynomial family (dP_0/dx = 0)
_POLY_SLOPE = {"chebyshev2": 2.0, "legendre": 1.0, "bessel": 1.0, "laguerre": -1.0}


def _check_poly(name: str, family: str, degree: int) -> None:
    if family not in _POLY_SLOPE:
        raise ValueError(
            f"{name}: unknown family {family!r}; known: {tuple(_POLY_SLOPE)}"
        )
    if degree < 0:
        raise ValueError(f"{name}: degree must be >= 0, got {degree}")


def _poly_stack(family: str, degree: int, xd: np.ndarray) -> np.ndarray:
    """P_0(xd) .. P_degree(xd), degree-major: p[n] = P_n(xd).

    Recurrences (P used generically for each family):
      chebyshev2: P0=1, P1=2x,   P_n = 2x P_{n-1} - P_{n-2}
      legendre:   P0=1, P1=x,    n P_n = (2n-1) x P_{n-1} - (n-1) P_{n-2}
      bessel:     P0=1, P1=x+1,  P_n = (2n-1) x P_{n-1} + P_{n-2}
      laguerre:   P0=1, P1=1-x,  n P_n = (2n-1-x) P_{n-1} - (n-1) P_{n-2}
    Division by n is a multiplication by 1/n.
    """
    p = np.empty((degree + 1,) + xd.shape)
    p[0] = 1.0
    if degree >= 1:
        if family == "chebyshev2":
            np.multiply(xd, 2.0, out=p[1])
        elif family == "legendre":
            p[1] = xd
        elif family == "bessel":
            np.add(xd, 1.0, out=p[1])
        else:
            np.subtract(1.0, xd, out=p[1])
    for n in range(2, degree + 1):
        q, p1, p2 = p[n], p[n - 1], p[n - 2]
        if family == "chebyshev2":
            np.multiply(p[1], p1, out=q)  # p[1] = 2x
            q -= p2
        elif family == "legendre":
            np.multiply(xd, p1, out=q)
            q *= 2.0 * n - 1.0
            q -= p2 * (n - 1.0)
            q *= 1.0 / n
        elif family == "bessel":
            np.multiply(xd, p1, out=q)
            q *= 2.0 * n - 1.0
            q += p2
        else:
            np.multiply(p1, 2.0 * n - 1.0, out=q)
            q -= xd * p1
            q -= p2 * (n - 1.0)
            q *= 1.0 / n
    return p


def _poly_grad(family: str, xd: np.ndarray, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_n g[n] * dP_n/dx for the degree-major stack ``p`` of ``_poly_stack``
    and a degree-major gradient ``g``, by the derivative of the recurrence:
    D_0 = 0, D_1 the family's slope."""
    degree = p.shape[0] - 1
    out = np.zeros(xd.shape)
    d2, d1 = 0.0, _POLY_SLOPE[family]  # D_{n-2}, D_{n-1}
    if degree >= 1:
        out += g[1] * d1
    for n in range(2, degree + 1):
        p1 = p[n - 1]
        if family == "chebyshev2":
            d = 2.0 * (p1 + xd * d1) - d2
        elif family == "legendre":
            d = ((2.0 * n - 1.0) * (p1 + xd * d1) - (n - 1.0) * d2) / n
        elif family == "bessel":
            d = (2.0 * n - 1.0) * (p1 + xd * d1) + d2
        else:
            d = ((2.0 * n - 1.0 - xd) * d1 - p1 - (n - 1.0) * d2) / n
        out += g[n] * d
        d2, d1 = d1, d
    return out


def kan_contract(family: str, degree: int, x: Tensor, coeffs: Tensor) -> Tensor:
    """y[b, o] = sum_{i,n} P_n(x[b, i]) * coeffs[i, o, n] for x [batch, in] and
    coeffs [in, out, degree + 1], as one record.

    The basis of ``_poly_stack`` is laid out as [batch, in*(degree+1)] and
    the coefficients as [in*(degree+1), out], the row-major flattening of
    [in, degree+1, out], so the contraction is one matmul.  The backward rule
    returns the basis gradient through the derivative recurrence
    (``_poly_grad``) and the matmul's coefficient gradient in the
    [in, out, degree + 1] layout.
    """
    _check_poly("kan_contract", family, degree)
    if (x.ndim != 2 or coeffs.ndim != 3 or coeffs.shape[0] != x.shape[1]
            or coeffs.shape[2] != degree + 1):
        raise ValueError(
            f"kan_contract: expects x [batch, in] and coeffs [in, out, {degree + 1}], "
            f"got {x.shape} and {coeffs.shape}"
        )
    batch, in_dim = x.shape
    out_dim = coeffs.shape[1]
    p = _poly_stack(family, degree, x.data)  # [degree + 1, batch, in]
    basis = np.moveaxis(p, 0, -1).reshape(batch, in_dim * (degree + 1))  # a copy
    c = np.swapaxes(coeffs.data, 1, 2).reshape(in_dim * (degree + 1), out_dim)  # a copy

    def backward(g):
        dx = None
        if x.requires_grad:
            dbasis = (g @ c.T).reshape(batch, in_dim, degree + 1)
            dx = _poly_grad(family, x.data, p, np.moveaxis(dbasis, -1, 0))
        dc = (basis.T @ g).reshape(in_dim, degree + 1, out_dim)
        return dx, np.swapaxes(dc, 1, 2)

    return _emit("kan_contract", basis @ c, (x, coeffs), backward)


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor | None = None) -> Tensor:
    """Length-preserving 1-D convolution of x [batch, time, channels] with
    kernels [k, channels, filters], plus an optional bias [filters].

    Zero "same" padding, with the extra pad on the left for even k, so
    out[:, t] = sum_dk pad(x)[:, t + dk] @ kernels[dk] + bias.  Computed as
    im2col: one pad, one copy of a strided view of the k shifted windows into
    [batch, time, k*channels] and one matmul against kernels reshaped to
    [k*channels, filters]; the bias is added to that product in place, with
    the bits of ``add(conv1d(x, kernels), bias)``, and its gradient is
    reduced as ``add`` reduces it.  The input gradient is one product per
    tap, g @ kernels[dk]^T, added to the rows of x that the tap read: per
    batch row, one contiguous [time, channels] run per tap.
    """
    if x.ndim != 3:
        raise ValueError(f"conv1d expects [batch, time, channels], got {x.shape}")
    if kernels.ndim != 3:
        raise ValueError(
            f"conv1d: kernels must be [k, channels, filters], got {kernels.shape}"
        )
    k, channels, filters = kernels.shape
    if x.shape[-1] != channels:
        raise ValueError(
            f"conv1d: input has {x.shape[-1]} channels, kernels expect {channels}"
        )
    if bias is not None and bias.shape != (filters,):
        raise ValueError(f"conv1d: bias must be [{filters}], got {bias.shape}")
    batch, time = x.shape[0], x.shape[1]
    left = k // 2
    padded = np.zeros((batch, time + k - 1, channels))
    padded[:, left : left + time] = x.data
    s_b, s_t, s_c = padded.strides  # window t, tap dk is padded row t + dk
    taps = np.lib.stride_tricks.as_strided(padded, (batch, time, k, channels),
                                           (s_b, s_t, s_t, s_c), writeable=False)
    cols = taps.reshape(batch * time, k * channels)
    kmat = kernels.data.reshape(k * channels, filters)
    out = (cols @ kmat).reshape(batch, time, filters)
    if bias is not None:
        out += bias.data

    def backward(g):
        dbias = () if bias is None else (g.sum(axis=0).sum(axis=0),)  # as _unbroadcast
        g = g.reshape(batch * time, filters)
        dkernels = (cols.T @ g).reshape(k, channels, filters)
        if not x.requires_grad:
            return (None, dkernels) + dbias
        dx = np.zeros((batch, time, channels))
        taps_t = np.ascontiguousarray(np.swapaxes(kernels.data, 1, 2))  # about 2x faster than .T views
        for dk in range(k):  # out[:, t] read x[:, t + dk - left] through tap dk
            lo, hi = max(dk - left, 0), min(time + dk - left, time)
            if lo < hi:
                part = (g @ taps_t[dk]).reshape(batch, time, channels)
                dx[:, lo:hi] += part[:, lo - dk + left : hi - dk + left]
        return (dx, dkernels) + dbias

    inputs = (x, kernels) if bias is None else (x, kernels, bias)
    return _emit("conv1d", out, inputs, backward)


def _gate_stack(name: str, x: Tensor, weights, biases):
    """Check a time-major [time, features, batch] input against gate weights
    that act on [h_prev, x_t] (hidden rows first); return the hidden size, the
    stacked weights [hidden + features, gates*hidden] and the stacked biases."""
    if x.ndim != 3:
        raise ValueError(f"{name} expects [time, features, batch], got {x.shape}")
    hidden, features = biases[0].shape[0], x.shape[1]
    for w, b in zip(weights, biases):
        if w.shape != (hidden + features, hidden) or b.shape != (hidden,):
            raise ValueError(
                f"{name}: gate weights {w.shape} and bias {b.shape} do not fit "
                f"{features} input features and hidden size {hidden}"
            )
    w = np.concatenate([t.data for t in weights], axis=1)
    b = np.concatenate([t.data for t in biases])
    return hidden, w, b


def _feature_major(x: np.ndarray) -> np.ndarray:
    """[time, d, batch] -> a [d, time*batch] copy: column t*batch + b is x[t, :, b]."""
    time, d, batch = x.shape
    return np.transpose(x, (1, 0, 2)).reshape(d, time * batch)


def _check_preactivations(name: str, pre: np.ndarray, ok: np.ndarray) -> None:
    """Raise unless every entry of ``pre`` is finite (``ok``: a bool scratch
    array of pre's shape).  A squashing gate maps an overflowed
    pre-activation to a finite value, so its output cannot show it."""
    if not np.isfinite(pre, out=ok).all():
        raise FloatingPointError(f"{name}: non-finite gate pre-activations")


def _logistic_inplace(a: np.ndarray) -> None:
    """In place: pre-activations -> logistic, as ``sigmoid`` computes it."""
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5


def _gate_grads(dw: np.ndarray, db: np.ndarray, hidden: int) -> list:
    """[dw_0, db_0, dw_1, db_1, ..] from gradients of the stacked gates."""
    out = []
    for j in range(0, db.shape[0], hidden):
        out += [dw[:, j : j + hidden], db[j : j + hidden]]
    return out


def lstm(x: Tensor, w_f, b_f, w_i, b_i, w_o, b_o, w_c, b_c) -> Tensor:
    """An LSTM unrolled over a time-major x [time, features, batch] from zero
    states; returns every h_t, time-major: [time, hidden, batch].

    The gates are Hochreiter & Schmidhuber's (1997), with the forget gate:
    f, i, o = sigmoid([h, x]W + b), c~ = tanh([h, x]W_c + b_c),
    c_t = f*c_prev + i*c~, h_t = o*tanh(c_t), weights acting on [h_prev, x_t]
    (hidden first).  The four gates are stacked, so each step is one input
    projection W_x^T x_t, one bias slab and one W_h^T h_prev into a
    contiguous [4n, batch] block.  States are kept feature-major
    ([hidden, batch] per step), and the output is the steps' states as they
    were computed: a recurrent layer hands the next one its input with no
    transpose.

    One step loop serves both passes, so taped and untaped forwards give the
    same bits.  Untaped, each step overwrites the last one's gates, cell and
    scratch, and only h_t is kept.  Taped, the steps write their gates into
    one [time, 4n, batch] array, whose input projections are one stacked
    product with the per-step products' bits, and keep c_t and tanh(c_t) for
    the backward rule: one backpropagation-through-time sweep that returns
    the gradients of x and of every weight and bias.
    """
    n, w, b = _gate_stack("lstm", x, (w_f, w_i, w_o, w_c), (b_f, b_i, b_o, b_c))
    inputs = (x, w_f, b_f, w_i, b_i, w_o, b_o, w_c, b_c)
    xt = x.data
    time, features, batch = xt.shape
    w_h, w_x = w[:n], w[n:]
    w_x_t, w_h_t = np.ascontiguousarray(w_x.T), np.ascontiguousarray(w_h.T)
    taped = Tape.active()
    bias = np.repeat(b[:, None], batch, axis=1)  # a full slab adds faster than a broadcast
    rec, ok = np.empty((4 * n, batch)), np.empty((4 * n, batch), dtype=bool)
    hs = np.empty((time + 1, n, batch))  # hs[t + 1] = h_t; zeroing it all would cost a pass
    hs[0] = 0.0
    if taped:  # what the sweep reads: sigmoid(f, i, o), tanh(c~), c_t, tanh(c_t)
        act = np.matmul(w_x_t, xt)
        cs, tanh_c = np.zeros((time + 1, n, batch)), np.empty((time, n, batch))
    else:
        pre, c, tmp = np.empty((4 * n, batch)), np.zeros((n, batch)), np.empty((n, batch))
    for t in range(time):
        if taped:
            a, c_prev, c, tc = act[t], cs[t], cs[t + 1], tanh_c[t]
        else:
            a, c_prev, tc = np.matmul(w_x_t, xt[t], out=pre), c, tmp
        a += bias
        np.matmul(w_h_t, hs[t], out=rec)
        a += rec
        _check_preactivations("lstm", a, ok)
        _logistic_inplace(a[: 3 * n])
        np.tanh(a[3 * n :], out=a[3 * n :])
        np.multiply(a[:n], c_prev, out=c)
        np.multiply(a[n : 2 * n], a[3 * n :], out=tc)
        c += tc
        np.tanh(c, out=tc)
        np.multiply(a[2 * n : 3 * n], tc, out=hs[t + 1])
    if not taped:
        return _emit("lstm", hs[1:], inputs, None)

    def backward(g):  # g: [time, n, batch]
        da = np.empty((4 * n, time, batch))
        dh, dc, d = np.zeros((n, batch)), np.zeros((n, batch)), np.empty((4 * n, batch))
        one_minus, sq, tmp = np.empty((3 * n, batch)), np.empty((n, batch)), np.empty((n, batch))
        for t in reversed(range(time)):  # d: one step's contiguous slab, copied into da
            a, tc = act[t], tanh_c[t]
            dh += g[t]
            np.multiply(tc, tc, out=sq)
            np.subtract(1.0, sq, out=sq)
            np.multiply(dh, a[2 * n : 3 * n], out=tmp)
            tmp *= sq
            dc += tmp  # dc += dh * o * (1 - tanh(c_t)^2)
            # d(f, i, o) = (dc*c_prev, dc*c~, dh*tanh(c_t)) * gate * (1 - gate)
            np.multiply(dc, cs[t], out=d[:n])
            np.multiply(dc, a[3 * n :], out=d[n : 2 * n])
            np.multiply(dh, tc, out=d[2 * n : 3 * n])
            np.subtract(1.0, a[: 3 * n], out=one_minus)
            d[: 3 * n] *= a[: 3 * n]
            d[: 3 * n] *= one_minus
            np.multiply(a[3 * n :], a[3 * n :], out=sq)
            np.subtract(1.0, sq, out=sq)
            np.multiply(dc, a[n : 2 * n], out=d[3 * n :])
            d[3 * n :] *= sq  # dc * i * (1 - c~^2)
            dc *= a[:n]
            np.matmul(w_h, d, out=dh)
            da[:, t] = d
        del dh, dc, d, one_minus, sq, tmp  # freed before the products that set the peak
        flat = da.reshape(4 * n, time * batch)
        h_prev = np.transpose(hs[:-1], (1, 0, 2)).reshape(n, time * batch)
        dw = np.concatenate([h_prev, _feature_major(xt)]) @ flat.T
        dx = None
        if x.requires_grad:
            dx = np.transpose((w_x @ flat).reshape(features, time, batch), (1, 0, 2))
        return [dx] + _gate_grads(dw, flat.sum(axis=1), n)

    return _emit("lstm", hs[1:], inputs, backward)


def gru(x: Tensor, w_r, b_r, w_z, b_z, w_h, b_h) -> Tensor:
    """A GRU unrolled over a time-major x [time, features, batch] from a zero
    state; returns every h_t, time-major: [time, hidden, batch].

    The gates are Cho et al.'s (2014, arXiv:1406.1078): r, z =
    sigmoid([h, x]W + b), h~ = tanh([r*h, x]W_h + b_h),
    h_t = z*h_prev + (1-z)*h~, weights acting on [h_prev, x_t].  Each step
    adds one [W_r W_z]^T h to the input projection of its three gates and,
    since the candidate sees r*h, one W_h^T (r*h).  States are kept
    feature-major ([hidden, batch] per step), and one step loop serves the
    taped and the untaped pass, as in ``lstm``; a tape also keeps each
    step's gates and r*h_prev for the backpropagation-through-time sweep.
    """
    n, w, b = _gate_stack("gru", x, (w_r, w_z, w_h), (b_r, b_z, b_h))
    inputs = (x, w_r, b_r, w_z, b_z, w_h, b_h)
    xt = x.data
    time, features, batch = xt.shape
    u_rz, u_h, w_x = w[:n, : 2 * n], w[:n, 2 * n :], w[n:]
    w_x_t = np.ascontiguousarray(w_x.T)
    u_rz_t, u_h_t = np.ascontiguousarray(u_rz.T), np.ascontiguousarray(u_h.T)
    taped = Tape.active()
    bias = np.repeat(b[:, None], batch, axis=1)
    rec, tmp = np.empty((2 * n, batch)), np.empty((n, batch))
    ok = np.empty((2 * n, batch), dtype=bool)
    hs = np.empty((time + 1, n, batch))  # hs[t + 1] = h_t; zeroing it all would cost a pass
    hs[0] = 0.0
    if taped:  # what the sweep reads: sigmoid(r, z), tanh(h~), r * h_prev
        act, rh = np.matmul(w_x_t, xt), np.empty((time, n, batch))
    else:
        pre = np.empty((3 * n, batch))
    for t in range(time):
        if taped:
            a, r_h = act[t], rh[t]
        else:
            a, r_h = np.matmul(w_x_t, xt[t], out=pre), tmp
        a += bias
        gates, cand, h_prev = a[: 2 * n], a[2 * n :], hs[t]
        np.matmul(u_rz_t, h_prev, out=rec)
        gates += rec
        _check_preactivations("gru", gates, ok)
        _logistic_inplace(gates)
        np.multiply(gates[:n], h_prev, out=r_h)
        np.matmul(u_h_t, r_h, out=rec[:n])
        cand += rec[:n]
        _check_preactivations("gru", cand, ok[:n])
        np.tanh(cand, out=cand)
        z = gates[n:]
        np.multiply(z, h_prev, out=hs[t + 1])
        np.subtract(1.0, z, out=tmp)
        tmp *= cand
        hs[t + 1] += tmp
    if not taped:
        return _emit("gru", hs[1:], inputs, None)

    def backward(g):  # g: [time, n, batch]
        da = np.empty((3 * n, time, batch))
        dh, d = np.zeros((n, batch)), np.empty((3 * n, batch))
        one_minus, sq = np.empty((2 * n, batch)), np.empty((n, batch))
        drh, rec = np.empty((n, batch)), np.empty((n, batch))
        for t in reversed(range(time)):  # d: a contiguous slab, as in lstm
            a, h_prev = act[t], hs[t]
            dh += g[t]
            np.subtract(1.0, a[: 2 * n], out=one_minus)
            np.multiply(a[2 * n :], a[2 * n :], out=sq)
            np.subtract(1.0, sq, out=sq)
            np.multiply(dh, one_minus[n:], out=d[2 * n :])
            d[2 * n :] *= sq  # dh * (1 - z) * (1 - h~^2)
            np.matmul(u_h, d[2 * n :], out=drh)
            # d(r, z) = (drh*h_prev, dh*(h_prev - h~)) * gate * (1 - gate)
            np.multiply(drh, h_prev, out=d[:n])
            np.subtract(h_prev, a[2 * n :], out=sq)
            np.multiply(dh, sq, out=d[n : 2 * n])
            d[: 2 * n] *= a[: 2 * n]
            d[: 2 * n] *= one_minus
            dh *= a[n : 2 * n]
            drh *= a[:n]
            dh += drh
            np.matmul(u_rz, d[: 2 * n], out=rec)
            dh += rec  # dh * z + drh * r + [U_r U_z] d(r, z)
            da[:, t] = d
        del dh, d, one_minus, sq, drh, rec  # as in lstm
        flat = da.reshape(3 * n, time * batch)
        h_prev = np.transpose(hs[:-1], (1, 0, 2)).reshape(n, time * batch)
        rh_flat = np.transpose(rh, (1, 0, 2)).reshape(n, time * batch)
        dw = np.concatenate([
            np.concatenate([h_prev @ flat[: 2 * n].T, rh_flat @ flat[2 * n :].T], axis=1),
            _feature_major(xt) @ flat.T,
        ])
        dx = None
        if x.requires_grad:
            dx = np.transpose((w_x @ flat).reshape(features, time, batch), (1, 0, 2))
        return [dx] + _gate_grads(dw, flat.sum(axis=1), n)

    return _emit("gru", hs[1:], inputs, backward)


def grad_check(f, x: Tensor, eps: float = 1e-4) -> float:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` maps one Tensor to a scalar Tensor.  Returns the maximum over
    coordinates of |analytic - numeric| / max(1, |analytic|).  The numeric
    probes run without a tape, so they cost forward passes only.
    """
    base = np.array(x.data, dtype=np.float64, copy=True)
    probe = Tensor(base.copy(), requires_grad=True)
    with Tape() as tape:
        out = f(probe)
    if not isinstance(out, Tensor) or out.size != 1:
        raise ValueError("grad_check: f must return a scalar Tensor")
    grads = tape.backward(out, params=[probe])
    analytic = grads[probe]

    numeric = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = base.copy()
        bumped[idx] = base[idx] + eps
        f_plus = f(Tensor(bumped)).item()
        bumped[idx] = base[idx] - eps
        f_minus = f(Tensor(bumped)).item()
        numeric[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))
