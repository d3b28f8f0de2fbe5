"""Neural layer zoo built on the in-package autodiff primitives.

Four model families share one ``ModelSpec``/``Model`` interface; a model's
layers are all of one family (``_FAMILY``):

* ``dense``   - plain MLP on the 10 pricing features,
* ``conv1d``  - time-delay stack on overlapping feature windows,
* ``lstm``/``gru`` (+ optional ``attention``) - recurrent stacks on causal
  windows, read out at the last timestep,
* ``kan``     - layers that expand a mixed, tanh-squashed input in an
  orthogonal-polynomial basis and contract against learned coefficients.

Every kind takes ``width`` and ``dropout`` (applied by ``_dropout`` after the
activation, at train time); every kind but ``kan`` an ``activation``; only
``kan`` a ``degree`` and ``family``, only ``conv1d`` a ``kernel_size``
(``_SETTINGS``).  ``_INIT`` and ``_FORWARD`` hold each kind's init and forward.

Every model ends in a linear head; KAN models also start with a linear head
that maps the raw feature width onto the first layer's width.

A ``Model`` owns its parameters as one float64 vector, ``Model.flat``, whose
slices are its tensors' data; each parameter class names its checkpoint
tensors once (``NAMES``), and ``param_count`` is the size of that vector.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import schema
from .market_data import SequenceWindows

__all__ = [
    "ACTIVATIONS",
    "KAN_FAMILIES",
    "LayerSpec",
    "ModelSpec",
    "DenseParams",
    "Conv1dParams",
    "LstmParams",
    "GruParams",
    "AttentionParams",
    "KanLayerParams",
    "dense_forward",
    "conv1d_forward",
    "self_attention",
    "last_query_attention",
    "kan_layer_forward",
    "init_kan",
    "make_dropout_mask",
    "Model",
    "build_model",
    "param_count",
    "save_model",
    "load_model",
]


ACTIVATIONS = {
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
    "relu": ad.relu,
    "softmax": ad.softmax,
    "none": lambda t: t,
}

KAN_FAMILIES = ("chebyshev2", "legendre", "bessel", "laguerre")

# the model family of each layer kind; a model's layers all belong to one
_FAMILY = {"dense": "mlp", "conv1d": "conv", "kan": "kan",
           "lstm": "rnn", "gru": "rnn", "attention": "rnn"}
# the optional settings each kind reads; every kind reads width and dropout
_SETTINGS = dict.fromkeys(_FAMILY, ("activation",)) | {
    "conv1d": ("activation", "kernel_size"), "kan": ("degree", "family")}


def _activation_fn(name):
    key = "none" if name is None else name
    if key not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; known: {sorted(ACTIVATIONS)}")
    return ACTIVATIONS[key]


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class LayerSpec:
    """One layer: its kind, output width, and kind-specific settings.

    ``width`` means: units for dense, filters for conv1d, hidden size for
    lstm/gru, the per-head dimension for attention (must equal the incoming
    width; the output is twice that), and the polynomial width for kan.
    ``activation``, ``degree``, ``family`` and ``kernel_size`` are refused on
    a kind that does not read them (``_SETTINGS``).
    """

    kind: str
    width: int
    activation: str | None = None
    degree: int | None = None
    family: str | None = None
    kernel_size: int | None = None
    dropout: float = 0.0

    def __post_init__(self):
        if self.kind not in _FAMILY:
            raise ValueError(f"unknown layer kind {self.kind!r}; known: {tuple(_FAMILY)}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("activation", "degree", "family", "kernel_size"):
            if getattr(self, name) is not None and name not in _SETTINGS[self.kind]:
                raise ValueError(f"{self.kind} layers take no {name}")
        if self.activation is not None:
            _activation_fn(self.activation)
        if self.kind == "kan":
            if self.degree is None or self.degree < 0:
                raise ValueError("kan layers need a degree >= 0")
            if self.family not in KAN_FAMILIES:
                raise ValueError(f"kan family must be one of {KAN_FAMILIES}, got {self.family!r}")
        if self.kind == "conv1d" and (self.kernel_size is None or self.kernel_size < 1):
            raise ValueError("conv1d layers need kernel_size >= 1")


def _json_fields(obj, fields: dict, always=()) -> dict:
    """The attributes of ``obj`` that the schema ``fields`` names, less the
    optional ones left at their default (unless named in ``always``)."""
    return {
        k: getattr(obj, k) for k, f in fields.items()
        if k in always or not isinstance(f, tuple) or getattr(obj, k) != f[1]
    }


@dataclass(frozen=True)
class ModelSpec:
    """A full architecture: input width, layer stack, and one output, the
    price (``output_dim`` is always 1; checkpoints write it).

    ``timesteps`` is required for conv1d models (the flatten head needs it)
    and optional elsewhere; it documents the window length the model expects.
    ``kan_init`` picks the coefficient-variance convention: "code" uses
    std = 1/(in*(degree+1)), "eq" uses std = 1/(in*degree) except at degree 0
    where it falls back to the "code" formula.
    """

    layers: tuple[LayerSpec, ...]
    input_dim: int = 10
    output_dim: int = 1
    timesteps: int | None = None
    kan_init: str = "code"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a model needs at least one layer")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.output_dim != 1:
            raise ValueError(f"output_dim must be 1 (one price per row), got {self.output_dim}")
        if self.kan_init not in ("code", "eq"):
            raise ValueError(f"kan_init must be 'code' or 'eq', got {self.kan_init!r}")
        kinds = {l.kind for l in self.layers}
        if len({_FAMILY[k] for k in kinds}) > 1 or kinds == {"attention"}:
            raise ValueError(f"incompatible layer kinds in one model: {sorted(kinds)}")
        if self.layers[0].kind == "attention":
            raise ValueError("attention cannot be the first layer")
        if self.mode() == "conv" and self.timesteps is None:
            raise ValueError("conv1d models need timesteps (the flatten head size)")
        if self.timesteps is not None and self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        self._width_chain()  # validates attention widths

    def mode(self) -> str:
        return _FAMILY[self.layers[0].kind]

    def _width_chain(self) -> list:
        """Input width seen by each layer, plus the final pre-head width.  A
        KAN model's input head maps the features onto its first layer's
        width, so its layers start there."""
        widths = []
        prev = self.layers[0].width if self.mode() == "kan" else self.input_dim
        for i, layer in enumerate(self.layers):
            widths.append(prev)
            if layer.kind == "attention":
                if layer.width != prev:
                    raise ValueError(
                        f"attention layer {i} width {layer.width} must equal the "
                        f"incoming width {prev}"
                    )
                prev = 2 * prev
            else:
                prev = layer.width
        widths.append(prev)
        return widths

    def head_in_dim(self) -> int:
        final = self._width_chain()[-1]
        if self.mode() == "conv":
            return self.timesteps * final
        return final

    def to_dict(self) -> dict:
        """The JSON form: keys left at their _MODEL_SCHEMA default are
        omitted, except input_dim and output_dim."""
        out = _json_fields(self, _MODEL_SCHEMA, always=("input_dim", "output_dim"))
        out["layers"] = [_json_fields(l, _LAYER_SCHEMA) for l in self.layers]
        return out

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        """Inverse of ``to_dict``; ``d`` is checked against _MODEL_SCHEMA."""
        d = schema.check(d, _MODEL_SCHEMA, "ModelSpec")
        return ModelSpec(**dict(d, layers=tuple(LayerSpec(**e) for e in d["layers"])))


# the JSON form of a ModelSpec, in configs and checkpoints
_MODEL_SCHEMA = schema.of(ModelSpec)
_LAYER_SCHEMA = _MODEL_SCHEMA["layers"][0]


# ---------------------------------------------------------------------------
# parameter containers and forwards


@dataclass
class DenseParams:
    NAMES: ClassVar = (("w", "weights"), ("b", "bias"))  # (checkpoint name, field)
    weights: Tensor  # [in, out]
    bias: Tensor  # [out]
    activation: str | None = None


def dense_forward(p: DenseParams, x: Tensor) -> Tensor:
    """act(x @ W + b) on a 2-D batch; the affine map is one record."""
    return _activation_fn(p.activation)(ad.affine(x, p.weights, p.bias))


@dataclass
class Conv1dParams:
    NAMES: ClassVar = (("kernels", "kernels"), ("b", "bias"))
    kernels: Tensor  # [kernel_size, in_channels, filters]
    bias: Tensor  # [filters]
    activation: str | None = None


def conv1d_forward(p: Conv1dParams, x: Tensor) -> Tensor:
    """Length-preserving 1-D convolution over [batch, time, channels].

    Zero "same" padding, with the extra pad on the left for even kernels, so
    out[:, t] = sum_dk pad(x)[:, t + dk] @ kernels[dk] + bias; the convolution
    and its bias are the im2col primitive ``autodiff.conv1d``, one record.
    """
    return _activation_fn(p.activation)(ad.conv1d(x, p.kernels, p.bias))


@dataclass
class LstmParams:
    """Gate weights act on the concatenation [h_prev, x_t] (hidden first)."""

    NAMES: ClassVar = tuple(
        (n, n) for n in ("w_f", "b_f", "w_i", "b_i", "w_o", "b_o", "w_c", "b_c")
    )
    w_f: Tensor
    b_f: Tensor
    w_i: Tensor
    b_i: Tensor
    w_o: Tensor
    b_o: Tensor
    w_c: Tensor
    b_c: Tensor


@dataclass
class GruParams:
    """Reset/update gates act on [h_prev, x_t]; the candidate on [r*h_prev, x_t]."""

    NAMES: ClassVar = tuple((n, n) for n in ("w_r", "b_r", "w_z", "b_z", "w_h", "b_h"))
    w_r: Tensor
    b_r: Tensor
    w_z: Tensor
    b_z: Tensor
    w_h: Tensor
    b_h: Tensor


@dataclass
class AttentionParams:
    NAMES: ClassVar = (("w_q", "w_q"), ("w_k", "w_k"), ("w_v", "w_v"))
    w_q: Tensor  # [d, d]
    w_k: Tensor
    w_v: Tensor


def self_attention(p: AttentionParams, h: Tensor) -> Tensor:
    """Scaled dot-product self-attention with a residual concat.

    A = softmax(QK^T / sqrt(d)) row-wise, O = AV, output = [O, H] on the last
    axis, so [.., T, d] -> [.., T, 2d].  Leading batch axes broadcast.
    """
    if h.ndim < 2:
        raise ValueError(f"attention expects [.., time, d], got {h.shape}")
    d = h.shape[-1]
    if p.w_q.shape[0] != d:
        raise ValueError(
            f"attention: input width {d} does not match weights {p.w_q.shape}"
        )
    q = ad.matmul(h, p.w_q)
    k = ad.matmul(h, p.w_k)
    v = ad.matmul(h, p.w_v)
    scores = ad.scale(ad.matmul(q, ad.transpose_last(k)), 1.0 / math.sqrt(d))
    weights = ad.softmax(scores)
    attended = ad.matmul(weights, v)
    return ad.concat([attended, h])


def last_query_attention(p: AttentionParams, h: Tensor) -> Tensor:
    """``self_attention`` for the last query only: [.., T, d] -> [.., 1, 2d].

    The last row attends over every key and value, so this equals
    ``self_attention(p, h)[..., -1:, :]`` up to rounding; it skips the
    queries, scores, softmax rows and attended rows of the first T-1 steps,
    which a model read out at the last timestep would discard.  With q the
    last step's query, its scores are h_t . (W_k q) and its attended row is
    (sum_t a_t h_t) W_v, so no key or value of the T steps is formed: the
    weight products are 2-D, and the products with h are one batched dot
    each way.  Every intermediate is checked finite, so an overflow that the
    softmax would squash still raises.
    """
    last = ad.slice_(h, (Ellipsis, slice(-1, None), slice(None)))
    u = ad.matmul(ad.matmul(last, p.w_q), p.w_k, transpose_b=True)
    scores = ad.scale(ad.matmul(u, h, transpose_b=True), 1.0 / math.sqrt(h.shape[-1]))
    attended = ad.matmul(ad.matmul(ad.softmax(scores), h), p.w_v)
    return ad.concat([attended, last])


# ---------------------------------------------------------------------------
# KAN layers


@dataclass
class KanLayerParams:
    """Mix + squash + polynomial expansion + learned contraction.

    ``coeffs`` has shape [in, out, degree + 1]; ``mix_weights`` is [in, in]
    and, with ``mix_bias`` [in], acts on the layer input before the tanh
    squash.
    """

    NAMES: ClassVar = (("mix_w", "mix_weights"), ("mix_b", "mix_bias"), ("coeffs", "coeffs"))
    family: str
    degree: int
    coeffs: Tensor
    mix_weights: Tensor
    mix_bias: Tensor


def kan_layer_forward(p: KanLayerParams, z_prev: Tensor) -> Tensor:
    """x = tanh(mix(z_prev)); y[b,o] = sum_{i,n} P_n(x[b,i]) * coeffs[i,o,n].

    The tanh keeps every polynomial argument inside [-1, 1].  The expansion
    and the contraction are one record, ``autodiff.kan_contract``: a flat
    matmul of the [batch, in*(degree+1)] basis against the coefficients laid
    out as [in*(degree+1), out].  Three records at every degree.
    """
    x = ad.tanh(ad.affine(z_prev, p.mix_weights, p.mix_bias))
    return ad.kan_contract(p.family, p.degree, x, p.coeffs)


def _tensors(p):
    """A block's tensors in ``NAMES`` order, the order its kernel takes them."""
    return (getattr(p, field) for _, field in p.NAMES)


# each kind's forward on [batch, ..] (dense, conv1d, kan) or time-major
# [T, n, batch] (lstm, gru) input; the last attention of a model can take
# ``last_query_attention`` instead
_FORWARD = {
    "dense": dense_forward,
    "conv1d": conv1d_forward,
    "kan": kan_layer_forward,
    "lstm": lambda p, h: ad.lstm(h, *_tensors(p)),
    "gru": lambda p, h: ad.gru(h, *_tensors(p)),
    "attention": self_attention,
}


# ---------------------------------------------------------------------------
# initialisation


def make_dropout_mask(rng, shape, rate: float) -> np.ndarray:
    """Inverted-scaling mask: entries are 0 with probability rate, else 1/(1-rate)."""
    if rng is None:
        raise ValueError("dropout at train time needs an rng")
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def _dropout(h: Tensor, layer: LayerSpec, train: bool, rng, time_major=False) -> Tensor:
    """``h``, the output of ``layer``, with its dropout applied at train time.

    The mask is drawn over [batch, T, n] in either layout: a time-major
    [T, n, batch] output gets the transpose of that draw."""
    if not (train and layer.dropout > 0.0):
        return h
    if time_major:
        t, n, b = h.shape
        mask = make_dropout_mask(rng, (b, t, n), layer.dropout).transpose(1, 2, 0)
    else:
        mask = make_dropout_mask(rng, h.shape, layer.dropout)
    return ad.dropout_apply(h, mask)


def _glorot(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _init_dense(rng, in_dim, out_dim, activation=None) -> DenseParams:
    weights = Tensor(_glorot(rng, in_dim, out_dim, (in_dim, out_dim)), True)
    return DenseParams(weights, Tensor(np.zeros(out_dim), True), activation)


def _init_gates(rng, in_dim, hidden, n_gates):
    rows = hidden + in_dim
    out = []
    for _ in range(n_gates):
        out.append(Tensor(_glorot(rng, rows, hidden, (rows, hidden)), True))
        out.append(Tensor(np.zeros(hidden), True))
    return out


def init_kan(rng, in_dim: int, out_dim: int, degree: int, family: str,
             variant: str = "code") -> KanLayerParams:
    """Coefficients ~ N(0, std^2) with std = 1/(in*(degree+1)) ("code") or
    1/(in*degree) ("eq"); degree 0 always uses the "code" formula since the
    "eq" one degenerates there.  The mix stage gets Glorot weights and zero
    bias."""
    if variant not in ("code", "eq"):
        raise ValueError(f"variant must be 'code' or 'eq', got {variant!r}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if variant == "eq" and degree > 0:
        std = 1.0 / (in_dim * degree)
    else:
        std = 1.0 / (in_dim * (degree + 1))
    coeffs = Tensor(rng.normal(0.0, std, size=(in_dim, out_dim, degree + 1)), True)
    mix_weights = Tensor(_glorot(rng, in_dim, in_dim, (in_dim, in_dim)), True)
    return KanLayerParams(family, degree, coeffs, mix_weights, Tensor(np.zeros(in_dim), True))


# each kind's parameters for layer l on input width n (spec.kan_init picks
# the KAN coefficient convention)
_INIT = {
    "dense": lambda rng, l, n, spec: _init_dense(rng, n, l.width, l.activation),
    "conv1d": lambda rng, l, n, spec: Conv1dParams(
        Tensor(_glorot(rng, l.kernel_size * n, l.kernel_size * l.width,
                       (l.kernel_size, n, l.width)), True),
        Tensor(np.zeros(l.width), True),
        l.activation,
    ),
    "lstm": lambda rng, l, n, spec: LstmParams(*_init_gates(rng, n, l.width, 4)),
    "gru": lambda rng, l, n, spec: GruParams(*_init_gates(rng, n, l.width, 3)),
    "attention": lambda rng, l, n, spec: AttentionParams(
        *(Tensor(_glorot(rng, n, n, (n, n)), True) for _ in range(3))
    ),
    "kan": lambda rng, l, n, spec: init_kan(rng, n, l.width, l.degree, l.family, spec.kan_init),
}


# ---------------------------------------------------------------------------
# the assembled model

# predict batches, by measurement: of 256, 512, 1024 and 2048 rows, 512 ran
# the recurrent and conv1d models fastest (the recurrent kernels' per-step
# slabs are [4*hidden, rows]), and 1024 the KAN (512 was about 20% slower)
_PREDICT_BATCH = 1024
_SEQUENCE_PREDICT_BATCH = 512


class Model:
    """A layer stack plus linear head(s) and an optional input standardiser.

    ``__init__`` packs every trainable tensor, in ``parameters()`` order,
    into one C-contiguous float64 vector ``flat`` and makes each tensor's data
    a view of its slice; rebinding a tensor's ``data`` detaches it.

    The standardiser (per-feature mean/scale fitted on training data) is
    applied to raw inputs before the first layer; it is a preprocessing
    artifact, carried in checkpoints but not a trainable parameter.
    """

    def __init__(self, spec: ModelSpec, blocks, input_head, head, scaler=None):
        self.spec = spec
        self.blocks = blocks
        self.input_head = input_head
        self.head = head
        self.scaler = scaler
        owners = [(f"layers.{i}", b) for i, b in enumerate(blocks)] + [("head", head)]
        if input_head is not None:
            owners.insert(0, ("input_head", input_head))
        self._params = [
            (f"{prefix}.{name}", getattr(block, attr))
            for prefix, block in owners for name, attr in block.NAMES
        ]
        self.flat = np.concatenate([t.data.ravel() for _, t in self._params])
        start = 0
        for _, t in self._params:
            t.data = self.flat[start : start + t.size].reshape(t.shape)
            start += t.size

    # -- parameters ---------------------------------------------------------

    def parameters(self):
        """Deterministically ordered [(name, Tensor)] of every trainable tensor."""
        return list(self._params)

    def snapshot(self) -> np.ndarray:
        return self.flat.copy()

    def restore(self, snap):
        snap = np.asarray(snap)
        if snap.shape != self.flat.shape:
            raise ValueError(f"snapshot of shape {snap.shape} does not match "
                             f"this model's {self.flat.size} parameters")
        self.flat[...] = snap

    def set_scaler(self, mean, scale):
        mean = np.asarray(mean, dtype=np.float64)
        scale = np.asarray(scale, dtype=np.float64)
        if mean.shape != (self.spec.input_dim,) or scale.shape != (self.spec.input_dim,):
            raise ValueError("scaler must be per-input-feature vectors")
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(scale)))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"scaler mean and scale must be finite; feature {i} has mean "
                f"{float(mean[i])} and scale {float(scale[i])}"
            )
        if not np.all(scale > 0.0):
            raise ValueError("scaler scale entries must be positive")
        self.scaler = (mean, scale)

    # -- forward ------------------------------------------------------------

    def check_input(self, shape) -> None:
        """Raise ValueError unless ``shape`` is an input this model reads."""
        mode = self.spec.mode()
        want = 3 if mode in ("conv", "rnn") else 2
        if len(shape) != want:
            raise ValueError(
                f"{mode} model expects {want}-D input, got shape {tuple(shape)}"
            )
        if shape[-1] != self.spec.input_dim:
            raise ValueError(
                f"the input has {shape[-1]} features, but the model's input_dim "
                f"is {self.spec.input_dim}"
            )

    def standardize_rows(self, x):
        """SequenceWindows ``x`` over its rows standardized once, which
        ``forward`` and ``predict`` gather without scaling them again; any
        other input as it is (an array is standardized one batch at a time).

        A recurrent model's rows are kept feature-major (the transpose of a
        C-contiguous [F, N] array), which ``SequenceWindows.time_major``
        gathers from fastest.  Each value is the ``(x - mean) / scale`` that
        standardizing a gathered window gives, so the bits are the same.
        """
        if not isinstance(x, SequenceWindows):
            return x
        if isinstance(x, _StandardizedWindows):
            if x.scaler is not self.scaler:
                raise ValueError("windows were standardized by another scaler")
            return x
        self.check_input(x.shape)
        rows = x.rows
        if self.spec.mode() == "rnn":
            cols = np.empty(rows.shape[::-1])
            if self.scaler is None:
                cols[...] = rows.T
            else:
                np.subtract(rows.T, self.scaler[0][:, None], out=cols)
                cols /= self.scaler[1][:, None]
            rows = cols.T
        elif self.scaler is not None:
            rows = (rows - self.scaler[0]) / self.scaler[1]
        return _StandardizedWindows(rows, x.starts, x.timesteps, self.scaler)

    def _prepare_input(self, x) -> Tensor:
        """The standardized input in the layout the first layer reads:
        time-major [time, features, batch] for a recurrent model, as given
        otherwise."""
        rnn = self.spec.mode() == "rnn"
        if isinstance(x, SequenceWindows):
            x = self.standardize_rows(x)
            return Tensor(x.time_major() if rnn else x[:])
        arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        self.check_input(arr.shape)
        if self.scaler is not None:
            mean, scale = self.scaler
            arr = (arr - mean) / scale
        return Tensor(np.transpose(arr, (1, 2, 0)) if rnn else arr)

    def forward(self, x, train: bool = False, rng=None) -> Tensor:
        """Predictions as a Tensor of shape [batch].

        ``x`` is an array or Tensor of raw inputs, or SequenceWindows (raw,
        or from ``standardize_rows``)."""
        h = self._prepare_input(x)
        mode = self.spec.mode()
        if mode == "rnn":
            h = self._recurrent_stack(h, train, rng)
        else:
            if mode == "conv" and self.spec.timesteps != h.shape[1]:
                raise ValueError(
                    f"conv model built for {self.spec.timesteps} timesteps, "
                    f"got {h.shape[1]}"
                )
            if self.input_head is not None:
                h = dense_forward(self.input_head, h)
            for layer, block in zip(self.spec.layers, self.blocks):
                h = _dropout(_FORWARD[layer.kind](block, h), layer, train, rng)
            if mode == "conv":
                h = ad.reshape(h, (h.shape[0], h.shape[1] * h.shape[2]))
        out = dense_forward(self.head, h)
        return ad.reshape(out, (out.shape[0],))

    def _recurrent_stack(self, h: Tensor, train: bool, rng) -> Tensor:
        """The rnn layers on a time-major [T, F, batch] input, read out at
        the last timestep: [batch, width].

        lstm and gru read and write time-major tensors, so one hands the next
        its input as computed.  Attention, a softmax activation (over the
        feature axis) and the readout read [batch, T, n], and one
        ``transpose`` record moves between the layouts where they change.
        Dropout draws its mask over [batch, T, n] in either layout.
        """
        time_major = True

        def layout(h, want_time_major):
            if want_time_major == time_major:
                return h
            return ad.transpose(h, (1, 2, 0) if want_time_major else (2, 0, 1))

        last = len(self.spec.layers) - 1
        for i, (layer, block) in enumerate(zip(self.spec.layers, self.blocks)):
            attention = layer.kind == "attention"
            h, time_major = layout(h, not attention), not attention
            forward = _FORWARD[layer.kind]
            # the readout keeps only the last timestep; dropout draws its
            # mask over all of them, so it keeps the full path
            if attention and i == last and not (train and layer.dropout > 0.0):
                forward = last_query_attention
            h = forward(block, h)
            if layer.activation == "softmax":
                h, time_major = layout(h, False), False
            if layer.activation is not None:
                h = _activation_fn(layer.activation)(h)
            h = _dropout(h, layer, train, rng, time_major)
        h = layout(h, False)
        return ad.slice_(h, (slice(None), -1, slice(None)))  # last timestep

    def predict(self, x) -> np.ndarray:
        """Inference without a tape, in batches; returns a numpy array.

        Sequence models run in batches of ``_SEQUENCE_PREDICT_BATCH`` rows,
        flat models in ``_PREDICT_BATCH``.  ``x`` may be ``SequenceWindows``:
        their rows are standardized once (``standardize_rows``), and each
        batch is gathered from them.  The batch size is not bit-neutral: a
        BLAS product over a ragged last batch can round differently.
        """
        windows = isinstance(x, SequenceWindows)
        x = self.standardize_rows(x) if windows else np.asarray(x, dtype=np.float64)
        step = _SEQUENCE_PREDICT_BATCH if self.spec.mode() in ("conv", "rnn") else _PREDICT_BATCH
        outs = []
        for start in range(0, x.shape[0], step):
            part = slice(start, start + step)
            outs.append(self.forward(x.take(part) if windows else x[part]).data)
        return np.concatenate(outs, axis=0)


@dataclass(frozen=True, eq=False)
class _StandardizedWindows(SequenceWindows):
    """Windows whose rows a model's ``scaler`` (None: no scaling) has
    standardized, as ``Model.standardize_rows`` returns them."""

    scaler: tuple | None = None


def build_model(spec: ModelSpec, seed: int) -> Model:
    """Deterministically initialise a model from its spec and a seed."""
    return _build_model(spec, np.random.default_rng(seed))


class _NoDraws:
    """Stands in for the Generator where every value is about to be
    overwritten: zeros, and no draw."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)

    normal = uniform


def _build_model(spec: ModelSpec, rng) -> Model:
    """Parameters drawn in ``Model.parameters()`` order: the input head (KAN
    only), each layer, the head."""
    widths = spec._width_chain()
    input_head = _init_dense(rng, spec.input_dim, widths[0]) if spec.mode() == "kan" else None
    blocks = [_INIT[l.kind](rng, l, n_in, spec) for l, n_in in zip(spec.layers, widths)]
    head = _init_dense(rng, spec.head_in_dim(), spec.output_dim)
    return Model(spec, blocks, input_head, head)


def param_count(spec: ModelSpec) -> int:
    """Trainable scalar count: the size of ``Model.flat`` of the spec."""
    return _build_model(spec, _NoDraws()).flat.size


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = b"OLNN"
_VERSION = 2
_HEADER_SCHEMA = {"spec": dict, "scaler": ({"mean": [float], "scale": [float]}, None)}


def save_model(model: Model, path) -> None:
    """Write a checkpoint: magic, version, checksum, meta JSON, then named
    f64 tensors.

    Layout (all integers little-endian):
      "OLNN" | u32 version (2) | u32 CRC-32 (zlib) of every later byte
      | u32 meta_len | meta (UTF-8 JSON)
      | u32 n_tensors | for each: u16 name_len | name | u8 ndim
      | ndim * u64 dims | dims-product * f64 payload
    The meta JSON holds the ModelSpec dict and the input scaler (or null).
    """
    meta = {
        "spec": model.spec.to_dict(),
        "scaler": None
        if model.scaler is None
        else {"mean": model.scaler[0].tolist(), "scale": model.scaler[1].tolist()},
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    params = model.parameters()
    parts = [struct.pack("<I", len(meta_bytes)), meta_bytes, struct.pack("<I", len(params))]
    for name, tensor in params:
        name_b = name.encode("utf-8")
        parts += [struct.pack("<H", len(name_b)), name_b, struct.pack("<B", tensor.ndim),
                  struct.pack(f"<{tensor.ndim}Q", *tensor.shape),
                  np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()]
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<II", _VERSION, zlib.crc32(body)))
        fh.write(body)


def load_model(path) -> Model:
    """Rebuild a model from a checkpoint written by ``save_model``.

    Every read is bounds-checked, so a truncated file, or one with bytes
    after the last tensor, raises ValueError; so does a file of another
    version, or one whose CRC does not match its bytes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"not a model checkpoint (bad magic {blob[:4]!r})")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if n > len(blob) - off:
            raise ValueError(
                f"truncated checkpoint: {n} bytes needed at offset {off}, "
                f"file has {len(blob)}"
            )
        off += n
        return blob[off - n : off]

    def unpack(fmt: str):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    version, crc = unpack("<II")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    checked = off
    (meta_len,) = unpack("<I")
    meta_bytes = take(meta_len)
    (n_tensors,) = unpack("<I")

    loaded = {}
    for _ in range(n_tensors):
        (name_len,) = unpack("<H")
        name = take(name_len).decode("utf-8")
        (ndim,) = unpack("<B")
        dims = unpack(f"<{ndim}Q")
        count = math.prod(dims)
        loaded[name] = np.frombuffer(take(8 * count), dtype="<f8").reshape(dims)
    if off != len(blob):
        raise ValueError(f"checkpoint has {len(blob) - off} bytes after its last tensor")
    if zlib.crc32(blob[checked:]) != crc:
        raise ValueError("checkpoint CRC mismatch: the file is corrupt")
    meta = json.loads(meta_bytes.decode("utf-8"))
    if isinstance(meta, dict):  # a null scaler means none, the schema's default
        meta = {k: v for k, v in meta.items() if v is not None}
    meta = schema.check(meta, _HEADER_SCHEMA, "checkpoint header")

    spec = ModelSpec.from_dict(meta["spec"])
    model = _build_model(spec, _NoDraws())
    names = [name for name, _ in model.parameters()]
    if set(names) != set(loaded):
        raise ValueError(
            "checkpoint tensors do not match the model spec: "
            f"missing {sorted(set(names) - set(loaded))}, "
            f"extra {sorted(set(loaded) - set(names))}"
        )
    for name, tensor in model.parameters():
        if loaded[name].shape != tensor.shape:
            raise ValueError(
                f"checkpoint tensor {name} has shape {loaded[name].shape}, "
                f"expected {tensor.shape}"
            )
        tensor.data[...] = loaded[name]
    if meta["scaler"] is not None:
        model.set_scaler(meta["scaler"]["mean"], meta["scaler"]["scale"])
    return model
