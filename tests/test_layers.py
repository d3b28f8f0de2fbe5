"""Layer zoo: dense, conv1d, recurrent cells, attention, polynomial layers,
initialisation, assembled models, parameter counting, and checkpoints.

Recurrent/attention/conv layers are checked against the scalar loop-nest
references in reference_impls.py; polynomial stacks are checked against frozen
closed-form coefficient tables.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest

import optionlab.autodiff as ad
from optionlab.autodiff import Tape, Tensor, grad_check
from optionlab.layers import (
    AttentionParams,
    Conv1dParams,
    DenseParams,
    GruParams,
    KanLayerParams,
    LayerSpec,
    LstmParams,
    Model,
    ModelSpec,
    build_model,
    conv1d_forward,
    dense_forward,
    init_kan,
    kan_layer_forward,
    last_query_attention,
    load_model,
    make_dropout_mask,
    param_count,
    save_model,
    self_attention,
)
from optionlab.layers import _SEQUENCE_PREDICT_BATCH as SEQ_BATCH
from optionlab.market_data import SequenceWindows
from optionlab.training import TrainConfig, train

from reference_impls import (
    ref_conv1d_same,
    ref_gru_step,
    ref_kan_layer,
    ref_lstm_step,
    ref_poly_stack,
    ref_self_attention,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# dense


class TestDense:
    def test_matches_numpy_affine(self):
        rng = _rng(1)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        x = rng.normal(size=(5, 4))
        p = DenseParams(Tensor(w, True), Tensor(b, True), activation=None)
        out = dense_forward(p, Tensor(x))
        np.testing.assert_allclose(out.data, x @ w + b, rtol=1e-14)

    def test_activation_applied(self):
        rng = _rng(2)
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        x = rng.normal(size=(4, 3))
        p = DenseParams(Tensor(w, True), Tensor(b, True), activation="tanh")
        out = dense_forward(p, Tensor(x))
        np.testing.assert_allclose(out.data, np.tanh(x @ w + b), rtol=1e-14)

    def test_grad_wrt_input_and_weights(self):
        rng = _rng(3)
        w = Tensor(rng.normal(size=(4, 3)), True)
        b = Tensor(rng.normal(size=3), True)
        x = Tensor(rng.normal(size=(5, 4)))

        def wrt_x(t):
            p = DenseParams(w, b, activation="sigmoid")
            return ad.reduce_mean(dense_forward(p, t))

        def wrt_w(t):
            p = DenseParams(t, b, activation="sigmoid")
            return ad.reduce_mean(dense_forward(p, x))

        assert grad_check(wrt_x, Tensor(x.data)) < 1e-5
        assert grad_check(wrt_w, Tensor(w.data)) < 1e-5


# ---------------------------------------------------------------------------
# conv1d


class TestConv1d:
    @pytest.mark.parametrize(
        "k,in_ch,filters,batch,time",
        [(3, 2, 4, 2, 6), (2, 3, 2, 1, 5), (1, 4, 3, 3, 4), (5, 1, 2, 2, 7)],
    )
    def test_matches_reference(self, k, in_ch, filters, batch, time):
        rng = _rng(10 + k)
        kernels = rng.normal(size=(k, in_ch, filters))
        bias = rng.normal(size=filters)
        x = rng.normal(size=(batch, time, in_ch))
        p = Conv1dParams(Tensor(kernels, True), Tensor(bias, True))
        out = conv1d_forward(p, Tensor(x))
        assert out.shape == (batch, time, filters)
        np.testing.assert_allclose(
            out.data, ref_conv1d_same(kernels, bias, x), atol=1e-12
        )

    def test_kernel_size_one_is_per_step_dense(self):
        rng = _rng(20)
        kernels = rng.normal(size=(1, 3, 5))
        bias = rng.normal(size=5)
        x = rng.normal(size=(2, 4, 3))
        p = Conv1dParams(Tensor(kernels, True), Tensor(bias, True))
        out = conv1d_forward(p, Tensor(x))
        np.testing.assert_allclose(out.data, x @ kernels[0] + bias, rtol=1e-13)

    def test_impulse_response_reverses_kernel(self):
        # unit impulse at t=1, kernel size 3 (pad 1 left, 1 right):
        # out[t] = sum_dk x[t + dk - 1] k[dk]  ->  [k2, k1, k0, 0]
        taps = np.array([2.0, 3.0, 5.0])
        kernels = taps.reshape(3, 1, 1)
        x = np.zeros((1, 4, 1))
        x[0, 1, 0] = 1.0
        p = Conv1dParams(Tensor(kernels, True), Tensor(np.zeros(1), True))
        out = conv1d_forward(p, Tensor(x)).data[0, :, 0]
        np.testing.assert_allclose(out, [5.0, 3.0, 2.0, 0.0], atol=1e-15)

    def test_even_kernel_pads_left(self):
        # kernel size 2: left pad 1, right pad 0, so out[0] = k1 * x0
        kernels = np.array([7.0, 11.0]).reshape(2, 1, 1)
        x = np.array([[[1.0], [2.0], [3.0]]])
        p = Conv1dParams(Tensor(kernels, True), Tensor(np.zeros(1), True))
        out = conv1d_forward(p, Tensor(x)).data[0, :, 0]
        # out[t] = 7*x[t-1] + 11*x[t]
        np.testing.assert_allclose(out, [11.0, 7 + 22, 14 + 33], atol=1e-13)

    def test_channel_mismatch_raises(self):
        p = Conv1dParams(Tensor(np.zeros((3, 2, 4)), True), Tensor(np.zeros(4), True))
        with pytest.raises(ValueError, match="channels"):
            conv1d_forward(p, Tensor(np.zeros((1, 5, 3))))

    def test_needs_three_dims(self):
        p = Conv1dParams(Tensor(np.zeros((3, 2, 4)), True), Tensor(np.zeros(4), True))
        with pytest.raises(ValueError, match="batch, time, channels"):
            conv1d_forward(p, Tensor(np.zeros((5, 2))))

    def test_grad_wrt_input_and_kernels(self):
        rng = _rng(21)
        kernels = Tensor(rng.normal(size=(3, 2, 3)), True)
        bias = Tensor(rng.normal(size=3), True)
        x = rng.normal(size=(2, 5, 2))

        def wrt_x(t):
            return ad.reduce_mean(conv1d_forward(Conv1dParams(kernels, bias, "relu"), t))

        def wrt_k(t):
            return ad.reduce_mean(
                conv1d_forward(Conv1dParams(t, bias, "relu"), Tensor(x))
            )

        assert grad_check(wrt_x, Tensor(x)) < 1e-5
        assert grad_check(wrt_k, Tensor(kernels.data)) < 1e-5

    def test_dropout_train_only(self):
        rng = _rng(22)
        p = Conv1dParams(
            Tensor(rng.normal(size=(3, 2, 4)), True),
            Tensor(np.zeros(4), True),
            dropout=0.5,
        )
        x = Tensor(rng.normal(size=(2, 6, 2)))
        eval_out = conv1d_forward(p, x)
        train_out = conv1d_forward(p, x, train=True, rng=_rng(99))
        mask = make_dropout_mask(_rng(99), eval_out.shape, 0.5)
        np.testing.assert_array_equal(train_out.data, eval_out.data * mask)


# ---------------------------------------------------------------------------
# recurrent cells


def _gate_weights(rng, in_dim, hidden, n):
    tensors = []
    for _ in range(n):
        tensors.append(Tensor(rng.normal(size=(hidden + in_dim, hidden)) * 0.5, True))
        tensors.append(Tensor(rng.normal(size=hidden) * 0.5, True))
    return tensors


def lstm_step(p, x_t, h_prev, c_prev):
    """One LSTM step: returns (h_t, c_t).

    f,i,o = sigmoid([h,x]W + b); c~ = tanh([h,x]W_c + b_c);
    c_t = f*c_prev + i*c~; h_t = o*tanh(c_t).  Composed from the elementwise
    primitives, as the reference for the fused sequence kernel
    ``autodiff.lstm`` that models run.
    """
    z = ad.concat([h_prev, x_t])
    f = ad.sigmoid(ad.add(ad.matmul(z, p.w_f), p.b_f))
    i = ad.sigmoid(ad.add(ad.matmul(z, p.w_i), p.b_i))
    o = ad.sigmoid(ad.add(ad.matmul(z, p.w_o), p.b_o))
    c_tilde = ad.tanh(ad.add(ad.matmul(z, p.w_c), p.b_c))
    c_t = ad.add(ad.mul(f, c_prev), ad.mul(i, c_tilde))
    h_t = ad.mul(o, ad.tanh(c_t))
    return h_t, c_t


def gru_step(p, x_t, h_prev):
    """One GRU step: h_t = z*h_prev + (1-z)*tanh([r*h_prev, x]W_h + b_h).

    Composed from the elementwise primitives, as the reference for the fused
    sequence kernel ``autodiff.gru`` that models run.
    """
    zin = ad.concat([h_prev, x_t])
    r = ad.sigmoid(ad.add(ad.matmul(zin, p.w_r), p.b_r))
    z = ad.sigmoid(ad.add(ad.matmul(zin, p.w_z), p.b_z))
    cand = ad.tanh(
        ad.add(ad.matmul(ad.concat([ad.mul(r, h_prev), x_t]), p.w_h), p.b_h)
    )
    keep = ad.mul(z, h_prev)
    new = ad.mul(ad.sub(Tensor(np.ones_like(z.data)), z), cand)
    return ad.add(keep, new)


class TestRecurrentCells:
    @pytest.mark.parametrize("batch,features,hidden", [(3, 4, 5), (1, 2, 3), (2, 6, 4)])
    def test_lstm_matches_reference(self, batch, features, hidden):
        rng = _rng(30 + batch)
        p = LstmParams(*_gate_weights(rng, features, hidden, 4))
        x = rng.normal(size=(batch, features))
        h0 = rng.normal(size=(batch, hidden))
        c0 = rng.normal(size=(batch, hidden))
        h, c = lstm_step(p, Tensor(x), Tensor(h0), Tensor(c0))
        ref_h, ref_c = ref_lstm_step(
            p.w_f.data, p.b_f.data, p.w_i.data, p.b_i.data,
            p.w_o.data, p.b_o.data, p.w_c.data, p.b_c.data,
            x, h0, c0,
        )
        np.testing.assert_allclose(h.data, ref_h, atol=1e-12)
        np.testing.assert_allclose(c.data, ref_c, atol=1e-12)

    @pytest.mark.parametrize("batch,features,hidden", [(3, 4, 5), (1, 2, 3), (2, 6, 4)])
    def test_gru_matches_reference(self, batch, features, hidden):
        rng = _rng(40 + batch)
        p = GruParams(*_gate_weights(rng, features, hidden, 3))
        x = rng.normal(size=(batch, features))
        h0 = rng.normal(size=(batch, hidden))
        h = gru_step(p, Tensor(x), Tensor(h0))
        ref_h = ref_gru_step(
            p.w_r.data, p.b_r.data, p.w_z.data, p.b_z.data,
            p.w_h.data, p.b_h.data, x, h0,
        )
        np.testing.assert_allclose(h.data, ref_h, atol=1e-12)

    def test_lstm_zero_weights_halve_cell_state(self):
        # all-zero weights: f = i = o = sigmoid(0) = 1/2, c~ = tanh(0) = 0,
        # so c = c_prev / 2 and h = tanh(c_prev / 2) / 2.
        hidden, batch = 3, 2
        zeros = lambda *s: Tensor(np.zeros(s), True)
        p = LstmParams(
            zeros(hidden + 2, hidden), zeros(hidden),
            zeros(hidden + 2, hidden), zeros(hidden),
            zeros(hidden + 2, hidden), zeros(hidden),
            zeros(hidden + 2, hidden), zeros(hidden),
        )
        c0 = np.array([[0.4, -0.2, 1.0], [0.0, 2.0, -1.0]])
        h, c = lstm_step(
            p, Tensor(np.ones((batch, 2))), Tensor(np.zeros((batch, hidden))), Tensor(c0)
        )
        np.testing.assert_allclose(c.data, c0 / 2, rtol=1e-15)
        np.testing.assert_allclose(h.data, np.tanh(c0 / 2) / 2, rtol=1e-14)

    def test_gru_update_gate_interpolates(self):
        # zero weights: r = z = 1/2, candidate = tanh(0) = 0,
        # so h = z * h_prev = h_prev / 2.
        hidden = 4
        zeros = lambda *s: Tensor(np.zeros(s), True)
        p = GruParams(
            zeros(hidden + 3, hidden), zeros(hidden),
            zeros(hidden + 3, hidden), zeros(hidden),
            zeros(hidden + 3, hidden), zeros(hidden),
        )
        h0 = np.array([[1.0, -2.0, 0.5, 0.0]])
        h = gru_step(p, Tensor(np.zeros((1, 3))), Tensor(h0))
        np.testing.assert_allclose(h.data, h0 / 2, rtol=1e-15)

    def test_lstm_grad_wrt_input(self):
        rng = _rng(50)
        p = LstmParams(*_gate_weights(rng, 3, 4, 4))
        h0 = Tensor(rng.normal(size=(2, 4)))
        c0 = Tensor(rng.normal(size=(2, 4)))

        def f(t):
            h, c = lstm_step(p, t, h0, c0)
            return ad.reduce_mean(ad.add(h, c))

        assert grad_check(f, Tensor(rng.normal(size=(2, 3)))) < 1e-5

    def test_gru_grad_wrt_hidden(self):
        rng = _rng(51)
        p = GruParams(*_gate_weights(rng, 3, 4, 3))
        x = Tensor(rng.normal(size=(2, 3)))

        def f(t):
            return ad.reduce_mean(gru_step(p, x, t))

        assert grad_check(f, Tensor(rng.normal(size=(2, 4)))) < 1e-5


# ---------------------------------------------------------------------------
# fused sequence kernels against their composed-primitive references


def _composed_unroll(kind, p, x):
    """The recurrent layer as a loop of lstm_step/gru_step from zero states."""
    batch, time, _ = x.shape
    hidden = p.b_f.shape[0] if kind == "lstm" else p.b_r.shape[0]
    h = c = Tensor(np.zeros((batch, hidden)))
    steps = []
    for t in range(time):
        x_t = ad.slice_(x, (slice(None), t, slice(None)))
        if kind == "lstm":
            h, c = lstm_step(p, x_t, h, c)
        else:
            h = gru_step(p, x_t, h)
        steps.append(ad.reshape(h, (batch, hidden, 1)))
    return ad.transpose_last(ad.concat(steps))


def _fused_unroll(kind, p, x):
    """The fused kernel on a time-major x [time, features, batch]."""
    if kind == "lstm":
        return ad.lstm(x, p.w_f, p.b_f, p.w_i, p.b_i, p.w_o, p.b_o, p.w_c, p.b_c)
    return ad.gru(x, p.w_r, p.b_r, p.w_z, p.b_z, p.w_h, p.b_h)


def _fused_unroll_batch_major(kind, p, x):
    """``_fused_unroll`` on x [batch, time, features], returning
    [batch, time, hidden] as the composed reference does."""
    return ad.transpose(_fused_unroll(kind, p, ad.transpose(x, (1, 2, 0))), (2, 0, 1))


def _shifted_matmul_conv1d(kernels, x):
    """conv1d as it was composed before the im2col kernel: transpose/concat
    zero padding, then a sum of k shifted slice-and-matmul terms."""
    k, in_ch, _ = kernels.shape
    batch, time = x.shape[0], x.shape[1]
    left, right = k // 2, (k - 1) // 2
    padded = x
    if left or right:
        parts = []
        if left:
            parts.append(Tensor(np.zeros((batch, in_ch, left))))
        parts.append(ad.transpose_last(x))
        if right:
            parts.append(Tensor(np.zeros((batch, in_ch, right))))
        padded = ad.transpose_last(ad.concat(parts))
    out = None
    for dk in range(k):
        window = ad.slice_(padded, (slice(None), slice(dk, dk + time), slice(None)))
        term = ad.matmul(window, ad.slice_(kernels, dk))
        out = term if out is None else ad.add(out, term)
    return out


def _value_and_grads(layer, x, params, weights):
    """Output of ``layer(x)`` and the gradients of mean(out * weights) with
    respect to x and every tensor in ``params``."""
    with Tape() as tape:
        out = layer(x)
        loss = ad.reduce_mean(ad.mul(out, Tensor(weights)))
        grads = tape.backward(loss, params=[x, *params])
    return out.data, [grads[t] for t in (x, *params)]


class TestFusedKernels:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("time", [1, 3, 7])
    def test_recurrent_matches_step_loop(self, kind, time):
        rng = _rng(70 + time)
        batch, features, hidden = 3, 4, 5
        params = _gate_weights(rng, features, hidden, 4 if kind == "lstm" else 3)
        p = (LstmParams if kind == "lstm" else GruParams)(*params)
        x = Tensor(rng.normal(size=(batch, time, features)), True)
        weights = rng.normal(size=(batch, time, hidden))
        fused, fused_grads = _value_and_grads(
            lambda t: _fused_unroll_batch_major(kind, p, t), x, params, weights
        )
        ref, ref_grads = _value_and_grads(
            lambda t: _composed_unroll(kind, p, t), x, params, weights
        )
        assert fused.shape == (batch, time, hidden)
        np.testing.assert_allclose(fused, ref, atol=1e-12, rtol=0.0)
        assert len(fused_grads) == len(ref_grads) == 1 + len(params)
        for got, want in zip(fused_grads, ref_grads):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_conv1d_matches_shifted_matmuls(self, k):
        rng = _rng(80 + k)
        batch, time, in_ch, filters = 2, 6, 3, 4
        kernels = Tensor(rng.normal(size=(k, in_ch, filters)), True)
        x = Tensor(rng.normal(size=(batch, time, in_ch)), True)
        weights = rng.normal(size=(batch, time, filters))
        fused, fused_grads = _value_and_grads(
            lambda t: ad.conv1d(t, kernels), x, [kernels], weights
        )
        ref, ref_grads = _value_and_grads(
            lambda t: _shifted_matmul_conv1d(kernels, t), x, [kernels], weights
        )
        np.testing.assert_allclose(fused, ref, atol=1e-12, rtol=0.0)
        for got, want in zip(fused_grads, ref_grads):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_grad_check_over_whole_sequence(self, kind):
        rng = _rng(90)
        n_gates = 4 if kind == "lstm" else 3
        params = _gate_weights(rng, 3, 4, n_gates)
        x = rng.normal(size=(2, 5, 3))

        def wrt_x(t):
            p = (LstmParams if kind == "lstm" else GruParams)(*params)
            return ad.reduce_mean(_fused_unroll_batch_major(kind, p, t))

        assert grad_check(wrt_x, Tensor(x)) < 1e-5
        for j, tensor in enumerate(params):

            def wrt_param(t, j=j):
                swapped = params[:j] + [t] + params[j + 1 :]
                p = (LstmParams if kind == "lstm" else GruParams)(*swapped)
                return ad.reduce_mean(_fused_unroll_batch_major(kind, p, Tensor(x)))

            assert grad_check(wrt_param, Tensor(tensor.data)) < 1e-5, j

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("batch", [1, 5, 64])
    def test_forward_without_tape_matches_taped(self, kind, batch):
        """Without a tape the kernel runs its forward-only steps; the output
        is that of the taped kernel to 1e-15, for every timestep."""
        rng = _rng(93)
        params = _gate_weights(rng, 4, 6, 4 if kind == "lstm" else 3)
        p = (LstmParams if kind == "lstm" else GruParams)(*params)
        x = Tensor(rng.normal(size=(7, 4, batch)))
        with Tape() as tape:
            taped = _fused_unroll(kind, p, x).data
        assert len(tape._records) == 1
        free = _fused_unroll(kind, p, x).data
        assert free.shape == taped.shape == (7, 6, batch)
        np.testing.assert_allclose(free, taped, rtol=0.0, atol=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_candidate_overflow_raises_with_and_without_a_tape(self):
        """An overflowed GRU candidate pre-activation, which tanh would squash
        to 1.0, raises in the taped and in the forward-only kernel."""
        params = _gate_weights(_rng(94), 3, 4, 3)
        params[4].data[4, 0] = 1e308  # w_h: input feature 0 to the first unit
        p = GruParams(*params)
        x = Tensor(2.0 + np.abs(_rng(95).normal(size=(5, 3, 2))))
        with pytest.raises(FloatingPointError, match="gru: non-finite gate pre-activations"):
            _fused_unroll("gru", p, x)
        with pytest.raises(FloatingPointError, match="gru: non-finite gate pre-activations"):
            with Tape():
                _fused_unroll("gru", p, x)

    def test_input_without_grad_gets_no_gradient(self):
        rng = _rng(91)
        params = _gate_weights(rng, 3, 4, 4)
        x = Tensor(rng.normal(size=(5, 3, 2)))
        with Tape() as tape:
            loss = ad.reduce_mean(_fused_unroll("lstm", LstmParams(*params), x))
            grads = tape.backward(loss)
        assert x not in grads and all(t in grads for t in params)

    def test_shape_errors_name_the_kernel(self):
        rng = _rng(92)
        p = LstmParams(*_gate_weights(rng, 3, 4, 4))
        with pytest.raises(ValueError, match="lstm expects"):
            _fused_unroll("lstm", p, Tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError, match="lstm: gate weights"):
            _fused_unroll("lstm", p, Tensor(np.zeros((2, 5, 6))))
        with pytest.raises(ValueError, match="conv1d: kernels"):
            ad.conv1d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((2, 4))))


# ---------------------------------------------------------------------------
# attention


class TestSelfAttention:
    @pytest.mark.parametrize("time,d", [(4, 3), (1, 2), (6, 5)])
    def test_matches_reference(self, time, d):
        rng = _rng(60 + time)
        p = AttentionParams(
            Tensor(rng.normal(size=(d, d)), True),
            Tensor(rng.normal(size=(d, d)), True),
            Tensor(rng.normal(size=(d, d)), True),
        )
        h = rng.normal(size=(time, d))
        out = self_attention(p, Tensor(h))
        assert out.shape == (time, 2 * d)
        ref = ref_self_attention(p.w_q.data, p.w_k.data, p.w_v.data, h)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_batched_equals_per_example(self):
        rng = _rng(70)
        d = 4
        p = AttentionParams(
            Tensor(rng.normal(size=(d, d)), True),
            Tensor(rng.normal(size=(d, d)), True),
            Tensor(rng.normal(size=(d, d)), True),
        )
        h = rng.normal(size=(3, 5, d))
        out = self_attention(p, Tensor(h))
        assert out.shape == (3, 5, 2 * d)
        for b in range(3):
            ref = ref_self_attention(p.w_q.data, p.w_k.data, p.w_v.data, h[b])
            np.testing.assert_allclose(out.data[b], ref, atol=1e-12)

    def test_single_timestep_attends_to_itself(self):
        # T=1: the softmax over one score is 1, so the attended part is h @ Wv.
        rng = _rng(71)
        d = 3
        p = AttentionParams(
            Tensor(rng.normal(size=(d, d)), True),
            Tensor(rng.normal(size=(d, d)), True),
            Tensor(rng.normal(size=(d, d)), True),
        )
        h = rng.normal(size=(1, d))
        out = self_attention(p, Tensor(h)).data
        np.testing.assert_allclose(out[0, :d], (h @ p.w_v.data)[0], rtol=1e-13)
        np.testing.assert_allclose(out[0, d:], h[0], rtol=1e-15)

    def test_width_mismatch_raises(self):
        p = AttentionParams(
            Tensor(np.zeros((3, 3)), True),
            Tensor(np.zeros((3, 3)), True),
            Tensor(np.zeros((3, 3)), True),
        )
        with pytest.raises(ValueError, match="width"):
            self_attention(p, Tensor(np.zeros((4, 5))))

    def test_grad_wrt_input(self):
        rng = _rng(72)
        d = 3
        p = AttentionParams(
            Tensor(rng.normal(size=(d, d)), True),
            Tensor(rng.normal(size=(d, d)), True),
            Tensor(rng.normal(size=(d, d)), True),
        )

        def f(t):
            return ad.reduce_mean(self_attention(p, t))

        assert grad_check(f, Tensor(rng.normal(size=(4, d)))) < 1e-5


def _attention_params(rng, d):
    return AttentionParams(*(Tensor(rng.normal(size=(d, d)), True) for _ in range(3)))


class TestLastQueryAttention:
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_matches_last_row_of_self_attention(self, scale):
        rng = _rng(73)
        p = _attention_params(rng, 6)
        h = Tensor(scale * rng.normal(size=(64, 10, 6)))
        out = last_query_attention(p, h)
        assert out.shape == (64, 1, 12)
        np.testing.assert_allclose(
            out.data[:, 0], self_attention(p, h).data[:, -1], rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_without_tape_matches_taped(self, batch):
        """Inference runs the taped composition: without a tape the output
        has the same bits."""
        rng = _rng(75)
        p = _attention_params(rng, 6)
        h = Tensor(np.tanh(rng.normal(size=(batch, 10, 6))))
        with Tape() as tape:
            taped = last_query_attention(p, h).data
        assert tape._records
        free = last_query_attention(p, h).data
        assert free.shape == taped.shape == (batch, 1, 12)
        np.testing.assert_array_equal(free, taped)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_scores_raise_with_or_without_a_tape(self):
        """Scores that overflow raise, though a softmax would turn -inf into a
        zero weight: here W_k q is finite and h_t . (W_k q) is not."""
        p = AttentionParams(Tensor(np.eye(3)), Tensor(np.full((3, 3), 2e307)),
                            Tensor(np.eye(3)))
        h = Tensor(1.0 + np.abs(_rng(76).normal(size=(2, 4, 3))))
        assert np.isfinite((h.data[:, -1] @ p.w_k.data.T)).all()
        with pytest.raises(FloatingPointError, match="matmul: produced non-finite values"):
            last_query_attention(p, h)
        with pytest.raises(FloatingPointError, match="matmul: produced non-finite values"):
            with Tape():
                last_query_attention(p, h)

    @pytest.mark.parametrize("wrt", ["h", "w_q", "w_k", "w_v"])
    def test_grad_check(self, wrt):
        rng = _rng(74)
        p = _attention_params(rng, 3)
        h = Tensor(rng.normal(size=(2, 4, 3)))

        def f(t):
            if wrt == "h":
                return ad.reduce_mean(last_query_attention(p, t))
            weights = {**vars(p), wrt: t}
            return ad.reduce_mean(last_query_attention(AttentionParams(**weights), h))

        start = h if wrt == "h" else getattr(p, wrt)
        assert grad_check(f, Tensor(start.data.copy(), True)) < 1e-5


# ---------------------------------------------------------------------------
# polynomial stacks

# Coefficient tables (highest power first), frozen from the standard
# closed forms of each family, degrees 0..5.
POLY_TABLES = {
    "chebyshev2": [
        [1.0],
        [2.0, 0.0],
        [4.0, 0.0, -1.0],
        [8.0, 0.0, -4.0, 0.0],
        [16.0, 0.0, -12.0, 0.0, 1.0],
        [32.0, 0.0, -32.0, 0.0, 6.0, 0.0],
    ],
    "legendre": [
        [1.0],
        [1.0, 0.0],
        [1.5, 0.0, -0.5],
        [2.5, 0.0, -1.5, 0.0],
        [4.375, 0.0, -3.75, 0.0, 0.375],
        [7.875, 0.0, -8.75, 0.0, 1.875, 0.0],
    ],
    "bessel": [
        [1.0],
        [1.0, 1.0],
        [3.0, 3.0, 1.0],
        [15.0, 15.0, 6.0, 1.0],
        [105.0, 105.0, 45.0, 10.0, 1.0],
        [945.0, 945.0, 420.0, 105.0, 15.0, 1.0],
    ],
    "laguerre": [
        [1.0],
        [-1.0, 1.0],
        [0.5, -2.0, 1.0],
        [-1.0 / 6.0, 1.5, -3.0, 1.0],
        [1.0 / 24.0, -2.0 / 3.0, 3.0, -4.0, 1.0],
        [-1.0 / 120.0, 5.0 / 24.0, -5.0 / 3.0, 5.0, -5.0, 1.0],
    ],
}


class TestPolynomialStacks:
    @pytest.mark.parametrize("family", sorted(POLY_TABLES))
    def test_matches_closed_form_tables(self, family):
        xs = np.linspace(-1.0, 1.0, 11)
        out = ad.poly_basis(family, 5, Tensor(xs)).data  # [11, 6]
        for n, coeffs in enumerate(POLY_TABLES[family]):
            expected = np.polyval(coeffs, xs)
            np.testing.assert_allclose(out[:, n], expected, atol=1e-10)

    def test_chebyshev2_at_half(self):
        # U_n(cos pi/3): sin((n+1) pi/3) / sin(pi/3) -> 1, 1, 0, -1, -1, 0
        out = ad.poly_basis("chebyshev2", 5, Tensor(np.array([0.5]))).data[0]
        np.testing.assert_allclose(out, [1.0, 1.0, 0.0, -1.0, -1.0, 0.0], atol=1e-14)

    def test_matches_scalar_recurrence(self):
        xs = np.linspace(-0.9, 0.9, 7)
        for family in POLY_TABLES:
            out = ad.poly_basis(family, 4, Tensor(xs)).data
            for i, x in enumerate(xs):
                np.testing.assert_allclose(
                    out[i], ref_poly_stack(family, 4, float(x)), rtol=1e-13
                )

    def test_output_shape_appends_axis(self):
        x = Tensor(np.zeros((2, 3)))
        assert ad.poly_basis("legendre", 3, x).shape == (2, 3, 4)
        assert ad.poly_basis("legendre", 0, x).shape == (2, 3, 1)

    def test_degree_zero_is_ones(self):
        out = ad.poly_basis("bessel", 0, Tensor(np.array([-0.3, 0.7]))).data
        np.testing.assert_array_equal(out, [[1.0], [1.0]])

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="family"):
            ad.poly_basis("hermite", 2, Tensor(np.zeros(3)))

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="degree"):
            ad.poly_basis("legendre", -1, Tensor(np.zeros(3)))

    @pytest.mark.parametrize("family", sorted(POLY_TABLES))
    def test_grad_flows_through_recurrence(self, family):
        def f(t):
            return ad.reduce_mean(ad.poly_basis(family, 4, t))

        assert grad_check(f, Tensor(np.linspace(-0.8, 0.8, 6))) < 1e-5


# ---------------------------------------------------------------------------
# kan layer


class TestKanLayer:
    @pytest.mark.parametrize("family", sorted(POLY_TABLES))
    def test_matches_triple_loop_reference(self, family):
        rng = _rng(80)
        in_dim, out_dim, degree, batch = 4, 3, 3, 5
        p = KanLayerParams(
            family=family,
            degree=degree,
            coeffs=Tensor(rng.normal(size=(in_dim, out_dim, degree + 1)), True),
            mix_weights=Tensor(rng.normal(size=(in_dim, in_dim)) * 0.4, True),
            mix_bias=Tensor(rng.normal(size=in_dim) * 0.1, True),
        )
        z = rng.normal(size=(batch, in_dim))
        out = kan_layer_forward(p, Tensor(z))
        ref = ref_kan_layer(
            family, degree, p.coeffs.data, p.mix_weights.data, p.mix_bias.data, z
        )
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_degree_zero_output_is_input_independent(self):
        rng = _rng(82)
        coeffs = rng.normal(size=(3, 2, 1))
        p = KanLayerParams(
            family="chebyshev2", degree=0, coeffs=Tensor(coeffs, True),
            mix_weights=Tensor(rng.normal(size=(3, 3)), True),
            mix_bias=Tensor(rng.normal(size=3), True),
        )
        a = kan_layer_forward(p, Tensor(rng.normal(size=(2, 3)))).data
        b = kan_layer_forward(p, Tensor(rng.normal(size=(2, 3)))).data
        np.testing.assert_allclose(a, b, rtol=1e-15)
        np.testing.assert_allclose(a[0], coeffs[:, :, 0].sum(axis=0), rtol=1e-13)

    def test_dropout_applied_at_train_time(self):
        rng = _rng(83)
        p = KanLayerParams(
            family="laguerre",
            degree=2,
            coeffs=Tensor(rng.normal(size=(3, 4, 3)), True),
            mix_weights=Tensor(rng.normal(size=(3, 3)), True),
            mix_bias=Tensor(rng.normal(size=3), True),
            dropout=0.5,
        )
        z = Tensor(rng.normal(size=(5, 3)))
        eval_out = kan_layer_forward(p, z)
        train_out = kan_layer_forward(p, z, train=True, rng=_rng(7))
        mask = make_dropout_mask(_rng(7), eval_out.shape, 0.5)
        np.testing.assert_array_equal(train_out.data, eval_out.data * mask)

    def test_grad_wrt_input_and_coeffs(self):
        rng = _rng(84)
        p = init_kan(rng, 4, 3, degree=3, family="chebyshev2")
        z = rng.normal(size=(3, 4))

        def wrt_z(t):
            return ad.reduce_mean(kan_layer_forward(p, t))

        def wrt_c(t):
            q = KanLayerParams(
                family=p.family, degree=p.degree, coeffs=t,
                mix_weights=p.mix_weights, mix_bias=p.mix_bias,
            )
            return ad.reduce_mean(kan_layer_forward(q, Tensor(z)))

        assert grad_check(wrt_z, Tensor(z)) < 1e-5
        assert grad_check(wrt_c, Tensor(p.coeffs.data)) < 1e-5


class TestInitKan:
    def test_code_variant_coefficient_std(self):
        p = init_kan(_rng(100), 50, 40, degree=4, family="legendre", variant="code")
        assert p.coeffs.shape == (50, 40, 5)
        std = p.coeffs.data.std()
        assert abs(std - 1.0 / 250.0) < 0.05 / 250.0

    def test_eq_variant_coefficient_std(self):
        p = init_kan(_rng(101), 50, 40, degree=4, family="legendre", variant="eq")
        std = p.coeffs.data.std()
        assert abs(std - 1.0 / 200.0) < 0.05 / 200.0

    def test_eq_degree_zero_falls_back_to_code(self):
        p = init_kan(_rng(102), 50, 40, degree=0, family="bessel", variant="eq")
        std = p.coeffs.data.std()
        assert abs(std - 1.0 / 50.0) < 0.05 / 50.0

    def test_mix_shapes_and_toggle(self):
        p = init_kan(_rng(103), 6, 4, degree=2, family="laguerre")
        assert p.mix_weights.shape == (6, 6)
        assert p.mix_bias.shape == (6,)
        np.testing.assert_array_equal(p.mix_bias.data, np.zeros(6))

    def test_bad_variant_raises(self):
        with pytest.raises(ValueError, match="variant"):
            init_kan(_rng(0), 4, 4, degree=2, family="legendre", variant="bogus")


# ---------------------------------------------------------------------------
# dropout masks


class TestDropoutMask:
    def test_values_are_zero_or_inverse_keep(self):
        mask = make_dropout_mask(_rng(1), (200, 50), 0.3)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.7}

    def test_mean_is_one(self):
        mask = make_dropout_mask(_rng(2), (300, 300), 0.4)
        assert abs(mask.mean() - 1.0) < 0.01

    def test_rate_zero_keeps_everything(self):
        np.testing.assert_array_equal(
            make_dropout_mask(_rng(3), (4, 5), 0.0), np.ones((4, 5))
        )

    def test_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            make_dropout_mask(None, (2, 2), 0.5)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            make_dropout_mask(_rng(4), (2, 2), 1.0)


# ---------------------------------------------------------------------------
# specs and validation


def _mlp_spec(width=64, n=3, activation="relu"):
    return ModelSpec(
        layers=tuple(LayerSpec("dense", width, activation=activation) for _ in range(n))
    )


def _kan_spec(width=64, degrees=(2, 5, 4), family="chebyshev2", **kw):
    return ModelSpec(
        layers=tuple(
            LayerSpec("kan", width, degree=d, family=family) for d in degrees
        ),
        **kw,
    )


class TestModelSpec:
    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            ModelSpec(layers=(LayerSpec("dense", 8), LayerSpec("conv1d", 8, kernel_size=3)))
        with pytest.raises(ValueError, match="incompatible"):
            ModelSpec(
                layers=(
                    LayerSpec("kan", 8, degree=2, family="legendre"),
                    LayerSpec("dense", 8),
                )
            )

    def test_attention_needs_a_recurrent_companion(self):
        with pytest.raises(ValueError, match="incompatible"):
            ModelSpec(layers=(LayerSpec("attention", 10),))

    def test_attention_cannot_lead(self):
        with pytest.raises(ValueError, match="first"):
            ModelSpec(layers=(LayerSpec("attention", 10), LayerSpec("lstm", 10)))

    def test_attention_width_must_match_incoming(self):
        with pytest.raises(ValueError, match="incoming width"):
            ModelSpec(layers=(LayerSpec("lstm", 16), LayerSpec("attention", 8)))

    def test_conv_needs_timesteps(self):
        with pytest.raises(ValueError, match="timesteps"):
            ModelSpec(layers=(LayerSpec("conv1d", 8, kernel_size=3),))

    def test_kan_needs_degree_and_family(self):
        with pytest.raises(ValueError, match="degree"):
            LayerSpec("kan", 8, family="legendre")
        with pytest.raises(ValueError, match="family"):
            LayerSpec("kan", 8, degree=2, family="monomial")

    def test_unknown_kind_and_activation(self):
        with pytest.raises(ValueError, match="kind"):
            LayerSpec("transformer", 8)
        with pytest.raises(ValueError, match="activation"):
            LayerSpec("dense", 8, activation="swish")

    def test_attention_width_doubles_head_input(self):
        spec = ModelSpec(layers=(LayerSpec("gru", 16), LayerSpec("attention", 16)))
        assert spec.head_in_dim() == 32
        assert spec.mode() == "rnn"

    def test_conv_head_flattens(self):
        spec = ModelSpec(
            layers=(LayerSpec("conv1d", 6, kernel_size=3),), timesteps=5
        )
        assert spec.head_in_dim() == 30

    def test_dict_round_trip(self):
        specs = [
            _mlp_spec(width=8, n=2),
            _kan_spec(width=4, degrees=(2, 3), family="bessel", kan_init="eq"),
            ModelSpec(
                layers=(
                    LayerSpec("conv1d", 4, kernel_size=2, activation="relu", dropout=0.1),
                ),
                timesteps=6,
            ),
            ModelSpec(layers=(LayerSpec("lstm", 8), LayerSpec("attention", 8))),
        ]
        for spec in specs:
            assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        d = _mlp_spec(width=4, n=1).to_dict()
        d["optimizer"] = "adam"
        with pytest.raises(ValueError, match="unknown ModelSpec keys"):
            ModelSpec.from_dict(d)

    def test_from_dict_rejects_unknown_layer_keys(self):
        d = _mlp_spec(width=4, n=1).to_dict()
        d["layers"][0]["stride"] = 2
        with pytest.raises(ValueError, match=r"unknown ModelSpec\.layers\[0\] keys"):
            ModelSpec.from_dict(d)

    def test_from_dict_needs_layers(self):
        with pytest.raises(ValueError, match="layers"):
            ModelSpec.from_dict({"input_dim": 10})


# ---------------------------------------------------------------------------
# assembled models and parameter counting

ZOO = [
    ("mlp-64x3", _mlp_spec(), 9089),
    ("kan-cheb-64", _kan_spec(), 70593),
    ("kan-legendre-8", _kan_spec(width=8, degrees=(3, 3), family="legendre"), None),
    ("kan-eq-init", _kan_spec(width=4, degrees=(2,), family="laguerre", kan_init="eq"), None),
    (
        "conv-2layer",
        ModelSpec(
            layers=(
                LayerSpec("conv1d", 6, kernel_size=3, activation="relu"),
                LayerSpec("conv1d", 4, kernel_size=2, activation="relu"),
            ),
            timesteps=5,
        ),
        None,
    ),
    ("lstm-8-attn", ModelSpec(layers=(LayerSpec("lstm", 8), LayerSpec("attention", 8))), 817),
    ("gru-16", ModelSpec(layers=(LayerSpec("gru", 16),)), None),
    (
        "lstm-gru-stack",
        ModelSpec(layers=(LayerSpec("lstm", 8), LayerSpec("gru", 8, dropout=0.2))),
        None,
    ),
]


def _runtime_count(model):
    return sum(t.size for _, t in model.parameters())


def _assert_views_of_flat(model):
    """Each parameter is a C-contiguous view of ``model.flat`` at its offset
    in ``parameters()`` order, and together they cover the vector."""
    flat = model.flat
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags["C_CONTIGUOUS"]
    base = flat.__array_interface__["data"][0]
    start = 0
    for name, t in model.parameters():
        assert t.data.flags["C_CONTIGUOUS"], name
        assert t.data.base is flat, name
        assert t.data.__array_interface__["data"][0] == base + 8 * start, name
        start += t.size
    assert start == flat.size == param_count(model.spec)


class TestParameterVector:
    @pytest.mark.parametrize("name,spec,pinned", ZOO, ids=[z[0] for z in ZOO])
    def test_build_and_load_own_one_vector(self, name, spec, pinned, tmp_path):
        model = build_model(spec, seed=5)
        _assert_views_of_flat(model)
        save_model(model, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        _assert_views_of_flat(loaded)
        assert loaded.flat.tobytes() == model.flat.tobytes()

    @pytest.mark.parametrize("name,spec,pinned", ZOO, ids=[z[0] for z in ZOO])
    def test_load_draws_no_random_numbers(self, name, spec, pinned, tmp_path, monkeypatch):
        """The file overwrites every parameter, so loading draws no
        initialisation first."""
        model = build_model(spec, seed=5)
        save_model(model, tmp_path / "m.bin")

        def no_draws(*args, **kwargs):
            raise AssertionError("load_model asked for a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        assert load_model(tmp_path / "m.bin").flat.tobytes() == model.flat.tobytes()

    @pytest.mark.parametrize("restore_best", [True, False])
    def test_train_keeps_the_views(self, restore_best):
        rng = _rng(6)
        x, y = rng.normal(size=(32, 10)), rng.normal(size=32)
        model = build_model(_mlp_spec(width=4, n=2), seed=6)
        before = model.snapshot()
        cfg = TrainConfig(epochs=3, patience=3, batch_size=8, restore_best=restore_best)
        train(model, (x, y), (x, y), cfg)
        _assert_views_of_flat(model)
        assert not np.array_equal(model.flat, before)


class TestModelZoo:
    @pytest.mark.parametrize("name,spec,pinned", ZOO, ids=[z[0] for z in ZOO])
    def test_param_count_matches_runtime(self, name, spec, pinned):
        model = build_model(spec, seed=5)
        assert param_count(spec) == _runtime_count(model)
        if pinned is not None:
            assert param_count(spec) == pinned

    def test_pinned_mlp_count_arithmetic(self):
        # 10->64 (704) + 64->64 (4160) + 64->64 (4160) + 64->1 (65) = 9089
        assert param_count(_mlp_spec()) == 704 + 4160 + 4160 + 65

    def test_pinned_kan_count_arithmetic(self):
        # input head 10->64: 704; three kan layers of 64*64*(d+1) coeffs
        # + 64*64 mix + 64 bias each (d = 2, 5, 4); head 64->1: 65.
        per_layer = lambda d: 64 * 64 * (d + 1) + 64 * 64 + 64
        assert (
            param_count(_kan_spec())
            == 704 + per_layer(2) + per_layer(5) + per_layer(4) + 65
        )

    @pytest.mark.parametrize("name,spec,pinned", ZOO, ids=[z[0] for z in ZOO])
    def test_forward_shapes_and_predict(self, name, spec, pinned):
        model = build_model(spec, seed=7)
        rng = _rng(8)
        if spec.mode() in ("conv", "rnn"):
            t = spec.timesteps or 5
            x = rng.normal(size=(6, t, spec.input_dim))
        else:
            x = rng.normal(size=(6, spec.input_dim))
        out = model.forward(x)
        assert out.shape == (6,)
        np.testing.assert_array_equal(model.predict(x), out.data)

    def test_build_is_deterministic(self):
        a = build_model(_kan_spec(width=8, degrees=(2, 3)), seed=11)
        b = build_model(_kan_spec(width=8, degrees=(2, 3)), seed=11)
        c = build_model(_kan_spec(width=8, degrees=(2, 3)), seed=12)
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)
        assert any(
            not np.array_equal(ta.data, tc.data)
            for (_, ta), (_, tc) in zip(a.parameters(), c.parameters())
        )

    def test_parameter_names_unique_and_ordered(self):
        model = build_model(ZOO[5][1], seed=1)
        names = [n for n, _ in model.parameters()]
        assert len(names) == len(set(names))
        assert names[0].startswith("layers.0.") and names[-1] == "head.b"

    def test_scaler_standardises_inputs(self):
        spec = _mlp_spec(width=8, n=1)
        model = build_model(spec, seed=3)
        rng = _rng(9)
        x = rng.normal(loc=5.0, scale=2.0, size=(10, 10))
        mean, scale = x.mean(axis=0), x.std(axis=0)
        raw = model.forward((x - mean) / scale).data
        model.set_scaler(mean, scale)
        np.testing.assert_allclose(model.forward(x).data, raw, rtol=1e-12)

    def test_scaler_validation(self):
        model = build_model(_mlp_spec(width=4, n=1), seed=0)
        with pytest.raises(ValueError, match="per-input-feature"):
            model.set_scaler(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            model.set_scaler(np.zeros(10), np.zeros(10))
        for bad in (np.inf, np.nan):
            scale = np.ones(10)
            scale[3] = bad
            with pytest.raises(ValueError, match="finite; feature 3 has mean 0.0"):
                model.set_scaler(np.zeros(10), scale)
            with pytest.raises(ValueError, match="finite; feature 3 has mean"):
                model.set_scaler(scale, np.ones(10))

    def test_input_rank_and_width_validation(self):
        model = build_model(_mlp_spec(width=4, n=1), seed=0)
        with pytest.raises(ValueError, match="2-D"):
            model.forward(np.zeros((2, 3, 10)))
        with pytest.raises(ValueError, match="input_dim"):
            model.forward(np.zeros((2, 7)))
        conv = build_model(
            ModelSpec(layers=(LayerSpec("conv1d", 4, kernel_size=3),), timesteps=5),
            seed=0,
        )
        with pytest.raises(ValueError, match="timesteps"):
            conv.forward(np.zeros((2, 7, 10)))

    def test_snapshot_restore_round_trip(self):
        model = build_model(_mlp_spec(width=8, n=2), seed=4)
        snap = model.snapshot()
        x = _rng(5).normal(size=(4, 10))
        before = model.predict(x)
        for _, t in model.parameters():
            t.data += 1.0
        assert not np.allclose(model.predict(x), before)
        model.restore(snap)
        np.testing.assert_array_equal(model.predict(x), before)

    def test_restore_rejects_a_snapshot_of_the_wrong_size(self):
        model = build_model(_mlp_spec(width=4, n=1), seed=4)
        snap = model.snapshot()
        for bad in (snap[:-1], np.append(snap, 0.0), [snap]):
            with pytest.raises(ValueError, match="does not match"):
                model.restore(bad)
        np.testing.assert_array_equal(model.flat, snap)

    def test_rnn_unroll_matches_manual_steps(self):
        """A one-layer lstm/gru model predicts, and backpropagates, as a loop
        of lstm_step/gru_step read out at the last step."""
        for kind in ("lstm", "gru"):
            model = build_model(ModelSpec(layers=(LayerSpec(kind, 6),)), seed=13)
            block = model.blocks[0]
            params = [t for _, t in model.parameters()]
            for time in (1, 3, 7):
                x = _rng(14).normal(size=(2, time, 10))
                y = Tensor(_rng(15).normal(size=2))

                def manual():
                    steps = _composed_unroll(kind, block, Tensor(x))
                    h = ad.slice_(steps, (slice(None), -1, slice(None)))
                    return ad.reshape(dense_forward(model.head, h), (2,))

                runs = []
                for forward in (lambda: model.forward(x), manual):
                    with Tape() as tape:
                        pred = forward()
                        grads = tape.backward(ad.mse_loss(pred, y), params=params)
                    runs.append((pred.data, [grads[t] for t in params]))
                (pred, grads), (want, want_grads) = runs
                np.testing.assert_allclose(pred, want, atol=1e-13)
                for got, ref in zip(grads, want_grads):
                    np.testing.assert_allclose(got, ref, atol=1e-12, rtol=0.0)

    def test_sequence_layers_write_one_tape_record_each(self):
        """Tape records of one forward pass: the recurrent stack does not grow
        with the window length, and a conv1d layer is two records
        (convolution with its bias, activation)."""
        rnn = build_model(
            ModelSpec(layers=(
                LayerSpec("lstm", 16), LayerSpec("gru", 16), LayerSpec("attention", 16),
            )),
            seed=1,
        )
        tdnn = build_model(
            ModelSpec(
                layers=(LayerSpec("conv1d", 16, kernel_size=3, activation="tanh"),) * 2,
                timesteps=10,
            ),
            seed=2,
        )

        def records(model, time):
            with Tape() as tape:
                model.forward(_rng(3).normal(size=(4, time, 10)), train=True, rng=_rng(4))
            return len(tape._records)

        # lstm, gru, the transpose from time-major to [batch, T, n], nine for
        # the last-query attention, the readout slice, the head's affine map
        # and the reshape to [batch]
        assert records(rnn, 5) == records(rnn, 20) == 15
        # two conv1d layers of two, the flatten, the head's affine map and
        # the reshape to [batch]
        assert records(tdnn, 10) == 7

    def test_sequence_predict_memory(self):
        """The tracemalloc peak of predicting 16 384 windows (T = 10): 2.7 MiB
        for the RNN and 4.1 MiB for the TDNN when measured, held with about
        25% headroom.  Without a tape the recurrent kernels keep no gate
        history, and sequence models predict in small batches."""
        x = _rng(5).normal(size=(16384, 10, 10))
        bound = {"rnn": 3.4 * 2**20, "conv": 5.1 * 2**20}
        for model in (
            build_model(ModelSpec(layers=(
                LayerSpec("lstm", 16), LayerSpec("gru", 16), LayerSpec("attention", 16),
            )), seed=1),
            build_model(ModelSpec(
                layers=(LayerSpec("conv1d", 16, kernel_size=3, activation="tanh"),) * 2,
                timesteps=10,
            ), seed=2),
        ):
            tracemalloc.start()
            try:
                model.predict(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound[model.spec.mode()], (model.spec.mode(), peak)

    @pytest.mark.parametrize("rows", [1, SEQ_BATCH - 1, SEQ_BATCH, SEQ_BATCH + 1,
                                      2 * SEQ_BATCH + 1])
    def test_predict_matches_taped_forward_at_batch_edges(self, rows):
        """predict (no tape: forward-only recurrent steps and attention, in
        batches of SEQ_BATCH rows) gives the predictions of one taped forward
        over every row to 1e-15: the RNN's forward-only arithmetic rounds
        differently, and a BLAS product over a one-row batch can too."""
        x = _rng(6).normal(size=(rows, 10, 10))
        for model in (
            build_model(ModelSpec(layers=(
                LayerSpec("lstm", 16), LayerSpec("gru", 16), LayerSpec("attention", 16),
            )), seed=1),
            build_model(ModelSpec(
                layers=(LayerSpec("conv1d", 16, kernel_size=3, activation="tanh"),) * 2,
                timesteps=10,
            ), seed=2),
        ):
            model.set_scaler(np.full(10, 0.1), np.full(10, 0.5))
            with Tape() as tape:
                want = model.forward(x).data
            assert tape._records
            got = model.predict(x)
            assert got.shape == (rows,)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_attention_readout_takes_the_last_query(self):
        """A model ending in attention predicts, and backpropagates, as the
        full self-attention read out at the last timestep."""
        model = build_model(ModelSpec(layers=(
            LayerSpec("lstm", 6), LayerSpec("attention", 6),
        )), seed=16)
        lstm, attention = model.blocks
        params = [t for _, t in model.parameters()]
        x = _rng(17).normal(size=(5, 7, 10))
        y = Tensor(_rng(18).normal(size=5))

        def full():
            h = _fused_unroll_batch_major("lstm", lstm, Tensor(x))
            h = ad.slice_(self_attention(attention, h), (slice(None), -1, slice(None)))
            return ad.reshape(dense_forward(model.head, h), (5,))

        runs = []
        for forward in (lambda: model.forward(x), full):
            with Tape() as tape:
                pred = forward()
                grads = tape.backward(ad.mse_loss(pred, y), params=params)
            runs.append((pred.data, [grads[t] for t in params]))
        (pred, grads), (want, want_grads) = runs
        np.testing.assert_allclose(pred, want, rtol=0.0, atol=1e-12)
        for got, ref in zip(grads, want_grads):
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_attention_dropout_keeps_the_full_path(self):
        """With attention dropout, a training forward takes the full path and
        draws its mask over every timestep, as before."""
        model = build_model(ModelSpec(layers=(
            LayerSpec("gru", 4), LayerSpec("attention", 4, dropout=0.5),
        )), seed=19)
        gru, attention = model.blocks
        x = _rng(20).normal(size=(3, 5, 10))
        rng, want_rng = _rng(21), _rng(21)
        pred = model.forward(x, train=True, rng=rng).data
        h = _fused_unroll_batch_major("gru", gru, Tensor(x))
        h = self_attention(attention, h)
        h = ad.dropout_apply(h, make_dropout_mask(want_rng, (3, 5, 8), 0.5))
        h = ad.slice_(h, (slice(None), -1, slice(None)))
        want = ad.reshape(dense_forward(model.head, h), (3,)).data
        np.testing.assert_array_equal(pred, want)
        assert rng.random() == want_rng.random()

    @pytest.mark.parametrize("layers, timesteps", [
        ((LayerSpec("lstm", 16), LayerSpec("gru", 16), LayerSpec("attention", 16)), None),
        ((LayerSpec("conv1d", 16, kernel_size=3, activation="tanh"),) * 2, 10),
    ], ids=["rnn", "tdnn"])
    def test_windows_predict_scales_rows_once_bit_for_bit(self, layers, timesteps):
        """Predicting SequenceWindows standardizes their rows once and
        gathers each batch from them; every prediction has the bits of the
        forward of the same raw windows materialized, batch by batch, the
        ragged last batch included."""
        rows = _rng(22).normal(size=(1200, 10)) * 3.0 + 1.0
        windows = SequenceWindows(rows, np.r_[0:600, 620:1181], 10)  # 512, 512 and 137
        model = build_model(ModelSpec(layers=layers, timesteps=timesteps), seed=3)
        model.set_scaler(rows.mean(axis=0), rows.std(axis=0))
        got = model.predict(windows)
        want = [model.forward(windows[s : s + SEQ_BATCH]).data
                for s in range(0, len(windows), SEQ_BATCH)]
        assert got.tobytes() == np.concatenate(want).tobytes()
        assert got.tobytes() == model.predict(windows[:]).tobytes()

    def test_recurrent_dropout_draws_masks_over_batch_time_width(self):
        """Dropout after a recurrent layer draws its mask over [batch, T, n],
        as the batch-major path did, and applies it to the time-major
        activations: the output, every gradient and the rng's next draw have
        the bits of that path, so a seed trains to the same checkpoint."""
        model = build_model(ModelSpec(layers=(
            LayerSpec("lstm", 6, dropout=0.3), LayerSpec("gru", 5, dropout=0.4),
            LayerSpec("attention", 5),
        )), seed=23)
        model.set_scaler(np.full(10, 0.1), np.full(10, 0.5))
        lstm, gru, attention = model.blocks
        params = [t for _, t in model.parameters()]
        x = _rng(24).normal(size=(4, 7, 10))
        y = Tensor(_rng(25).normal(size=4))

        def batch_major(rng):
            h = _fused_unroll_batch_major("lstm", lstm, Tensor((x - 0.1) / 0.5))
            h = ad.dropout_apply(h, make_dropout_mask(rng, (4, 7, 6), 0.3))
            h = _fused_unroll_batch_major("gru", gru, h)
            h = ad.dropout_apply(h, make_dropout_mask(rng, (4, 7, 5), 0.4))
            h = ad.slice_(last_query_attention(attention, h), (slice(None), -1, slice(None)))
            return ad.reshape(dense_forward(model.head, h), (4,))

        runs = []
        for forward in (lambda rng: model.forward(x, train=True, rng=rng), batch_major):
            rng = _rng(26)
            with Tape() as tape:
                pred = forward(rng)
                grads = tape.backward(ad.mse_loss(pred, y), params=params)
            runs.append((pred.data.tobytes(), [grads[t].tobytes() for t in params], rng.random()))
        assert runs[0] == runs[1]

    def test_flat_models_tape_records_per_training_step(self):
        """Tape records of one training step (forward plus loss at batch 256):
        exactly 7 for the 2x32 tanh MLP (affine and tanh per layer, the head,
        a reshape and the loss) and exactly 10 for the 2x16 chebyshev2 KAN at
        every degree (the input head; the mix, tanh and basis contraction of
        each layer; the head, a reshape and the loss)."""

        def records(layer):
            model = build_model(ModelSpec(layers=(layer,) * 2), seed=1)
            rng = _rng(3)
            with Tape() as tape:
                pred = model.forward(rng.normal(size=(256, 10)), train=True, rng=_rng(4))
                ad.mse_loss(pred, Tensor(rng.normal(size=256)))
            return len(tape._records)

        assert records(LayerSpec("dense", 32, activation="tanh")) == 7
        assert records(LayerSpec("kan", 16, degree=3, family="chebyshev2")) == 10
        assert records(LayerSpec("kan", 16, degree=6, family="chebyshev2")) == 10

# ---------------------------------------------------------------------------
# checkpoints


def _save_v1(model, path):
    """A version-1 checkpoint, written as save_model wrote it before the CRC
    word: "OLNN" | u32 1 | u32 meta_len | meta | u32 n_tensors | tensors."""
    scaler = None if model.scaler is None else {
        "mean": model.scaler[0].tolist(), "scale": model.scaler[1].tolist()}
    meta = json.dumps({"spec": model.spec.to_dict(), "scaler": scaler}, sort_keys=True).encode()
    params = model.parameters()
    with open(path, "wb") as fh:
        fh.write(b"OLNN" + struct.pack("<II", 1, len(meta)) + meta)
        fh.write(struct.pack("<I", len(params)))
        for name, tensor in params:
            fh.write(struct.pack("<H", len(name)) + name.encode())
            fh.write(struct.pack("<B", tensor.ndim))
            for dim in tensor.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(tensor.data.astype("<f8").tobytes())


class TestCheckpoints:
    def test_round_trip_preserves_everything(self, tmp_path):
        spec = _kan_spec(width=6, degrees=(2, 3), family="bessel")
        model = build_model(spec, seed=21)
        model.set_scaler(np.arange(10.0), np.arange(1.0, 11.0))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == spec
        for (na, ta), (nb, tb) in zip(model.parameters(), loaded.parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)
        np.testing.assert_array_equal(loaded.scaler[0], model.scaler[0])
        np.testing.assert_array_equal(loaded.scaler[1], model.scaler[1])
        x = _rng(22).normal(size=(5, 10))
        np.testing.assert_array_equal(model.predict(x), loaded.predict(x))

    def test_round_trip_without_scaler(self, tmp_path):
        model = build_model(_mlp_spec(width=4, n=1), seed=1)
        path = tmp_path / "m.bin"
        save_model(model, path)
        assert load_model(path).scaler is None

    def test_resave_is_byte_identical(self, tmp_path):
        model = build_model(_mlp_spec(width=8, n=2), seed=2)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        model = build_model(_mlp_spec(width=4, n=1), seed=3)
        path = tmp_path / "m.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_truncated_or_padded_checkpoint_rejected(self, tmp_path):
        model = build_model(_mlp_spec(width=8, n=1), seed=5)
        good, bad = tmp_path / "m.bin", tmp_path / "bad.bin"
        save_model(model, good)
        blob = good.read_bytes()
        for length in range(len(blob)):
            bad.write_bytes(blob[:length])
            with pytest.raises(ValueError):
                load_model(bad)
        bad.write_bytes(blob + b"junk")
        with pytest.raises(ValueError, match="4 bytes after its last tensor"):
            load_model(bad)

    def test_version_1_checkpoint_loads_the_same_tensors(self, tmp_path):
        spec = _kan_spec(width=6, degrees=(2, 3), family="bessel")
        model = build_model(spec, seed=23)
        model.set_scaler(np.arange(10.0), np.arange(1.0, 11.0))
        v1, v2 = tmp_path / "v1.bin", tmp_path / "v2.bin"
        _save_v1(model, v1)
        save_model(model, v2)
        blob = v2.read_bytes()
        assert blob[4:8] == struct.pack("<I", 2)
        assert blob[:4] + struct.pack("<I", 1) + blob[12:] == v1.read_bytes()
        loaded = load_model(v1)
        assert loaded.spec == spec
        for (na, ta), (nb, tb) in zip(model.parameters(), loaded.parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data.view(np.int64), tb.data.view(np.int64))
        np.testing.assert_array_equal(loaded.scaler[1], model.scaler[1])
        x = _rng(24).normal(size=(5, 10))
        np.testing.assert_array_equal(model.predict(x), loaded.predict(x))

    def test_crc_mismatch_rejected(self, tmp_path):
        model = build_model(_mlp_spec(width=4, n=1), seed=6)
        path = tmp_path / "m.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        for at in (8, 20, len(blob) // 2, len(blob) - 1):  # the CRC, the meta JSON, tensors
            bad = bytearray(blob)
            bad[at] ^= 1
            path.write_bytes(bytes(bad))
            with pytest.raises(ValueError, match="CRC mismatch"):
                load_model(path)

    def test_recurrent_round_trip_predictions(self, tmp_path):
        spec = ModelSpec(layers=(LayerSpec("gru", 5), LayerSpec("attention", 5)))
        model = build_model(spec, seed=31)
        path = tmp_path / "rnn.bin"
        save_model(model, path)
        x = _rng(32).normal(size=(3, 6, 10))
        np.testing.assert_array_equal(model.predict(x), load_model(path).predict(x))
