"""The reverse-mode engine: forward values, backward rules, grad_check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optionlab import autodiff as ad
from optionlab.autodiff import Tape, Tensor, grad_check
from reference_impls import ref_poly_stack


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestForward:
    def test_matmul_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        eye = t(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(a, eye).data, a.data)

    def test_matmul_batched_broadcast(self):
        a = t(np.arange(24.0).reshape(2, 3, 4))
        b = t(np.arange(20.0).reshape(4, 5))
        out = ad.matmul(a, b)
        assert out.shape == (2, 3, 5)
        np.testing.assert_allclose(out.data, a.data @ b.data)

    def test_add_broadcasts_bias(self):
        x = t(np.zeros((3, 2)))
        bias = t([1.0, 2.0])
        np.testing.assert_array_equal(ad.add(x, bias).data, np.tile([1.0, 2.0], (3, 1)))

    def test_sigmoid_symmetry(self):
        x = t([0.0, 3.0, -3.0])
        out = ad.sigmoid(x).data
        assert out[0] == 0.5
        np.testing.assert_allclose(out[1] + out[2], 1.0, rtol=1e-15)

    def test_tanh_odd(self):
        x = t([0.7])
        np.testing.assert_allclose(ad.tanh(x).data, -ad.tanh(ad.scale(x, -1.0)).data)

    def test_relu(self):
        np.testing.assert_array_equal(
            ad.relu(t([-2.0, 0.0, 3.0])).data, [0.0, 0.0, 3.0]
        )

    def test_softmax_rows_sum_to_one_and_positive(self):
        x = t(np.random.default_rng(0).normal(size=(4, 7)) * 10)
        out = ad.softmax(x).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-12)
        assert (out > 0.0).all()

    def test_softmax_shift_invariance(self):
        x = t([[1.0, 2.0, 3.0]])
        shifted = t([[1001.0, 1002.0, 1003.0]])
        np.testing.assert_allclose(
            ad.softmax(x).data, ad.softmax(shifted).data, rtol=1e-12
        )

    def test_softmax_uniform(self):
        np.testing.assert_allclose(
            ad.softmax(t([[5.0, 5.0, 5.0, 5.0]])).data, np.full((1, 4), 0.25)
        )

    def test_concat_and_slice_round_trip(self):
        a = t(np.arange(6.0).reshape(2, 3))
        b = t(np.arange(4.0).reshape(2, 2))
        cat = ad.concat([a, b])
        assert cat.shape == (2, 5)
        np.testing.assert_array_equal(
            ad.slice_(cat, (slice(None), slice(0, 3))).data, a.data
        )
        np.testing.assert_array_equal(
            ad.slice_(cat, (slice(None), slice(3, 5))).data, b.data
        )

    def test_reshape_transpose(self):
        x = t(np.arange(6.0).reshape(2, 3))
        assert ad.reshape(x, (3, 2)).shape == (3, 2)
        np.testing.assert_array_equal(ad.transpose_last(x).data, x.data.T)

    def test_reduce_mean(self):
        assert ad.reduce_mean(t([[1.0, 2.0], [3.0, 4.0]])).item() == 2.5

    def test_mse_example(self):
        loss = ad.mse_loss(t([1.0, 2.0, 3.0]), t([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(loss.item(), 1.0 / 3.0, rtol=1e-15)

    def test_dropout_apply(self):
        mask = np.array([0.0, 2.0, 2.0, 0.0])
        out = ad.dropout_apply(t([1.0, 1.0, 5.0, 9.0]), mask)
        np.testing.assert_array_equal(out.data, [0.0, 2.0, 10.0, 0.0])

    def test_value_semantics_slice_copy(self):
        x = t(np.ones((2, 2)))
        view = ad.slice_(x, (0,))
        view.data[0] = 99.0
        assert x.data[0, 0] == 1.0


class TestBackward:
    def test_mse_gradient_formula(self):
        pred = t([1.0, 2.0, 3.0], grad=True)
        actual = t([0.0, 2.0, 5.0], grad=True)
        with Tape() as tape:
            loss = ad.mse_loss(pred, actual)
            grads = tape.backward(loss)
        np.testing.assert_allclose(
            grads[pred], 2.0 * (pred.data - actual.data) / 3.0, rtol=1e-15
        )
        np.testing.assert_allclose(grads[actual], -grads[pred], rtol=1e-15)

    def test_reused_tensor_accumulates(self):
        x = t([3.0], grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)  # x**2
            loss = ad.reduce_mean(y)
            grads = tape.backward(loss)
        np.testing.assert_allclose(grads[x], [6.0], rtol=1e-15)

    def test_off_path_parameter_gets_zeros(self):
        used = t([1.0, 2.0], grad=True)
        unused = t([5.0], grad=True)
        with Tape() as tape:
            loss = ad.reduce_mean(used)
            grads = tape.backward(loss, params=[used, unused])
        np.testing.assert_array_equal(grads[unused], [0.0])

    def test_chain_matches_hand_derivative(self):
        # f(x) = mean(tanh(x W)) wrt W, one entry checked by hand
        x = t([[2.0]])
        w = t([[0.5]], grad=True)
        with Tape() as tape:
            loss = ad.reduce_mean(ad.tanh(ad.matmul(x, w)))
            grads = tape.backward(loss)
        expected = (1.0 - np.tanh(1.0) ** 2) * 2.0
        np.testing.assert_allclose(grads[w], [[expected]], rtol=1e-14)

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0], grad=True)
        with Tape() as tape:
            y = ad.scale(x, 2.0)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(y)

    def test_nested_tapes_record_innermost(self):
        x = t([1.0, 2.0], grad=True)
        with Tape() as outer:
            with Tape() as inner:
                loss = ad.reduce_mean(ad.scale(x, 3.0))
            assert inner._records and not outer._records

    def test_gradients_only_flow_from_the_loss(self):
        x = t([1.0], grad=True)
        with Tape() as tape:
            a = ad.scale(x, 2.0)
            _side = ad.scale(x, 100.0)  # recorded but not part of the loss
            grads = tape.backward(ad.reduce_mean(a))
        np.testing.assert_allclose(grads[x], [2.0])


def _shapes(base):
    rng = np.random.default_rng(base)
    for _ in range(3):
        yield rng


class TestGradCheckPrimitives:
    """Each primitive, 3 random shapes, max relative error < 1e-5."""

    TOL = 1e-5

    def check(self, f, shape, seed):
        rng = np.random.default_rng(seed)
        point = Tensor(rng.normal(size=shape))
        assert grad_check(f, point) < self.TOL

    def test_matmul_left(self):
        for i, (rows, inner, cols) in enumerate([(2, 3, 4), (1, 5, 2), (4, 2, 3)]):
            b = Tensor(np.random.default_rng(50 + i).normal(size=(inner, cols)))
            self.check(
                lambda x, b=b: ad.reduce_mean(ad.matmul(x, b)), (rows, inner), i
            )

    def test_matmul_right(self):
        for i, (rows, inner, cols) in enumerate([(2, 3, 4), (3, 2, 5), (1, 4, 1)]):
            a = Tensor(np.random.default_rng(60 + i).normal(size=(rows, inner)))
            self.check(
                lambda x, a=a: ad.reduce_mean(ad.matmul(a, x)), (inner, cols), 10 + i
            )

    def test_matmul_batched(self):
        b = Tensor(np.random.default_rng(70).normal(size=(4, 5)))
        self.check(lambda x: ad.reduce_mean(ad.matmul(x, b)), (2, 3, 4), 3)

    def test_matmul_batched_right(self):
        a = Tensor(np.random.default_rng(71).normal(size=(2, 3, 4)))
        self.check(lambda x: ad.reduce_mean(ad.tanh(ad.matmul(a, x))), (4, 5), 4)

    @pytest.mark.parametrize("b_shape", [(5, 4), (2, 5, 4)])
    def test_matmul_transposed(self, b_shape):
        """a @ b^T against the product with b's last axes swapped, and the
        gradients of both operands."""
        rng = np.random.default_rng(72)
        a, b = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=b_shape))
        np.testing.assert_allclose(ad.matmul(a, b, transpose_b=True).data,
                                   a.data @ np.swapaxes(b.data, -1, -2), rtol=1e-15)

        def f(x, y):
            return ad.reduce_mean(ad.tanh(ad.matmul(x, y, transpose_b=True)))

        self.check(lambda x: f(x, b), a.shape, 5)
        self.check(lambda x: f(a, x), b_shape, 6)

    def test_add_with_broadcast(self):
        for i, shape in enumerate([(3, 4), (2, 1, 5), (6,)]):
            other = Tensor(np.random.default_rng(80 + i).normal(size=shape[-1:]))
            self.check(
                lambda x, o=other: ad.reduce_mean(ad.add(x, o)), shape, 20 + i
            )
            self.check(
                lambda x, s=shape: ad.reduce_mean(
                    ad.add(Tensor(np.ones(s)), x)
                ),
                shape[-1:],
                30 + i,
            )

    def test_sub(self):
        for i, shape in enumerate([(3,), (2, 4), (2, 2, 2)]):
            other = Tensor(np.random.default_rng(90 + i).normal(size=shape))
            self.check(lambda x, o=other: ad.reduce_mean(ad.sub(x, o)), shape, 40 + i)

    def test_mul(self):
        for i, shape in enumerate([(4,), (3, 2), (2, 3, 2)]):
            other = Tensor(np.random.default_rng(100 + i).normal(size=shape))
            self.check(lambda x, o=other: ad.reduce_mean(ad.mul(x, o)), shape, 50 + i)

    def test_scale(self):
        for i, shape in enumerate([(5,), (2, 3), (1, 2, 4)]):
            self.check(lambda x: ad.reduce_mean(ad.scale(x, -2.5)), shape, 60 + i)

    def test_tanh(self):
        for i, shape in enumerate([(4,), (3, 3), (2, 2, 3)]):
            self.check(lambda x: ad.reduce_mean(ad.tanh(x)), shape, 70 + i)

    def test_sigmoid(self):
        for i, shape in enumerate([(4,), (2, 5), (3, 1, 2)]):
            self.check(lambda x: ad.reduce_mean(ad.sigmoid(x)), shape, 80 + i)

    def test_relu(self):
        for i, shape in enumerate([(6,), (4, 3), (2, 2, 2)]):
            # squared so the check also exercises a nonlinear downstream factor
            self.check(
                lambda x: ad.reduce_mean(ad.mul(ad.relu(x), ad.relu(x))), shape, 90 + i
            )

    def test_softmax(self):
        for i, shape in enumerate([(5,), (3, 4), (2, 2, 3)]):
            w = Tensor(np.random.default_rng(110 + i).normal(size=shape))
            self.check(
                lambda x, w=w: ad.reduce_mean(ad.mul(ad.softmax(x), w)), shape, 100 + i
            )

    def test_concat(self):
        for i, shape in enumerate([(2, 3), (4, 2), (1, 5)]):
            other = Tensor(np.random.default_rng(120 + i).normal(size=shape))
            self.check(
                lambda x, o=other: ad.reduce_mean(ad.concat([x, o])), shape, 110 + i
            )
            self.check(
                lambda x, o=other: ad.reduce_mean(ad.concat([o, x])), shape, 120 + i
            )

    def test_reshape(self):
        for i, (shape, to) in enumerate([((2, 3), (6,)), ((4,), (2, 2)), ((2, 2, 2), (4, 2))]):
            w = Tensor(np.random.default_rng(130 + i).normal(size=to))
            self.check(
                lambda x, to=to, w=w: ad.reduce_mean(ad.mul(ad.reshape(x, to), w)),
                shape,
                130 + i,
            )

    def test_slice(self):
        keys = [
            ((4, 3), (slice(1, 3), slice(None))),
            ((5,), (slice(0, 2),)),
            ((3, 2, 2), (1,)),
        ]
        for i, (shape, key) in enumerate(keys):
            self.check(
                lambda x, k=key: ad.reduce_mean(ad.slice_(x, k)), shape, 140 + i
            )

    def test_transpose_last(self):
        for i, shape in enumerate([(2, 3), (4, 2), (2, 3, 4)]):
            w = Tensor(np.random.default_rng(150 + i).normal(size=shape[:-2] + shape[:-3:-1]))
            self.check(
                lambda x, w=w: ad.reduce_mean(ad.mul(ad.transpose_last(x), w)),
                shape,
                150 + i,
            )

    def test_reduce_mean(self):
        for i, shape in enumerate([(7,), (2, 4), (2, 2, 3)]):
            self.check(lambda x: ad.reduce_mean(x), shape, 160 + i)

    def test_dropout_apply(self):
        for i, shape in enumerate([(4,), (3, 3), (2, 2, 2)]):
            mask_rng = np.random.default_rng(170 + i)
            mask = (mask_rng.random(shape) > 0.3) / 0.7
            self.check(
                lambda x, m=mask: ad.reduce_mean(ad.dropout_apply(x, m)), shape, 170 + i
            )

    def test_mse_loss(self):
        for i, n in enumerate([3, 5, 8]):
            actual = Tensor(np.random.default_rng(180 + i).normal(size=n))
            self.check(lambda x, a=actual: ad.mse_loss(x, a), (n,), 180 + i)

    def test_affine(self):
        for i, (batch, n_in, n_out) in enumerate([(3, 4, 2), (1, 3, 5), (4, 2, 1)]):
            rng = np.random.default_rng(190 + i)
            x, w, b = (Tensor(rng.normal(size=s)) for s in
                       ((batch, n_in), (n_in, n_out), (n_out,)))
            u = Tensor(rng.normal(size=(batch, n_out)))  # weights every output

            def loss(x, w, b, u=u):
                return ad.reduce_mean(ad.mul(ad.tanh(ad.affine(x, w, b)), u))

            self.check(lambda t: loss(t, w, b), x.shape, 190 + i)
            self.check(lambda t: loss(x, t, b), w.shape, 200 + i)
            self.check(lambda t: loss(x, w, t), b.shape, 210 + i)

    def test_poly_basis_every_family_and_degree(self):
        rng = np.random.default_rng(220)
        for family in ("chebyshev2", "legendre", "bessel", "laguerre"):
            for degree in range(7):
                u = Tensor(rng.normal(size=(3, 2, degree + 1)))

                def f(t, u=u, family=family, degree=degree):
                    return ad.reduce_mean(ad.mul(ad.poly_basis(family, degree, t), u))

                point = Tensor(rng.uniform(-0.95, 0.95, size=(3, 2)))
                assert grad_check(f, point) < self.TOL, (family, degree)


class TestFusedKernels:
    def test_affine_is_matmul_then_add_bit_for_bit(self):
        """Forward and gradients equal those of add(matmul(x, w), b); with x
        needing no gradient the rule skips dx."""
        rng = np.random.default_rng(230)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        u = Tensor(rng.normal(size=(7, 3)))
        for x_grad in (True, False):
            x = Tensor(rng.normal(size=(7, 5)), requires_grad=x_grad)
            runs = []
            for f in (ad.affine, lambda x, w, b: ad.add(ad.matmul(x, w), b)):
                with Tape() as tape:
                    out = f(x, w, b)
                    grads = tape.backward(ad.reduce_mean(ad.mul(out, u)))
                runs.append((out.data, {t: grads[t] for t in (x, w, b) if t in grads}))
            (fused, fused_grads), (composed, composed_grads) = runs
            assert fused.tobytes() == composed.tobytes()
            assert set(fused_grads) == set(composed_grads) == ({x, w, b} if x_grad else {w, b})
            for t in fused_grads:
                assert fused_grads[t].tobytes() == composed_grads[t].tobytes()
        with Tape() as tape:
            out = ad.affine(Tensor(rng.normal(size=(7, 5))), w, b)
        _, _, rule = tape._records[-1]
        dx, dw, db = rule(np.ones(out.shape))
        assert dx is None and dw.shape == w.shape and db.shape == b.shape

    def test_affine_shape_errors(self):
        x, w = t(np.zeros((2, 3))), t(np.zeros((3, 4)))
        for bad in ((t(np.zeros(3)), w, t(np.zeros(4))),
                    (x, t(np.zeros((2, 4))), t(np.zeros(4))),
                    (x, w, t(np.zeros(3))),
                    (x, w, t(np.zeros((1, 4))))):
            with pytest.raises(ValueError, match="affine"):
                ad.affine(*bad)

    @pytest.mark.parametrize("family", ["chebyshev2", "legendre", "bessel", "laguerre"])
    def test_poly_basis_matches_scalar_recurrence(self, family):
        xs = np.random.default_rng(240).uniform(-1.0, 1.0, size=(5, 3))
        out = ad.poly_basis(family, 6, Tensor(xs)).data
        assert out.shape == (5, 3, 7) and out.flags["C_CONTIGUOUS"]
        for idx in np.ndindex(xs.shape):
            np.testing.assert_allclose(
                out[idx], ref_poly_stack(family, 6, float(xs[idx])), rtol=1e-12, atol=1e-12
            )

    def test_poly_basis_argument_errors(self):
        with pytest.raises(ValueError, match="family"):
            ad.poly_basis("hermite", 2, t([0.5]))
        with pytest.raises(ValueError, match="degree"):
            ad.poly_basis("legendre", -1, t([0.5]))


# every public function of autodiff that builds a tensor
PRIMITIVES = sorted(
    set(ad.__all__) - {"Tensor", "Tape", "grad_check"}
)


def _primitive_case(name, rng):
    """(function, arguments) of one call of the named primitive; the tensor
    arguments require gradients.  A public primitive without a case here
    fails its test with a KeyError."""

    def g(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def gates(n_gates, features, hidden):
        return [g(hidden + features, hidden) if i % 2 == 0 else g(hidden)
                for i in range(2 * n_gates)]

    cases = {
        "matmul": (ad.matmul, [g(2, 3, 4), g(4, 5)]),
        "add": (ad.add, [g(3, 4), g(4)]),
        "sub": (ad.sub, [g(3, 4), g(3, 1)]),
        "mul": (ad.mul, [g(2, 3, 4), g(3, 4)]),
        "scale": (lambda x: ad.scale(x, -1.5), [g(3, 4)]),
        "tanh": (ad.tanh, [g(3, 4)]),
        "sigmoid": (ad.sigmoid, [g(3, 4)]),
        "relu": (ad.relu, [g(3, 4)]),
        "softmax": (ad.softmax, [g(3, 4)]),
        "concat": (lambda a, b: ad.concat([a, b]), [g(2, 3), g(2, 2)]),
        "reshape": (lambda x: ad.reshape(x, (6, 2)), [g(3, 4)]),
        "slice_": (lambda x: ad.slice_(x, (slice(1, 3), 0)), [g(4, 3)]),
        "transpose_last": (ad.transpose_last, [g(2, 3, 4)]),
        "reduce_mean": (ad.reduce_mean, [g(3, 4)]),
        "dropout_apply": (ad.dropout_apply, [g(3, 4), (rng.random((3, 4)) > 0.5) / 0.5]),
        "mse_loss": (ad.mse_loss, [g(5), g(5)]),
        "affine": (ad.affine, [g(4, 3), g(3, 2), g(2)]),
        "poly_basis": (lambda x: ad.poly_basis("laguerre", 4, x), [g(3, 4)]),
        "kan_contract": (lambda x, c: ad.kan_contract("legendre", 3, x, c), [g(3, 4), g(4, 2, 4)]),
        "conv1d": (ad.conv1d, [g(2, 5, 3), g(2, 3, 4)]),
        "lstm": (ad.lstm, [g(2, 4, 3), *gates(4, 3, 5)]),
        "gru": (ad.gru, [g(2, 4, 3), *gates(3, 3, 5)]),
    }
    return cases[name]


class TestNoPrimitiveMutatesItsInputs:
    """Forward and backward leave every input array, and the output gradient,
    byte-equal: the optimiser updates parameters in place, so a primitive
    that wrote into its inputs would corrupt them.  Each record holds the
    tensor inputs and one rule that returns one entry per input."""

    @pytest.mark.parametrize("name", PRIMITIVES)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_forward_and_backward_leave_inputs_byte_equal(self, name, seed):
        rng = np.random.default_rng(seed)
        fn, args = _primitive_case(name, rng)
        arrays = [a.data if isinstance(a, Tensor) else a for a in args]
        before = [a.tobytes() for a in arrays]
        with Tape() as tape:
            out = fn(*args)
        assert [a.tobytes() for a in arrays] == before
        recorded, inputs, rule = tape._records[-1]
        assert recorded is out
        assert list(inputs) == [a for a in args if isinstance(a, Tensor)]
        assert callable(rule)
        g = rng.normal(size=out.shape)
        g_before = g.tobytes()
        grads = rule(g)
        assert len(grads) == len(inputs)
        assert [a.tobytes() for a in arrays] == before
        assert g.tobytes() == g_before
        for inp, grad in zip(inputs, grads):
            assert grad is None or np.shape(grad) == inp.shape


class TestErrorsAndChecks:
    def test_matmul_shape_error_names_op_and_shapes(self):
        with pytest.raises(ValueError) as exc:
            ad.matmul(t(np.ones((2, 3))), t(np.ones((4, 5))))
        assert "matmul" in str(exc.value)
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(t([1.0, 2.0]), t(np.ones((2, 2))))

    def test_add_incompatible_shapes(self):
        with pytest.raises(ValueError, match="add"):
            ad.add(t(np.ones((2, 3))), t(np.ones((4,))))

    def test_reshape_size_mismatch(self):
        with pytest.raises(ValueError, match="reshape"):
            ad.reshape(t(np.ones((2, 3))), (7,))

    def test_concat_mismatched_leading_shapes(self):
        with pytest.raises(ValueError, match="concat"):
            ad.concat([t(np.ones((2, 3))), t(np.ones((3, 3)))])

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError, match="mse_loss"):
            ad.mse_loss(t([1.0, 2.0]), t([1.0]))
        with pytest.raises(ValueError, match="mse_loss"):
            ad.mse_loss(t(np.ones((2, 2))), t(np.ones((2, 2))))

    def test_dropout_mask_shape_mismatch(self):
        with pytest.raises(ValueError, match="dropout_apply"):
            ad.dropout_apply(t([1.0, 2.0]), np.ones(3))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_finite_check_catches_overflow(self):
        big = t([1e308])
        with pytest.raises(FloatingPointError, match="scale"):
            ad.scale(big, 10.0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_finite_check_toggle(self):
        """The check has no off switch: an overflow always raises."""
        big = t([1e308])
        assert not hasattr(ad, "set_finite_checks")
        with pytest.raises(FloatingPointError):
            ad.scale(big, 10.0)

    def test_grad_check_requires_scalar_output(self):
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda x: ad.scale(x, 2.0), t([1.0, 2.0]))


class TestDeterminism:
    def test_forward_backward_bitwise_repeatable(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(4, 3)))
            w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            target = Tensor(rng.normal(size=4))
            with Tape() as tape:
                h = ad.tanh(ad.matmul(x, w))
                pred = ad.reshape(
                    ad.matmul(h, Tensor(np.ones((2, 1)))), (4,)
                )
                loss = ad.mse_loss(pred, target)
                grads = tape.backward(loss, params=[w])
            return loss.item(), grads[w].copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)
