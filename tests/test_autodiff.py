import re
import tracemalloc
import warnings

import numpy as np
import pytest

from maskcast import autodiff as ad
from maskcast.autodiff import (Adam, ParameterTree, ShapeError, Tensor,
                               backward, finite_diff_check, load_checkpoint,
                               save_checkpoint)


class TestKernelForward:
    def test_matmul_hand_product(self):
        out = ad.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[1], [1]]))
        assert out.data.tolist() == [[3], [7]]

    def test_sigmoid_midpoint(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_bits_match_closed_form(self):
        x = np.random.default_rng(0).normal(scale=20.0, size=(6, 7))
        g = np.random.default_rng(1).normal(size=(6, 7))
        t = Tensor(x, requires_grad=True)
        y = 1.0 / (1.0 + np.exp(-x))
        out = ad.sigmoid(t)
        backward(ad.tsum(ad.mul(out, Tensor(g))))
        assert out.data.tobytes() == y.tobytes()
        assert t.grad.tobytes() == (g * y * (1.0 - y)).tobytes()

    def test_row_softmax_uniform(self):
        out = ad.row_softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_relu_clamps(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_mean_is_sum_over_numel(self):
        x = Tensor([1.0, 2.0, 3.0, 6.0])
        assert ad.tmean(x).item() == ad.tsum(x).item() / 4

    def test_forward_deterministic(self):
        x = np.random.default_rng(0).normal(size=(5, 5))
        a = ad.tanh(ad.matmul(Tensor(x), Tensor(x))).data
        b = ad.tanh(ad.matmul(Tensor(x), Tensor(x))).data
        assert (a == b).all()

    def test_matmul_shape_mismatch_names_kernel(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(ad.tsum(x))
        assert x.grad.tolist() == [1.0, 1.0, 1.0]

    def test_quadratic_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(ad.tsum(ad.mul(x, x)))
        assert x.grad.tolist() == [2.0, 4.0]

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(ad.mul(x, x))

    def test_gradient_accumulates_across_uses(self):
        x = Tensor([3.0], requires_grad=True)
        backward(ad.tsum(ad.add(x, x)))
        assert x.grad.tolist() == [2.0]

    def test_gather_flat_repeated_index_sums_its_gradients(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        picked = ad.gather_flat(a, [4, 0, 4, 4])
        backward(ad.tsum(ad.mul(picked, Tensor([1.0, 2.0, 4.0, 8.0]))))
        assert a.grad.tolist() == [[2.0, 0.0, 0.0], [0.0, 13.0, 0.0]]

    def test_constant_operand_gets_no_gradient(self):
        eye = Tensor(np.eye(3))
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        backward(ad.tsum(ad.matmul(eye, x)))
        assert eye.grad is None
        assert x.grad.tolist() == [[1.0, 1.0]] * 3

    def test_constant_inputs_record_no_tape(self):
        y = ad.matmul(Tensor(np.eye(3)), Tensor(np.ones((3, 2))))
        assert not y.requires_grad and y._parents == () and y._backward is None
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        assert ad.matmul(Tensor(np.eye(3)), x).requires_grad

    def test_tape_freed_after_backward(self):
        x = Tensor([1.0], requires_grad=True)
        sq = ad.mul(x, x)
        y = ad.tsum(sq)
        backward(y)
        for node in (y, sq):
            assert node._backward is None and node._parents == () and node.grad is None
        assert x.grad.tolist() == [2.0]

    def test_transposed_first_gradient_lands_in_parameter_layout(self):
        # transpose's backward hands x a transposed view as its first gradient;
        # x.grad must still be C-contiguous and carry zeros_like(x) + g's bits,
        # including +0.0 where g holds -0.0
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = rng.normal(size=(3, 4))
        w[0, 0] = -0.0
        backward(ad.tsum(ad.mul(ad.transpose(x, (1, 0)), Tensor(w))))
        assert x.grad.flags.c_contiguous
        assert x.grad.tobytes() == (np.zeros((4, 3)) + w.T).tobytes()

    def test_backward_peak_memory_does_not_grow_with_depth(self):
        size = 1 << 15  # 256 KiB of float64 per activation and gradient

        def backward_peak(depth):
            y = x = Tensor(np.ones(size), requires_grad=True)
            for _ in range(depth):
                y = ad.scale(y, 1.0)
            loss = ad.tsum(y)
            del y
            tracemalloc.start()
            try:
                backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert x.grad.tolist() == [1.0] * size
            return peak

        # a backward that kept every interior gradient would hold 28 more
        assert backward_peak(32) - backward_peak(4) < 8 * size


def _reuse_after_reshape(a, b, w):
    flat = ad.tsum(ad.mul(ad.reshape(a, (12,)), Tensor(w.reshape(12))))
    return ad.add(flat, ad.tsum(ad.mul(a, b)))


HANDOVER_CASES = {
    "add_self": lambda a, b, w: ad.tsum(ad.mul(ad.add(a, a), Tensor(w))),
    "add_both": lambda a, b, w: ad.tsum(ad.mul(ad.add(a, b), Tensor(w))),
    "add_broadcast": lambda a, b, w: ad.tsum(ad.mul(
        ad.add(a, ad.matmul(ad.reshape(b, (1, 12)), Tensor(np.ones((12, 4))))), Tensor(w))),
    "sub_both": lambda a, b, w: ad.tsum(ad.mul(ad.sub(a, b), Tensor(w))),
    "sub_self": lambda a, b, w: ad.tsum(ad.mul(ad.sub(a, a), Tensor(w))),
    "two_kernels": lambda a, b, w: ad.tsum(ad.mul(ad.add(ad.sigmoid(a), ad.mul(a, b)), Tensor(w))),
    "reshape": lambda a, b, w: ad.tsum(ad.mul(ad.reshape(ad.add(a, b), (12,)), Tensor(w.reshape(12)))),
    "transpose": lambda a, b, w: ad.tsum(ad.mul(ad.transpose(ad.add(a, b), (1, 0)), Tensor(w.T))),
    "reshape_reused": _reuse_after_reshape,
}


class TestGradientHandover:
    """A gradient a kernel just allocated becomes the first ``.grad`` without
    a copy, and no two tensors' gradients ever share memory."""

    @staticmethod
    def run(case, zeroed):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(3, 4))
        w[0, 0] = w[1, 2] = -0.0
        if zeroed:
            a.zero_grad()
            b.zero_grad()
        backward(HANDOVER_CASES[case](a, b, w))
        return [t.grad for t in (a, b) if t.grad is not None]

    @pytest.mark.parametrize("zeroed", [False, True])
    @pytest.mark.parametrize("case", sorted(HANDOVER_CASES))
    def test_no_aliasing_and_copy_path_values(self, monkeypatch, case, zeroed):
        got = self.run(case, zeroed)
        for i, g in enumerate(got):
            assert g.flags.c_contiguous
            assert not any(np.shares_memory(g, other) for other in got[i + 1:])
        accumulate = ad._accumulate
        monkeypatch.setattr(ad, "_accumulate", lambda t, g, owned=False: accumulate(t, g))
        want = self.run(case, zeroed)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # a handed-over -0.0 may stay -0.0 where the copy wrote +0.0;
            # into a zeroed gradient every bit is the copy path's
            if zeroed:
                assert g.tobytes() == w.tobytes()
            else:
                assert np.array_equal(g, w)

    def test_kernel_gradient_is_the_first_grad(self, monkeypatch):
        handed = []
        accumulate = ad._accumulate

        def spy(t, g, owned=False):
            handed.append((t, g))
            accumulate(t, g, owned)

        monkeypatch.setattr(ad, "_accumulate", spy)
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(ad.tsum(ad.mul(x, Tensor(np.full((2, 3), 2.0)))))
        (g,) = [g for t, g in handed if t is x]
        assert x.grad is g


class TestSoftplus:
    def test_values_and_gradient_at_saturated_inputs(self):
        x = Tensor(np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.softplus(x)
            backward(ad.tsum(out))
        np.testing.assert_allclose(out.data, [0.0, np.exp(-40.0), np.log(2.0), 40.0, 1000.0],
                                   rtol=1e-15)
        sigmoid = 1.0 / (1.0 + np.exp(-x.data[1:-1]))
        np.testing.assert_allclose(x.grad, [0.0, *sigmoid, 1.0], rtol=1e-15)

    def test_extreme_and_non_finite_inputs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.softplus(Tensor(np.array([-1e300, -800.0, 0.0, 800.0, 1e300]))).data
            special = ad.softplus(Tensor(np.array([np.inf, -np.inf, np.nan]))).data
        assert out.tolist() == [0.0, 0.0, np.log(2.0), 800.0, 1e300]
        assert special[0] == np.inf and special[1] == 0.0 and np.isnan(special[2])


class TestFiniteDiffCheck:
    def test_sum_of_squares(self):
        params = ParameterTree()
        x = params.add("x", np.array([1.0, -2.0, 0.5]))

        def f():
            return ad.tsum(ad.mul(x, x))

        assert finite_diff_check(f, params) < 1e-7

    def test_constant_function_zero_error(self):
        params = ParameterTree()
        params.add("x", np.array([1.0, 2.0]))

        def f():
            return Tensor(5.0)

        # analytic grad never touched x, so grad is zero after zero_grad
        assert finite_diff_check(f, params) == 0.0

    def test_non_finite_rejected(self):
        params = ParameterTree()
        x = params.add("x", np.array([0.0]))

        def f():
            return ad.tlog(x)

        with pytest.warns(RuntimeWarning, match="divide by zero"), \
                pytest.raises(ValueError, match="non-finite"):
            finite_diff_check(f, params)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        params = ParameterTree()
        x = params.add("x", np.array([1.0, 2.0]))
        opt = Adam(params, lr=0.1)
        params.zero_grad()
        opt.step()
        assert x.data.tolist() == [1.0, 2.0]

    def test_first_step_magnitude(self):
        # constant unit gradient: bias correction makes the first step ~ -lr
        params = ParameterTree()
        x = params.add("x", np.array([0.0]))
        opt = Adam(params, lr=0.1)
        x.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(x.data, [-0.1], rtol=1e-6)

    def test_seeded_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(42)
            params = ParameterTree()
            x = params.add("x", rng.normal(size=4))
            opt = Adam(params, lr=0.05)
            for _ in range(10):
                params.zero_grad()
                backward(ad.tsum(ad.mul(x, ad.mul(x, x))))
                opt.step()
            return x.data.copy()

        assert (run() == run()).all()

    def test_missing_gradient_names_parameter(self):
        params = ParameterTree()
        params.add("weights.w1", np.zeros(2))
        opt = Adam(params, lr=1e-3)
        with pytest.raises(ValueError, match="weights.w1"):
            opt.step()

    def test_updates_in_place_with_the_textbook_bits(self):
        # the step updates m, v and data in place and matches the
        # allocating formula bit for bit, over steps
        rng = np.random.default_rng(8)
        params = ParameterTree()
        for name, shape in (("w", (3, 4)), ("b", (4,))):
            params.add(name, rng.normal(size=shape))
        opt = Adam(params, lr=0.03)
        want = {p: t.data.copy() for p, t in params.items()}
        m = {p: np.zeros_like(v) for p, v in want.items()}
        v = {p: np.zeros_like(x) for p, x in want.items()}
        arrays = [(t.data, opt.m[p], opt.v[p]) for p, t in params.items()]
        for step in range(1, 6):
            opt.lr = 0.03 / step
            for p, t in params.items():
                t.grad = rng.normal(size=t.shape)
            opt.step()
            b1t, b2t = 1.0 - ad.ADAM_BETA1 ** step, 1.0 - ad.ADAM_BETA2 ** step
            for p in ("w", "b"):
                g = params[p].grad
                m[p] = ad.ADAM_BETA1 * m[p] + (1.0 - ad.ADAM_BETA1) * g
                v[p] = ad.ADAM_BETA2 * v[p] + (1.0 - ad.ADAM_BETA2) * g * g
                want[p] = want[p] - opt.lr * (m[p] / b1t) / (np.sqrt(v[p] / b2t) + ad.ADAM_EPS)
            for (data, mp, vp), (p, t) in zip(arrays, params.items()):
                assert t.data is data and opt.m[p] is mp and opt.v[p] is vp, p
            for p, t in params.items():
                assert t.data.tobytes() == want[p].tobytes(), p
                assert opt.m[p].tobytes() == m[p].tobytes(), p
                assert opt.v[p].tobytes() == v[p].tobytes(), p

    def test_signed_zero_gradient_gives_the_same_update(self):
        # a handed-over first gradient may keep a -0.0 that the copy path
        # turned into +0.0; the step must not tell them apart
        runs = []
        for zero in (-0.0, 0.0):
            params = ParameterTree()
            x = params.add("x", np.array([0.5, -0.25, 0.0]))
            opt = Adam(params, lr=0.1)
            for step in range(3):
                x.grad = np.array([zero, 0.125 * step, zero])
                opt.step()
            runs.append((x.data.tobytes(), opt.m["x"].tobytes(), opt.v["x"].tobytes()))
        assert runs[0] == runs[1]

    def test_moment_state_persists(self):
        params = ParameterTree()
        x = params.add("x", np.array([0.0]))
        opt = Adam(params, lr=0.1)
        for _ in range(3):
            x.grad = np.array([1.0])
            opt.step()
        assert opt.t == 3
        assert opt.m["x"][0] > 0


class TestParameterTree:
    def test_duplicate_path_rejected(self):
        params = ParameterTree()
        params.add("a", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            params.add("a", np.zeros(2))

    def test_iteration_order_is_insertion_order(self):
        params = ParameterTree()
        for name in ("z", "a", "m"):
            params.add(name, np.zeros(1))
        assert [path for path, _ in params.items()] == ["z", "a", "m"]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        params = ParameterTree()
        params.add("enc.w", rng.normal(size=(3, 4)))
        params.add("enc.b", rng.normal(size=4))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)

        restored = ParameterTree()
        restored.add("enc.w", np.zeros((3, 4)))
        restored.add("enc.b", np.zeros(4))
        load_checkpoint(path, restored)
        assert (restored["enc.w"].data == params["enc.w"].data).all()
        assert (restored["enc.b"].data == params["enc.b"].data).all()

    def test_shape_mismatch_rejected(self, tmp_path):
        params = ParameterTree()
        params.add("w", np.zeros((2, 2)))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)

        other = ParameterTree()
        other.add("w", np.zeros((3, 2)))
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: shape mismatch for 'w': expected (3, 2), got (2, 2)")):
            load_checkpoint(path, other)

    @pytest.mark.parametrize("text, shown", [
        ('["1.5", "2"]', "'1.5'"),
        ("[true, false]", "True"),
        ("[NaN, 2]", "nan"),
        ("[-Infinity, 2]", "-inf"),
        ('["nan", 2]', "'nan'"),
    ], ids=["string", "bool", "json-nan", "json-infinity", "string-nan"])
    def test_value_not_a_finite_number_rejected(self, tmp_path, text, shown):
        path = tmp_path / "ckpt.json"
        path.write_text('{"w": {"shape": [2], "values": %s}}' % text)
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: parameter 'w' values must be finite numbers, got {shown}")):
            load_checkpoint(path, ParameterTree())

    def test_missing_parameter_rejected(self, tmp_path):
        params = ParameterTree()
        params.add("w", np.zeros(2))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)

        other = ParameterTree()
        other.add("w", np.ones(2))
        other.add("extra", np.zeros(2))
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: missing parameter 'extra'")):
            load_checkpoint(path, other)
        assert (other["w"].data == 1.0).all()  # checked before anything loads

    def test_unknown_parameter_rejected(self, tmp_path):
        params = ParameterTree()
        params.add("w", np.zeros(2))
        params.add("stale", np.zeros(2))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)

        other = ParameterTree()
        other.add("w", np.ones(2))
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: unknown parameters ['stale']")):
            load_checkpoint(path, other)
        assert (other["w"].data == 1.0).all()
