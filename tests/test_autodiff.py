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
        y = ad.tsum(ad.mul(x, x))
        backward(y)
        assert y._backward is None and y._parents == ()


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

        with pytest.raises(ValueError, match="non-finite"):
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
        opt = Adam(params)
        with pytest.raises(ValueError, match="weights.w1"):
            opt.step()

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
        assert params.paths() == ["z", "a", "m"]


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
        restored.load_values(load_checkpoint(path))
        assert (restored["enc.w"].data == params["enc.w"].data).all()
        assert (restored["enc.b"].data == params["enc.b"].data).all()

    def test_shape_mismatch_rejected(self, tmp_path):
        params = ParameterTree()
        params.add("w", np.zeros((2, 2)))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)

        other = ParameterTree()
        other.add("w", np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shape mismatch"):
            other.load_values(load_checkpoint(path))

    def test_missing_parameter_rejected(self, tmp_path):
        params = ParameterTree()
        params.add("w", np.zeros(2))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)

        other = ParameterTree()
        other.add("w", np.zeros(2))
        other.add("extra", np.zeros(2))
        with pytest.raises(ValueError, match="extra"):
            other.load_values(load_checkpoint(path))

    def test_unknown_parameter_rejected(self, tmp_path):
        params = ParameterTree()
        params.add("w", np.zeros(2))
        params.add("stale", np.zeros(2))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)

        other = ParameterTree()
        other.add("w", np.ones(2))
        with pytest.raises(ValueError, match="unknown parameters \\['stale'\\]"):
            other.load_values(load_checkpoint(path))
        assert (other["w"].data == 1.0).all()
