"""Backward-pass semantics: graph replay rules, gradient routing, and
agreement with central finite differences."""

import inspect

import numpy as np
import pytest

from kphead import gradcheck
from kphead import tensor as T
from kphead.errors import GraphStateError
from kphead.tensor import Tensor, backward, finite_diff_grad


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_scalars_have_shape_empty(self):
        """0-d data stays 0-d, so a scalar node's closure gets a () gradient."""
        x = Tensor(np.array([[0.5, -1.0, 2.0]]), requires_grad=True)
        assert Tensor(3.0).shape == ()
        assert T.sum_all(x).shape == ()
        assert T.reshape(T.sum_all(x), ()).shape == ()
        lse = T.reshape(T.logsumexp(x), ())
        assert lse.shape == ()
        backward(T.mul(lse, Tensor(2.0)))
        assert lse.grad.shape == ()
        softmax = np.exp(x.data) / np.exp(x.data).sum()
        np.testing.assert_allclose(x.grad, 2.0 * softmax, rtol=1e-14)

    def test_relu_gradient_masks_negatives(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        backward(T.sum_all(T.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_diamond_reuse_visits_each_node_once(self):
        """d/dx of x*x via two references is exactly 2x (no double counting)."""
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = T.mul(x, x)
        backward(T.sum_all(y))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_gradients_accumulate_across_backwards(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        backward(T.sum_all(x))
        backward(T.sum_all(x))  # separate recording, same leaf
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])


class TestGraphStateRules:
    def test_second_backward_rejected(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        loss = T.sum_all(x)
        backward(loss)
        with pytest.raises(GraphStateError):
            backward(loss)

    def test_backward_on_leaf_rejected(self):
        with pytest.raises(GraphStateError):
            backward(Tensor(np.array([1.0]), requires_grad=True))

    def test_backward_on_a_loss_needing_no_gradient_rejected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with T.NoGrad():
            recorded_without_graph = T.sum_all(x)
        for loss in (T.add(Tensor(1.0), Tensor(2.0)), recorded_without_graph):
            with pytest.raises(GraphStateError, match="no tensor that requires a gradient"):
                backward(loss)
        assert x.grad is None

    def test_fresh_forward_allows_backward_again(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        backward(T.sum_all(x))
        backward(T.sum_all(x))
        assert x.grad is not None


class TestGradientRouting:
    def test_concat_routing_is_lossless(self):
        """Splitting the output gradient recovers each part's gradient exactly."""
        rng = np.random.default_rng(0)
        parts = [Tensor(rng.standard_normal((1, 2, 3)), requires_grad=True),
                 Tensor(rng.standard_normal((1, 4)), requires_grad=True)]
        out = T.concat(parts)
        g = rng.standard_normal(out.shape)
        backward(T.sum_all(T.mul(out, Tensor(g))))
        np.testing.assert_array_equal(parts[0].grad, g[:, :6].reshape(1, 2, 3))
        np.testing.assert_array_equal(parts[1].grad, g[:, 6:])

    def test_concat_element_flows_to_one_part(self):
        a = Tensor(np.array([[1.0]]), requires_grad=True)
        bc = Tensor(np.array([[2.0, 3.0]]), requires_grad=True)
        out = T.concat([a, bc])
        backward(T.sum_all(T.gather_at(T.reshape(out, (1, 1, 1, 3)), np.array([[(0, 1)]]))))
        np.testing.assert_array_equal(a.grad, [[0.0]])
        np.testing.assert_array_equal(bc.grad, [[1.0, 0.0]])

    def test_gather_duplicates_accumulate(self):
        x = Tensor(np.zeros((1, 2, 3, 3)), requires_grad=True)
        out = T.gather_at(x, np.array([[(1, 1), (1, 1)]]))
        backward(T.sum_all(out))
        assert x.grad[0, 0, 1, 1] == 2.0
        assert x.grad.sum() == 4.0


class TestWeightGradientSums:
    """A weight shared by several ops or examples gets the plain sum of its
    per-use gradients, each added when its op's closure runs."""

    @staticmethod
    def shared_weights(rng):
        return (Tensor(rng.standard_normal((3, 4)), requires_grad=True),
                Tensor(rng.standard_normal(3), requires_grad=True),
                Tensor(rng.standard_normal((4, 1, 3, 3)), requires_grad=True),
                Tensor(rng.standard_normal(4), requires_grad=True))

    def test_shared_leaf_weights_match_finite_differences(self):
        rng = np.random.default_rng(3)
        w_lin, b_lin, w_conv, b_conv = self.shared_weights(rng)
        grids = [Tensor(rng.standard_normal((1, 2, 5, 6))) for _ in range(2)]
        data_vec = Tensor(rng.standard_normal((1, 4)))
        coeffs = Tensor(rng.standard_normal((1, 9)))

        def loss(_=None):
            fibers = [T.reshape(T.gather_at(T.conv2d(x, w_conv, b_conv, groups=2, dilation=2),
                                            np.array([[(1, 4)]])), (1, 4))
                      for x in grids]
            outs = [T.linear(v, w_lin, b_lin) for v in fibers + [data_vec]]
            return T.sum_all(T.mul(T.concat(outs), coeffs))

        backward(loss())
        for w in (w_lin, b_lin, w_conv, b_conv):
            np.testing.assert_allclose(w.grad, finite_diff_grad(loss, w),
                                       rtol=1e-6, atol=1e-8)

    def test_second_backward_adds_onto_existing_grad(self):
        rng = np.random.default_rng(4)
        w_lin, b_lin, w_conv, b_conv = self.shared_weights(rng)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w_conv.grad = np.full(w_conv.shape, 0.5)

        def run():
            fiber = T.reshape(T.gather_at(T.conv2d(x, w_conv, b_conv, groups=2),
                                          np.array([[(2, 1)]])), (1, 4))
            backward(T.sum_all(T.linear(fiber, w_lin, b_lin)))

        run()
        first_lin, first_conv = w_lin.grad.copy(), w_conv.grad - 0.5
        run()
        np.testing.assert_array_equal(w_lin.grad, first_lin + first_lin)
        np.testing.assert_allclose(w_conv.grad, 0.5 + 2.0 * first_conv, rtol=1e-12)

    def test_non_leaf_weight_used_twice(self):
        rng = np.random.default_rng(5)
        base = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        bias = Tensor(np.zeros(3))
        xs = [Tensor(rng.standard_normal((1, 4))) for _ in range(2)]
        coeffs = Tensor(rng.standard_normal((1, 6)))

        def loss(_=None):
            w = base * 2.0
            return T.sum_all(T.mul(T.concat([T.linear(x, w, bias) for x in xs]), coeffs))

        backward(loss())
        np.testing.assert_allclose(base.grad, finite_diff_grad(loss, base),
                                   rtol=1e-6, atol=1e-8)
        want = 2.0 * sum(np.outer(coeffs.data[0, 3 * i:3 * i + 3], x.data)
                         for i, x in enumerate(xs))
        np.testing.assert_allclose(base.grad, want, rtol=1e-12)

    def test_backward_after_a_failed_backward(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.standard_normal((3, 2, 1, 1)), requires_grad=True)
        bias = Tensor(np.zeros(3))
        x_leaf = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)

        def closure_fails(g):
            raise RuntimeError("closure failed")

        x = x_leaf * 1.0
        x._backward_fn = closure_fails  # runs after conv2d's closure has added w's gradient
        with pytest.raises(RuntimeError, match="closure failed"):
            backward(T.sum_all(T.conv2d(x, w, bias)))

        w.grad = None
        backward(T.sum_all(T.conv2d(x_leaf, w, bias)))
        want = np.broadcast_to(x_leaf.data.sum(axis=(1, 2)).reshape(1, 2, 1, 1), w.shape)
        np.testing.assert_allclose(w.grad, want, rtol=1e-12)

    def test_no_two_gradients_share_memory(self):
        """A weight gradient stored without a zero-filled buffer is its own
        C-contiguous array, also where ``add`` hands one gradient to both of
        its inputs, where ``mul`` gets one tensor twice and where
        ``gather_at`` picks one point twice."""
        rng = np.random.default_rng(7)
        w_lin, b_lin, w_conv, b_conv = self.shared_weights(rng)
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        c = Tensor(rng.standard_normal(3), requires_grad=True)
        maps = Tensor(rng.standard_normal((1, 2, 5, 6)), requires_grad=True)
        targets = Tensor(2.0 * rng.standard_normal((1, 3, 2)), requires_grad=True)
        grid = Tensor(rng.standard_normal((1, 2, 5, 6)))
        rows = Tensor(rng.standard_normal((2, 4)))
        coeffs = Tensor(rng.standard_normal((3, 3)))
        # two input channels per group, so that a transposed weight gradient is not contiguous
        w_dense = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)

        def loss(_=None):
            conv = T.add(T.conv2d(grid, w_conv, b_conv, groups=2),
                         T.conv2d(grid, w_dense, b_conv, dilation=2))
            fiber = T.gather_at(conv, np.array([[(1, 4)]]))
            batch = T.reshape(T.concat([fiber, T.reshape(rows, (1, 8))]), (3, 4))
            out = T.add(T.linear(batch, w_lin, b_lin), T.stack([T.add(a, b)] * 3))
            picked = T.gather_at(maps, np.array([[(1, 4), (1, 4), (0, 2)]]))
            extra = T.add(T.sum_all(T.mul(c, c)), T.sum_all(T.smooth_l1(picked, targets)))
            return T.add(T.sum_all(T.mul(out, coeffs)), extra)

        backward(loss())
        leaves = (w_lin, b_lin, w_conv, w_dense, b_conv, a, b, c, maps, targets)
        for i, s in enumerate(leaves):
            for t in leaves[i + 1:]:
                assert not np.shares_memory(s.grad, t.grad)
        for t in leaves:
            # _momentum_step updates a first gradient, adopted as the velocity,
            # through reshape(-1), which copies a non-contiguous array
            assert t.grad.flags.c_contiguous
            np.testing.assert_allclose(t.grad, finite_diff_grad(loss, t), rtol=1e-6, atol=1e-8)


class TestFirstNonFiniteOp:
    """``_first_non_finite_op`` names the op in a recorded graph where a NaN
    or Inf started, not an op that only carried it on."""

    def test_names_the_op_where_the_bad_value_starts(self):
        x = Tensor(np.array([1.0, np.inf]), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        with np.errstate(invalid="ignore"):
            loss = T.sum_all(T.add(T.mul(x, Tensor(0.0)), y))  # inf * 0 is NaN
        assert np.isnan(loss.item())
        assert T._first_non_finite_op(loss) == "mul"

    def test_names_the_op_that_reads_a_nan_leaf(self):
        x = Tensor(np.array([np.nan, 1.0]), requires_grad=True)
        loss = T.sum_all(T.relu(T.add(x, Tensor(np.ones(2)))))
        assert T._first_non_finite_op(loss) == "add"

    def test_a_finite_graph_names_none(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        assert T._first_non_finite_op(T.sum_all(T.relu(T.mul(x, x)))) is None


class TestNoGrad:
    def test_outputs_record_no_graph(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        with T.NoGrad():
            out = T.sum_all(T.relu(T.mul(x, x)))
        assert (out.requires_grad, out._parents, out._backward_fn) == (False, (), None)
        assert out.item() == 5.0

    def test_nests(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with T.NoGrad():
            with T.NoGrad():
                inner = T.sum_all(x)
            outer = T.sum_all(x)
        assert inner._backward_fn is None and outer._backward_fn is None
        assert not T._no_grad
        assert T.sum_all(x)._backward_fn is not None

    def test_an_exception_inside_leaves_recording_on(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError), T.NoGrad():
            raise ValueError("inside")
        assert not T._no_grad
        loss = T.sum_all(x)
        assert loss._parents == (x,)
        backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0])


class TestFiniteDifferenceOracle:
    def test_evaluations_record_no_graph(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        outputs = []

        def f(t):
            outputs.append(T.sum_all(T.mul(t, t)))
            return outputs[-1]

        np.testing.assert_allclose(finite_diff_grad(f, x), [2.0, -4.0], rtol=1e-9)
        assert len(outputs) == 4
        assert all(out._backward_fn is None and not out._parents for out in outputs)

    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]))
        fd = finite_diff_grad(lambda t: float((t.data ** 2).sum()), x)
        np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-8)

    def test_linear_map_recovers_weight_row(self):
        w = np.array([0.3, -1.2, 2.5])
        x = Tensor(np.zeros(3))
        fd = finite_diff_grad(lambda t: float(w @ t.data), x)
        np.testing.assert_allclose(fd, w, atol=1e-10)

    def test_input_restored_when_f_raises(self):
        x = Tensor(np.array([0.1, -0.0, 3.0]))
        before = x.data.tobytes()
        calls = []

        def f(t):
            calls.append(t.data.copy())
            if len(calls) == 2:
                raise RuntimeError("f failed")
            return float(t.data.sum())

        with pytest.raises(RuntimeError, match="f failed"):
            finite_diff_grad(f, x)
        assert calls[1][0] == 0.1 - 1e-5  # it raised on a perturbed input
        assert x.data.tobytes() == before


class TestGradcheckSuite:
    """Every differentiable operation matches central finite differences with
    relative error below 1e-4, sampled away from kinks and argmax ties."""

    def test_all_operations_pass(self):
        results = gradcheck.run_suite(trials=1, seed=0)
        assert set(results) == set(gradcheck.CHECKS)
        for name, err in results.items():
            assert err < gradcheck.GRAD_TOL, f"{name}: {err:.3e}"

    def test_suite_is_reproducible(self):
        first = gradcheck.run_suite(trials=1, seed=7)
        second = gradcheck.run_suite(trials=1, seed=7)
        assert first == second

    def test_suite_runs_every_public_op(self, monkeypatch):
        """A new op of ``kphead.tensor`` fails here until a check runs it; the
        whole-head check, which runs every op the head uses, does not count."""
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in list(vars(T).items()):
            if (inspect.isfunction(fn) and fn.__module__ == T.__name__
                    and not name.startswith("_")
                    and name not in ("backward", "finite_diff_grad")):
                calls[name] = 0
                monkeypatch.setattr(T, name, counted(name, fn))
        monkeypatch.delitem(gradcheck.CHECKS, "condensed_head_loss")
        gradcheck.run_suite(trials=1, seed=0)
        assert "conv2d" in calls and "map_peaks" in calls
        assert [name for name, n in calls.items() if n == 0] == []

    def test_suite_runs_a_backward_closure_of_every_public_op(self, monkeypatch):
        """Each public op of ``kphead.tensor`` has a single-op or loss check
        that runs its backward closure, not only a forward probe.  Ops record
        their function's name as their tag, except ``sum_all``'s ``"sum"``;
        the whole-head check does not count."""
        ran = set()
        record = T._record

        def noting(data, op, parents, backward_fn):
            def noted(g):
                ran.add(op)
                backward_fn(g)
            return record(data, op, parents, backward_fn and noted)

        monkeypatch.setattr(T, "_record", noting)
        monkeypatch.delitem(gradcheck.CHECKS, "condensed_head_loss")
        gradcheck.run_suite(trials=1, seed=0)
        ops = {"sum" if name == "sum_all" else name for name, fn in vars(T).items()
               if inspect.isfunction(fn) and fn.__module__ == T.__name__
               and not name.startswith("_") and name not in ("backward", "finite_diff_grad")}
        assert {"concat", "gather_at", "linear", "logsumexp", "sum"} <= ops
        assert sorted(ops - ran) == []

    def test_full_head_parameter_gradients(self):
        """Every parameter of the condensed head matches finite differences."""
        err = gradcheck.CHECKS["condensed_head_loss"](np.random.default_rng([5, 1]))
        assert err < gradcheck.GRAD_TOL
