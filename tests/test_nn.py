"""Autograd engine, TCN forward/backward, optimizer, and weight container."""

from typing import Sequence

import numpy as np
import pytest
from scipy.special import erf

from signscribe import nn
from signscribe.ctc import FrameScores, ctc_loss
from signscribe.nn.autograd import _INV_SQRT_2PI, _SQRT2, Tensor, _node
from signscribe.nn.optim import BETA1, BETA2, EPS
from signscribe.pose import (
    FINGERSPELLING_FEATURES,
    ISR_ONE_HAND_FEATURES,
    ISR_TWO_HAND_FEATURES,
)

# The op-by-op reference that nn.conv_block is pinned to: the ops a TCN block
# was built from before it became one graph node, one node per op.


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _node(a.data + b.data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bw)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x)."""
    phi = 0.5 * (1.0 + erf(x.data / _SQRT2))

    def bw(g):
        if x.requires_grad:
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
            x._accumulate(g * (phi + x.data * pdf))

    return _node(x.data * phi, (x,), bw)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]

    def bw(g):
        offset = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accumulate(g[:, offset : offset + w])
            offset += w

    return _node(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bw)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None, dilation: int) -> Tensor:
    """Same-length dilated 1-D convolution over a (T, C_in) sequence.

    ``weight`` has shape (k, C_in, C_out) with odd k; taps are centered, so
    tap j reads x[t + (j - (k-1)//2) * dilation] with zero padding outside
    the sequence.
    """
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    k, c_in, c_out = weight.data.shape
    if k % 2 != 1:
        raise ValueError("kernel size must be odd for same-length output")
    if x.data.shape[1] != c_in:
        raise ValueError(f"input width {x.data.shape[1]} != kernel C_in {c_in}")
    T = x.data.shape[0]
    half = (k - 1) // 2
    pad = half * dilation
    xp = np.zeros((T + 2 * pad, c_in), dtype=x.data.dtype)
    xp[pad : pad + T] = x.data
    y = np.zeros((T, c_out))
    for j in range(k):
        y += xp[j * dilation : j * dilation + T] @ weight.data[j]
    if bias is not None:
        y = y + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def bw(g):
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for j in range(k):
                gw[j] = xp[j * dilation : j * dilation + T].T @ g
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[j * dilation : j * dilation + T] += g @ weight.data[j].T
            x._accumulate(gxp[pad : pad + T])

    return _node(y, parents, bw)


def reference_block(h, weights, biases, dilations, proj):
    """conv1d -> gelu per branch, concat_cols, then the residual matmul/add."""
    merged = concat_cols([gelu(conv1d(h, w, b, d)) for w, b, d in zip(weights, biases, dilations)])
    return add(merged, matmul(h, proj) if proj is not None else h)


def hand_dilated_conv(x, kernel, dilation):
    """Independent oracle: direct summation with zero padding, centered taps."""
    T = len(x)
    center = (len(kernel) - 1) // 2
    out = np.zeros(T)
    for t in range(T):
        acc = 0.0
        for j, w in enumerate(kernel):
            idx = t + (j - center) * dilation
            if 0 <= idx < T:
                acc += w * x[idx]
        out[t] = acc
    return out


def padded_conv1d(x, w, b, dilation, g):
    """The np.pad formulation conv1d had before: output, then x, w, b gradients for upstream g."""
    k, T = len(w), len(x)
    pad = (k - 1) // 2 * dilation
    xp = np.pad(x, ((pad, pad), (0, 0)))
    y = np.zeros((T, w.shape[2]))
    for j in range(k):
        y += xp[j * dilation : j * dilation + T] @ w[j]
    y = y + b
    gw = np.empty_like(w)
    gxp = np.zeros_like(xp)
    for j in range(k):
        gw[j] = xp[j * dilation : j * dilation + T].T @ g
        gxp[j * dilation : j * dilation + T] += g @ w[j].T
    return y, gxp[pad : pad + T], gw, g.sum(axis=0)


class TestConv1d:
    def test_bit_identical_to_np_pad_formulation(self):
        rng = np.random.default_rng(1191)
        short = 0
        for dilation in range(1, 9):
            for k in (1, 3, 5):
                for T in (1, 2, 7, 40):
                    c_in, c_out = (int(c) for c in rng.integers(1, 6, size=2))
                    x, g = rng.normal(size=(T, c_in)), rng.normal(size=(T, c_out))
                    w, b = rng.normal(size=(k, c_in, c_out)), rng.normal(size=c_out)
                    xt, wt, bt = nn.parameter(x), nn.parameter(w), nn.parameter(b)
                    y = conv1d(xt, wt, bt, dilation)
                    y.backward(g)
                    want = padded_conv1d(x, w, b, dilation, g)
                    got = (y.data, xt.grad, wt.grad, bt.grad)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                    short += T < (k - 1) // 2 * dilation
        assert short >= 20

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = nn.constant(rng.normal(size=(9, 4)))
        w = np.zeros((3, 4, 4))
        for i in range(4):
            w[1, i, i] = 1.0
        y = conv1d(x, nn.parameter(w), None, dilation=3)
        np.testing.assert_allclose(y.data, x.data)

    def test_zero_input(self):
        x = nn.constant(np.zeros((6, 2)))
        w = nn.parameter(np.ones((3, 2, 5)))
        y = conv1d(x, w, None, dilation=2)
        np.testing.assert_array_equal(y.data, np.zeros((6, 5)))

    def test_hand_convolution_oracle(self):
        # kernel [1,1,1], dilation 2, x = [1,0,0,0,1]; oracle value computed
        # by direct summation with zero padding: [1, 0, 2, 0, 1].
        x_vals = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        expected = hand_dilated_conv(x_vals, [1.0, 1.0, 1.0], 2)
        np.testing.assert_array_equal(expected, [1.0, 0.0, 2.0, 0.0, 1.0])
        y = conv1d(
            nn.constant(x_vals.reshape(-1, 1)),
            nn.parameter(np.ones((3, 1, 1))),
            None,
            dilation=2,
        )
        np.testing.assert_allclose(y.data.ravel(), expected)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(5)
        for dilation in (1, 2, 4):
            x = rng.normal(size=12)
            kernel = rng.normal(size=3)
            w = kernel.reshape(3, 1, 1)
            y = conv1d(nn.constant(x.reshape(-1, 1)), nn.parameter(w), None, dilation)
            np.testing.assert_allclose(
                y.data.ravel(), hand_dilated_conv(x, kernel, dilation), atol=1e-12
            )

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd k"):
            nn.conv_block(
                nn.constant(np.zeros((4, 2))), [nn.parameter(np.zeros((2, 2, 2)))],
                [nn.parameter(np.zeros(2))], (1,), None,
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="need odd k and C_in 3"):
            nn.conv_block(
                nn.constant(np.zeros((4, 3))), [nn.parameter(np.zeros((3, 2, 2)))],
                [nn.parameter(np.zeros(2))], (1,), nn.parameter(np.zeros((3, 2))),
            )


class TestAutogradBasics:
    def test_constant_loss_zero_gradients(self):
        p = nn.parameter(np.ones((3, 2)))
        loss = nn.sum_all(matmul(p, nn.constant(np.zeros((2, 4)))))
        loss.backward()
        np.testing.assert_array_equal(p.grad, np.zeros((3, 2)))

    def test_linear_layer_analytic_gradient(self):
        # y = x @ W, loss = sum(y): dL/dW = outer(x, ones) summed over rows.
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = nn.parameter(np.zeros((2, 3)))
        loss = nn.sum_all(nn.linear(nn.constant(x), w))
        loss.backward()
        expected = x.T @ np.ones((2, 3))
        np.testing.assert_allclose(w.grad, expected)

    def test_gelu_zero_is_zero(self):
        y = gelu(nn.constant(np.array([0.0])))
        assert y.data[0] == 0.0

    def test_maximum_routes_gradient(self):
        a = nn.parameter(np.array([1.0, 5.0]))
        b = nn.parameter(np.array([2.0, 3.0]))
        loss = nn.sum_all(nn.maximum(a, b))
        loss.backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 0.0])

    def test_residual_reuse_accumulates(self):
        p = nn.parameter(np.array([2.0]))
        loss = nn.sum_all(add(p, p))
        loss.backward()
        np.testing.assert_array_equal(p.grad, [2.0])

    def test_constant_inputs_record_no_graph(self):
        a, b = nn.constant(np.ones((2, 3))), nn.constant(np.ones((3, 2)))
        out = nn.sum_all(gelu(matmul(a, b)))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        with pytest.raises(ValueError, match="does not require a gradient"):
            out.backward()

    def test_one_trainable_input_records_the_node(self):
        a, w = nn.constant(np.ones((2, 3))), nn.parameter(np.ones((3, 2)))
        out = matmul(a, w)
        assert out.requires_grad
        assert out._parents == (a, w)


def small_tcn(rng, input_dim=4, classes=4):
    config = nn.TcnConfig(
        input_dim=input_dim,
        output_classes=classes,
        num_blocks=2,
        kernel_size=3,
        block_dilations=((1, 1), (2, 1)),
        channels=6,
    )
    return config, nn.Tcn.init(config, rng)


class TestTcn:
    def test_same_length_output(self):
        rng = np.random.default_rng(1)
        for T in (1, 5, 40):
            config, tcn = small_tcn(rng)
            logits = tcn.forward(rng.normal(size=(T, 4)))
            assert logits.data.shape == (T, 4)

    def test_receptive_fields_of_shipped_configs(self):
        fs = nn.fingerspelling_config(input_dim=42, output_classes=30)
        isr = nn.isr_config(input_dim=60, output_classes=22)
        assert nn.receptive_field(fs) == 35
        assert nn.receptive_field(isr) == 23

    def test_receptive_field_formula(self):
        one = nn.TcnConfig(
            input_dim=2, output_classes=2, num_blocks=1, kernel_size=3,
            block_dilations=((1,),), channels=4,
        )
        assert nn.receptive_field(one) == 3

    def test_gradcheck_through_ctc(self):
        rng = np.random.default_rng(11)
        config, tcn = small_tcn(rng)
        x = rng.normal(size=(8, 4))
        target = [0, 1]

        def loss_value():
            logits = tcn.forward(x)
            probs = nn.softmax(logits.data)
            value, grad = ctc_loss(FrameScores(probs=probs), target)
            return nn.external_loss(logits, value, grad)

        loss = loss_value()
        nn.zero_grads(tcn.parameters())
        loss.backward()
        h = 1e-5
        probes = 0
        for p in tcn.parameters():
            flat = p.data.reshape(-1)
            grads = p.grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value().item()
                flat[i] = orig - h
                down = loss_value().item()
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                assert abs(numeric - grads[i]) <= 1e-4 * max(1e-4, abs(numeric), abs(grads[i]))
                probes += 1
        assert probes >= 30

    @pytest.mark.parametrize(
        "make_config, input_dim, classes",
        [
            (nn.fingerspelling_config, FINGERSPELLING_FEATURES.dim, 30),
            (nn.isr_config, ISR_TWO_HAND_FEATURES.dim, 22),
            (nn.isr_config, ISR_ONE_HAND_FEATURES.dim, 22),
        ],
    )
    @pytest.mark.parametrize("T", [1, 35, 940])
    def test_frozen_copy_gives_identical_logits(self, make_config, input_dim, classes, T):
        rng = np.random.default_rng(T)
        config = make_config(input_dim=input_dim, output_classes=classes)
        trainable = nn.Tcn.init(config, rng)
        frozen = nn.Tcn.from_arrays(config, trainable.state_arrays())
        x = rng.normal(size=(T, config.input_dim))
        graph, plain = trainable.forward(x), frozen.forward(x)
        assert np.array_equal(graph.data, plain.data)
        assert graph.requires_grad and graph._parents
        assert not plain.requires_grad and plain._parents == ()

    def test_backward_from_loaded_net_raises(self):
        config, tcn = small_tcn(np.random.default_rng(6))
        loaded = nn.Tcn.from_arrays(config, tcn.state_arrays())
        assert not any(p.requires_grad for p in loaded.parameters())
        loss = nn.sum_all(loaded.forward(np.ones((5, 4))))
        with pytest.raises(ValueError, match="does not require a gradient"):
            loss.backward()

    def test_frozen_copy_taken_after_adamw_keeps_its_logits(self):
        """AdamW steps its parameters in place in one flat buffer; a copy taken
        after the optimiser is built must not share that buffer."""
        config, tcn = small_tcn(np.random.default_rng(7))
        opt = nn.AdamW(tcn.parameters(), lr=0.1, weight_decay=0.01)
        frozen = nn.Tcn.from_arrays(config, tcn.state_arrays())
        x = np.random.default_rng(8).normal(size=(9, config.input_dim))
        before = frozen.forward(x).data.copy()
        for p in tcn.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        assert not np.array_equal(tcn.forward(x).data, before)
        assert frozen.forward(x).data.tobytes() == before.tobytes()

    def test_from_arrays_missing_parameter(self):
        config, tcn = small_tcn(np.random.default_rng(3))
        arrays = tcn.state_arrays()
        del arrays["head.b"]
        with pytest.raises(ValueError, match="missing parameter 'head.b'"):
            nn.Tcn.from_arrays(config, arrays)

    def test_from_arrays_extra_parameter(self):
        config, tcn = small_tcn(np.random.default_rng(4))
        arrays = {**tcn.state_arrays(), "block9.proj": np.zeros((6, 6))}
        with pytest.raises(ValueError, match="unexpected parameters: \\['block9.proj'\\]"):
            nn.Tcn.from_arrays(config, arrays)

    def test_from_arrays_wrong_shape(self):
        config, tcn = small_tcn(np.random.default_rng(5))
        arrays = tcn.state_arrays()
        arrays["block0.branch1.w"] = arrays["block0.branch1.w"][:, :, :1]
        with pytest.raises(ValueError, match="expected \\(3, 4, 3\\)"):
            nn.Tcn.from_arrays(config, arrays)


BLOCK_CONFIGS = {
    "fingerspelling": nn.fingerspelling_config(FINGERSPELLING_FEATURES.dim, 30),
    "isr_two_hand": nn.isr_config(ISR_TWO_HAND_FEATURES.dim, 22),
    "isr_one_hand": nn.isr_config(ISR_ONE_HAND_FEATURES.dim, 22),
    "criterion_2": nn.TcnConfig(
        input_dim=5, output_classes=5, num_blocks=2, kernel_size=3,
        block_dilations=((1, 1), (2, 1)), channels=6,
    ),
    "no_projection": nn.TcnConfig(
        input_dim=6, output_classes=4, num_blocks=2, kernel_size=5,
        block_dilations=((1, 1), (3, 2, 1)), channels=6,
    ),
}


def logits_and_grads(tcn, x, g, block):
    """Logits of ``tcn`` built from ``block`` over a trainable input, then the
    input's and every parameter's gradient for the upstream gradient ``g``."""
    nn.zero_grads(tcn.parameters())
    h = xt = nn.parameter(x)
    for b, dils in enumerate(tcn.config.block_dilations):
        h = block(
            h,
            [tcn.params[f"block{b}.branch{br}.w"] for br in range(len(dils))],
            [tcn.params[f"block{b}.branch{br}.b"] for br in range(len(dils))],
            dils,
            tcn.params.get(f"block{b}.proj"),
        )
    logits = nn.linear(h, tcn.params["head.w"], tcn.params["head.b"])
    logits.backward(g)
    return [logits.data, xt.grad] + [p.grad for p in tcn.parameters()]


class TestConvBlockEquivalence:
    @pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
    @pytest.mark.parametrize("T", [1, 2, 7, 35, 940])
    def test_bit_identical_to_op_by_op_reference(self, name, T):
        config = BLOCK_CONFIGS[name]
        rng = np.random.default_rng(T)
        tcn = nn.Tcn.init(config, rng)
        for p in tcn.parameters():  # nonzero biases, so the bias adds are exercised
            p.data += 0.1 * rng.normal(size=p.data.shape)
        x = rng.normal(size=(T, config.input_dim))
        # Exact zeros in the upstream gradient, as isr's maximum routes to the losing net.
        g = rng.normal(size=(T, config.output_classes)) * (rng.random((T, 1)) < 0.7)
        got = logits_and_grads(tcn, x, g, nn.conv_block)
        want = logits_and_grads(tcn, x, g, reference_block)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert tcn.forward(x).data.tobytes() == got[0].tobytes()

    def test_one_node_per_block(self):
        config = BLOCK_CONFIGS["fingerspelling"]
        tcn = nn.Tcn.init(config, np.random.default_rng(0))
        node, blocks = tcn.forward(np.ones((5, config.input_dim))), 0
        while node._parents:  # the head, then one node per block back to the input
            node = node._parents[0]
            blocks += 1
        assert blocks == 1 + config.num_blocks


def reference_adamw_step(param, grad, state, lr, weight_decay):
    """The per-tensor AdamW update, one fresh array per operation."""
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    param -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    if weight_decay:
        param -= lr * weight_decay * param


class TestAdamW:
    def test_hand_computed_first_step(self):
        # theta=1, g=1, lr=0.1, wd=0: m_hat=1, v_hat=1 -> theta ~ 0.9
        param = np.array([1.0])
        state = nn.AdamState(m=np.zeros(1), v=np.zeros(1))
        nn.adamw_step(param, np.array([1.0]), state, lr=0.1)
        assert param[0] == pytest.approx(0.9, abs=1e-7)

    def test_zero_gradient_no_update(self):
        param = np.array([3.0])
        state = nn.AdamState(m=np.zeros(1), v=np.zeros(1))
        nn.adamw_step(param, np.array([0.0]), state, lr=0.1)
        assert param[0] == pytest.approx(3.0)

    def test_decoupled_decay_with_zero_gradient(self):
        param = np.array([2.0])
        state = nn.AdamState(m=np.zeros(1), v=np.zeros(1))
        nn.adamw_step(param, np.array([0.0]), state, lr=0.1, weight_decay=0.01)
        assert param[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01))

    def test_flat_in_place_step_matches_per_tensor_reference(self):
        rng = np.random.default_rng(15)
        shapes = [(3, 4, 2), (2,), (4, 5), (1,), (6, 3)]
        flat = [nn.parameter(rng.normal(size=s)) for s in shapes]
        each = [nn.parameter(p.data.copy()) for p in flat]
        opt = nn.AdamW(flat, lr=0.05, weight_decay=0.1)
        states = [nn.AdamState(m=np.zeros_like(p.data), v=np.zeros_like(p.data)) for p in each]
        norms = []
        for step in range(25):
            opt.lr = nn.cosine_lr(step, 25, 0.05, 1e-4)
            for a, b in zip(flat, each):
                a.grad = rng.normal(size=a.data.shape) * (step % 5 + 1)
                b.grad = a.grad.copy()
            norms.append(nn.clip_grad_norm(flat, 12.0))
            assert nn.clip_grad_norm(each, 12.0) == norms[-1]
            opt.step()
            for p, st in zip(each, states):
                reference_adamw_step(p.data, p.grad, st, lr=opt.lr, weight_decay=0.1)
            assert [p.data.tobytes() for p in flat] == [p.data.tobytes() for p in each]
        assert min(norms) < 12.0 < max(norms)

    def test_step_rejects_a_parameter_without_gradient(self):
        a, b = nn.parameter(np.ones(2), "a"), nn.parameter(np.ones(3), "b")
        opt = nn.AdamW([a, b], lr=0.1, weight_decay=0.0)
        a.grad = np.ones(2)
        with pytest.raises(ValueError, match="parameter 1 \\('b'\\) has no gradient"):
            opt.step()
        assert a.data.tobytes() == np.ones(2).tobytes()

    def test_clip_grad_norm(self):
        p = nn.parameter(np.array([3.0, 4.0]))
        p.grad = np.array([3.0, 4.0])
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(p.grad, [0.6, 0.8])


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert nn.cosine_lr(0, 100, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert nn.cosine_lr(100, 100, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert nn.cosine_lr(50, 100, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            nn.cosine_lr(5, 4, 1e-3)


class TestWeightsContainer:
    def _weights(self, rng):
        config, tcn = small_tcn(rng)
        return nn.ModelWeights.from_float64(
            config, tcn.state_arrays(), extra={"note": "test"}
        )

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        weights = self._weights(rng)
        nn.save_weights(tmp_path / "model", weights)
        loaded = nn.load_weights(tmp_path / "model")
        assert loaded.extra == {"note": "test"}
        assert set(loaded.tensors) == set(weights.tensors)
        for name, arr in weights.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], arr)
            assert loaded.tensors[name].dtype == np.float32

    def test_truncated_blob_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        nn.save_weights(tmp_path / "m", self._weights(rng))
        blob = (tmp_path / "m" / "weights.bin").read_bytes()
        (tmp_path / "m" / "weights.bin").write_bytes(blob[:-8])
        with pytest.raises(nn.WeightsError):
            nn.load_weights(tmp_path / "m")

    def test_fingerprint_tamper_rejected(self, tmp_path):
        import json

        rng = np.random.default_rng(12)
        nn.save_weights(tmp_path / "m", self._weights(rng))
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["config"]["channels"] = 12
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(nn.WeightsError):
            nn.load_weights(tmp_path / "m")

    def test_shape_mismatch_rejected(self, tmp_path):
        import json

        rng = np.random.default_rng(13)
        nn.save_weights(tmp_path / "m", self._weights(rng))
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["tensors"][0]["shape"] = [9999, 1]
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(nn.WeightsError):
            nn.load_weights(tmp_path / "m")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(nn.WeightsError):
            nn.load_weights(tmp_path / "nope")
