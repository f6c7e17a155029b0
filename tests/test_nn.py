"""TCN forward and reverse pass against the graph-engine reference, optimizer,
the training steps, and the model directory."""

from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest
from scipy.special import erf

from signscribe import isr as isr_mod
from signscribe import nn, training
from signscribe.ctc import FrameScores, ctc_loss
from signscribe.nn import tcn as tcn_mod
from signscribe.nn.autograd import _INV_SQRT_2PI, _SQRT2
from signscribe.nn.optim import BETA1, BETA2, EPS
from signscribe.pose import (
    FINGERSPELLING_FEATURES,
    ISR_ONE_HAND_FEATURES,
    ISR_TWO_HAND_FEATURES,
)
from signscribe.training import fit

# The reference that the explicit reverse pass is pinned to: the reverse-mode
# graph engine the TCN ran on before, and the ops a TCN block was built from
# before it became one function, one graph node per op. Every gradient is
# accumulated into zeros, as the engine did.


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad=None):
        """Backpropagate from this node; scalar roots default to grad 1."""
        if not self.requires_grad:
            raise ValueError("backward() from a tensor that does not require a gradient")
        if grad is None:
            grad = np.ones_like(self.data)
        order, seen, stack = [], set(), [(self, False)]
        while stack:  # iterative post-order: parents before children
            cur, expanded = stack.pop()
            if expanded:
                order.append(cur)
            elif id(cur) not in seen:
                seen.add(id(cur))
                stack.append((cur, True))
                stack.extend((p, False) for p in cur._parents)
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data)


def _node(data, parents, backward) -> Tensor:
    """An op's output: a graph node if any parent requires a gradient, else plain data."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    def bw(g):
        if x.requires_grad:
            x._accumulate(g @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ g)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    return _node(x.data @ weight.data + bias.data, (x, weight, bias), bw)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on exact ties the gradient routes to ``a``."""
    take_a = a.data >= b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.where(take_a, g, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(take_a, 0.0, g))

    return _node(np.where(take_a, a.data, b.data), (a, b), bw)


def sum_all(x: Tensor) -> Tensor:
    def bw(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, float(g)))

    return _node(np.float64(x.data.sum()), (x,), bw)


def external_loss(logits: Tensor, value: float, grad_wrt_logits) -> Tensor:
    """A scalar loss whose gradient with respect to ``logits`` was computed outside."""

    def bw(g):
        if logits.requires_grad:
            logits._accumulate(float(g) * grad_wrt_logits)

    return _node(np.float64(value), (logits,), bw)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


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
                    xt, wt, bt = parameter(x), parameter(w), parameter(b)
                    y = conv1d(xt, wt, bt, dilation)
                    y.backward(g)
                    want = padded_conv1d(x, w, b, dilation, g)
                    got = (y.data, xt.grad, wt.grad, bt.grad)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                    short += T < (k - 1) // 2 * dilation
        assert short >= 20

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = constant(rng.normal(size=(9, 4)))
        w = np.zeros((3, 4, 4))
        for i in range(4):
            w[1, i, i] = 1.0
        y = conv1d(x, parameter(w), None, dilation=3)
        np.testing.assert_allclose(y.data, x.data)

    def test_zero_input(self):
        x = constant(np.zeros((6, 2)))
        w = parameter(np.ones((3, 2, 5)))
        y = conv1d(x, w, None, dilation=2)
        np.testing.assert_array_equal(y.data, np.zeros((6, 5)))

    def test_hand_convolution_oracle(self):
        # kernel [1,1,1], dilation 2, x = [1,0,0,0,1]; oracle value computed
        # by direct summation with zero padding: [1, 0, 2, 0, 1].
        x_vals = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        expected = hand_dilated_conv(x_vals, [1.0, 1.0, 1.0], 2)
        np.testing.assert_array_equal(expected, [1.0, 0.0, 2.0, 0.0, 1.0])
        y = conv1d(
            constant(x_vals.reshape(-1, 1)),
            parameter(np.ones((3, 1, 1))),
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
            y = conv1d(constant(x.reshape(-1, 1)), parameter(w), None, dilation)
            np.testing.assert_allclose(
                y.data.ravel(), hand_dilated_conv(x, kernel, dilation), atol=1e-12
            )

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd k"):
            nn.conv_block(np.zeros((4, 2)), [np.zeros((2, 2, 2))], [np.zeros(2)], (1,), None, None)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="need odd k and C_in 3"):
            nn.conv_block(
                np.zeros((4, 3)), [np.zeros((3, 2, 2))], [np.zeros(2)], (1,), np.zeros((3, 2)), None
            )


class TestAutogradBasics:
    def test_constant_loss_zero_gradients(self):
        p = parameter(np.ones((3, 2)))
        loss = sum_all(matmul(p, constant(np.zeros((2, 4)))))
        loss.backward()
        np.testing.assert_array_equal(p.grad, np.zeros((3, 2)))

    def test_linear_layer_analytic_gradient(self):
        # y = x @ W, loss = sum(y): dL/dW = outer(x, ones) summed over rows.
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = parameter(np.zeros((2, 3)))
        loss = sum_all(linear(constant(x), w, constant(np.zeros(3))))
        loss.backward()
        expected = x.T @ np.ones((2, 3))
        np.testing.assert_allclose(w.grad, expected)

    def test_gelu_zero_is_zero(self):
        y = gelu(constant(np.array([0.0])))
        assert y.data[0] == 0.0

    def test_maximum_routes_gradient(self):
        a = parameter(np.array([1.0, 5.0]))
        b = parameter(np.array([2.0, 3.0]))
        loss = sum_all(maximum(a, b))
        loss.backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 0.0])

    def test_residual_reuse_accumulates(self):
        p = parameter(np.array([2.0]))
        loss = sum_all(add(p, p))
        loss.backward()
        np.testing.assert_array_equal(p.grad, [2.0])

    def test_constant_inputs_record_no_graph(self):
        a, b = constant(np.ones((2, 3))), constant(np.ones((3, 2)))
        out = sum_all(gelu(matmul(a, b)))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        with pytest.raises(ValueError, match="does not require a gradient"):
            out.backward()

    def test_one_trainable_input_records_the_node(self):
        a, w = constant(np.ones((2, 3))), parameter(np.ones((3, 2)))
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

        def loss_value(backward=False):
            logits = tcn.forward(x)
            value, grad = ctc_loss(FrameScores(probs=nn.softmax(logits.data)), target)
            if backward:
                logits.backward(grad)
            return value

        loss_value(backward=True)
        h = 1e-5
        probes = 0
        for name in sorted(tcn.params):
            flat = tcn.params[name].reshape(-1)
            grads = tcn.grads[name].reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                assert abs(numeric - grads[i]) <= 1e-4 * max(1e-4, abs(numeric), abs(grads[i]))
                probes += 1
        assert probes >= 30

    @pytest.mark.parametrize(
        "make_config, input_dim, classes",
        [
            (nn.fingerspelling_config, len(FINGERSPELLING_FEATURES), 30),
            (nn.isr_config, len(ISR_TWO_HAND_FEATURES), 22),
            (nn.isr_config, len(ISR_ONE_HAND_FEATURES), 22),
        ],
    )
    @pytest.mark.parametrize("T", [1, 35, 940])
    def test_frozen_copy_gives_identical_logits(self, make_config, input_dim, classes, T):
        rng = np.random.default_rng(T)
        config = make_config(input_dim=input_dim, output_classes=classes)
        trainable = nn.Tcn.init(config, rng)
        frozen = nn.Tcn.from_arrays(config, trainable.state_arrays())
        x = rng.normal(size=(T, config.input_dim))
        recorded, plain = trainable.forward(x), frozen.forward(x)
        assert np.array_equal(recorded.data, plain.data)
        assert recorded._backward is not None
        assert frozen.grads is None and plain._backward is None

    def test_backward_from_loaded_net_raises(self):
        config, tcn = small_tcn(np.random.default_rng(6))
        loaded = nn.Tcn.from_arrays(config, tcn.state_arrays())
        assert loaded.grads is None
        out = loaded.forward(np.ones((5, 4)))
        with pytest.raises(ValueError, match="frozen network"):
            out.backward(np.ones_like(out.data))

    def test_backward_rejects_a_gradient_of_another_shape(self):
        _, tcn = small_tcn(np.random.default_rng(6))
        out = tcn.forward(np.ones((5, 4)))
        with pytest.raises(ValueError, match=r"gradient shape \(4, 4\) does not match \(5, 4\)"):
            out.backward(np.ones((4, 4)))

    def test_frozen_copy_taken_after_adamw_keeps_its_logits(self):
        """AdamW steps its parameters in place in one flat buffer; a copy taken
        after the optimiser is built must not share that buffer."""
        config, tcn = small_tcn(np.random.default_rng(7))
        opt = nn.AdamW([tcn], lr=0.1, weight_decay=0.01)
        frozen = nn.Tcn.from_arrays(config, tcn.state_arrays())
        x = np.random.default_rng(8).normal(size=(9, config.input_dim))
        before = frozen.forward(x).data.copy()
        opt.grad[:] = 1.0
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
        with pytest.raises(ValueError, match=r"unexpected parameters: \['block9.proj'\]"):
            nn.Tcn.from_arrays(config, arrays)

    def test_from_arrays_wrong_shape(self):
        config, tcn = small_tcn(np.random.default_rng(5))
        arrays = tcn.state_arrays()
        arrays["block0.branch1.w"] = arrays["block0.branch1.w"][:, :, :1]
        with pytest.raises(ValueError, match=r"expected \(3, 4, 3\)"):
            nn.Tcn.from_arrays(config, arrays)


BLOCK_CONFIGS = {
    "fingerspelling": nn.fingerspelling_config(len(FINGERSPELLING_FEATURES), 30),
    "isr_two_hand": nn.isr_config(len(ISR_TWO_HAND_FEATURES), 22),
    "isr_one_hand": nn.isr_config(len(ISR_ONE_HAND_FEATURES), 22),
    "criterion_2": nn.TcnConfig(
        input_dim=5, output_classes=5, num_blocks=2, kernel_size=3,
        block_dilations=((1, 1), (2, 1)), channels=6,
    ),
    "no_projection": nn.TcnConfig(
        input_dim=6, output_classes=4, num_blocks=2, kernel_size=5,
        block_dilations=((1, 1), (3, 2, 1)), channels=6,
    ),
}


def reference_forward(params, config, h):
    """Logits of the op-by-op reference over reference-engine ``params``, from input node ``h``."""
    for b, dils in enumerate(config.block_dilations):
        ws, bs, proj = tcn_mod._block_arrays(params, b, dils)
        h = reference_block(h, ws, bs, dils, proj)
    return linear(h, params["head.w"], params["head.b"])


def reference_logits_and_grads(tcn, x, g):
    """Logits of the reference over copies of ``tcn``'s weights and a trainable
    input, then the input's and every parameter's gradient for upstream ``g``."""
    params = {name: parameter(a.copy()) for name, a in tcn.params.items()}
    xt = parameter(x)
    logits = reference_forward(params, tcn.config, xt)
    logits.backward(g)
    return [logits.data, xt.grad] + [params[n].grad for n in sorted(params)]


def chained_logits_and_grads(tcn, x, g):
    """The same from ``nn.conv_block`` chained by hand as ``Tcn.forward`` chains
    it, but with block 0 asked for its input gradient too. ``+ 0.0`` turns a
    -0.0 into the +0.0 that the reference's accumulation into zeros gives."""
    p, grads = tcn.params, {name: np.zeros_like(a) for name, a in tcn.params.items()}
    h, steps = x, []
    for b, dils in enumerate(tcn.config.block_dilations):
        ws, bs, proj = tcn_mod._block_arrays(p, b, dils)
        h, step = nn.conv_block(h, ws, bs, dils, proj, tcn_mod._block_arrays(grads, b, dils))
        steps.append(step)
    grads["head.w"] += h.T @ g
    grads["head.b"] += g.sum(axis=0)
    gx = g @ p["head.w"].T
    for step in reversed(steps):
        gx = step(gx, True)
    return [h @ p["head.w"] + p["head.b"], gx + 0.0] + [grads[n] for n in sorted(grads)]


class TestConvBlockEquivalence:
    @pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
    @pytest.mark.parametrize("T", [1, 2, 7, 35, 940])
    def test_bit_identical_to_op_by_op_reference(self, name, T):
        config = BLOCK_CONFIGS[name]
        rng = np.random.default_rng(T)
        tcn = nn.Tcn.init(config, rng)
        for a in tcn.params.values():  # nonzero biases, so the bias adds are exercised
            a += 0.1 * rng.normal(size=a.shape)
        x = rng.normal(size=(T, config.input_dim))
        # Exact zeros in the upstream gradient, as isr's max routes to the losing net.
        g = rng.normal(size=(T, config.output_classes)) * (rng.random((T, 1)) < 0.7)
        want = reference_logits_and_grads(tcn, x, g)
        got = chained_logits_and_grads(tcn, x, g)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        out = tcn.forward(x)
        out.backward(g)
        assert out.data.tobytes() == want[0].tobytes()
        assert [tcn.grads[n].tobytes() for n in sorted(tcn.grads)] == [
            a.tobytes() for a in want[2:]
        ]

    def test_one_node_per_block(self, monkeypatch):
        """A forward makes one conv_block call per block, and backward runs
        their backwards once each in reverse, skipping block 0's input gradient."""
        config = BLOCK_CONFIGS["fingerspelling"]
        tcn = nn.Tcn.init(config, np.random.default_rng(0))
        forwards, backwards = [], []
        real = tcn_mod.conv_block

        def spy(*args):
            out, step = real(*args)
            block = len(forwards)
            forwards.append(block)

            def step_spy(g, input_grad):
                backwards.append((block, input_grad))
                return step(g, input_grad)

            return out, step_spy

        monkeypatch.setattr(tcn_mod, "conv_block", spy)
        out = tcn.forward(np.ones((5, config.input_dim)))
        assert forwards == list(range(config.num_blocks)) and backwards == []
        out.backward(np.ones_like(out.data))
        assert backwards == [(b, b > 0) for b in reversed(range(config.num_blocks))]


class TestForwardEach:
    @pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
    @pytest.mark.parametrize("seed", range(3))
    def test_bytes_match_a_forward_per_input(self, name, seed):
        config = BLOCK_CONFIGS[name]
        rng = np.random.default_rng(seed)
        trained = nn.Tcn.init(config, rng)
        for a in trained.params.values():  # nonzero biases, so gap rows turn nonzero
            a += 0.1 * rng.normal(size=a.shape)
        tcn = nn.Tcn.from_arrays(config, trained.params)
        lengths = [1, *rng.integers(1, 121, size=12), 1, 2]
        rng.shuffle(lengths)
        xs = [rng.normal(size=(int(T), config.input_dim)) for T in lengths]
        got = tcn.forward_each(xs)
        assert [(a.shape, a.tobytes()) for a in got] == [
            (x.shape[:1] + (config.output_classes,), tcn.forward(x).data.tobytes()) for x in xs
        ]

    def test_one_forward_for_the_inputs_of_two_or_more_frames(self, monkeypatch):
        config = BLOCK_CONFIGS["isr_one_hand"]
        tcn = nn.Tcn.from_arrays(config, nn.Tcn.init(config, np.random.default_rng(0)).params)
        calls = []
        real = nn.Tcn.forward

        def spy(self, x, *args):
            calls.append(len(x))
            return real(self, x, *args)

        monkeypatch.setattr(nn.Tcn, "forward", spy)
        tcn.forward_each([np.ones((n, config.input_dim)) for n in (5, 1, 3)])
        gap = 4  # (3 - 1)/2 x the largest dilation, 4
        assert calls == [1, gap + 5 + gap + 3 + gap]

    def test_trainable_network_refuses_gaps(self):
        config, tcn = small_tcn(np.random.default_rng(0))
        with pytest.raises(ValueError, match="frozen"):
            tcn.forward_each([np.ones((3, 4))])
        with pytest.raises(ValueError, match="frozen"):
            tcn.forward(np.ones((3, 4)), np.zeros(3, dtype=bool))


def frozen_pair(config, seed):
    """A trainable network with nonzero biases and a frozen copy of it."""
    rng = np.random.default_rng(seed)
    trained = nn.Tcn.init(config, rng)
    for a in trained.params.values():
        a += 0.1 * rng.normal(size=a.shape)
    return trained, nn.Tcn.from_arrays(config, trained.params)


class TestRowHalves:
    """A frozen forward of a long input runs as two row halves with a halo; the
    trainable network's forward, which never splits, is the oracle."""

    @pytest.mark.parametrize("name", ["fingerspelling", "isr_two_hand", "isr_one_hand"])
    @pytest.mark.parametrize("T", [512, 513, 940])
    def test_forward_bytes_match_the_unsplit_forward(self, name, T):
        trained, frozen = frozen_pair(BLOCK_CONFIGS[name], T)
        x = np.random.default_rng(T + 1).normal(size=(T, trained.config.input_dim))
        assert frozen.forward(x).data.tobytes() == trained.forward(x).data.tobytes()

    @pytest.mark.parametrize("name", ["fingerspelling", "isr_two_hand"])
    def test_rows_with_clipped_halos(self, name):
        trained, frozen = frozen_pair(BLOCK_CONFIGS[name], 7)
        T = 600
        x = np.random.default_rng(8).normal(size=(T, trained.config.input_dim))
        whole = trained.forward(x).data
        halo = nn.receptive_field(trained.config) // 2
        # clipped at row 0, at row T, at both, and clipped at neither
        for lo, hi in [(0, 5), (3, 200), (T - 5, T), (450, T - 2), (0, T), (100, 300)]:
            assert frozen._rows(x, lo, hi, halo).tobytes() == whole[lo:hi].tobytes(), (lo, hi)

    @pytest.mark.parametrize("name", ["fingerspelling", "isr_one_hand"])
    def test_a_halo_one_row_short_changes_a_row(self, name):
        trained, frozen = frozen_pair(BLOCK_CONFIGS[name], 9)
        T = 512
        x = np.random.default_rng(10).normal(size=(T, trained.config.input_dim))
        whole = trained.forward(x).data
        short = nn.receptive_field(trained.config) // 2 - 1
        for lo, hi in [(0, T // 2), (T // 2, T)]:
            rows = frozen._rows(x, lo, hi, short)
            assert (rows != whole[lo:hi]).any(axis=1).sum() >= 1

    def test_only_long_frozen_forwards_split(self, monkeypatch):
        config = BLOCK_CONFIGS["isr_one_hand"]
        trained, frozen = frozen_pair(config, 0)
        calls = []
        real = tcn_mod.cpus.run

        def spy(tasks):
            calls.append(len(tasks))
            return real(tasks)

        monkeypatch.setattr(tcn_mod.cpus, "run", spy)
        frozen.forward(np.ones((511, config.input_dim)))
        trained.forward(np.ones((512, config.input_dim)))
        frozen.forward(np.ones((512, config.input_dim)), np.zeros(512, dtype=bool))
        frozen.forward_each([np.ones((600, config.input_dim))])
        assert calls == []
        frozen.forward(np.ones((512, config.input_dim)))
        assert calls == [2]


def reference_clip_grad_norm(params, max_norm):
    """Global-norm clipping over reference-engine tensors, one tensor at a time."""
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        for p in params:
            p.grad *= max_norm / norm
    return norm


def reference_adam_state(p):
    """Zero moments and step count for one reference-engine tensor."""
    return SimpleNamespace(m=np.zeros_like(p.data), v=np.zeros_like(p.data), t=0)


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


FIT = dict(epochs=3, lr=0.05, weight_decay=0.01, min_lr=1e-4, grad_clip=0.5)


def reference_fit(params_list, train, loss_fn, rng, batch_size):
    """``training.fit``'s steps as they ran on the graph engine: the loss node,
    zeroed gradients, backward, clipping, then one AdamW step per tensor.
    Returns each step's gradient norm and each epoch's mean loss."""
    params = [ps[n] for ps in params_list for n in sorted(ps)]
    states = [reference_adam_state(p) for p in params]
    n_batches = -(-len(train) // batch_size)
    total_steps, step, norms, losses = FIT["epochs"] * n_batches, 0, [], []
    for _ in range(FIT["epochs"]):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        for b in range(n_batches):
            lr = nn.cosine_lr(step, total_steps, FIT["lr"], FIT["min_lr"])
            batch = [train[i] for i in order[b * batch_size : (b + 1) * batch_size]]
            loss = loss_fn(params_list, batch)
            zero_grads(params)
            loss.backward()
            norms.append(reference_clip_grad_norm(params, FIT["grad_clip"]))
            for p, st in zip(params, states):
                reference_adamw_step(p.data, p.grad, st, lr=lr, weight_decay=FIT["weight_decay"])
            epoch_loss += loss.item()
            step += 1
        losses.append(epoch_loss / n_batches)
    return norms, losses


def assert_fit_matches_reference(
    monkeypatch, nets, step, score, reference_loss_fn, train, batch_size
):
    """Train ``nets`` with ``training.fit``, its recipe constants patched to
    ``FIT``'s, and copies of them on the reference; every parameter's bytes
    and every epoch's mean loss must agree."""
    params_list = [{n: parameter(a.copy()) for n, a in net.params.items()} for net in nets]
    norms, losses = reference_fit(
        params_list, train, reference_loss_fn, np.random.default_rng(5), batch_size
    )
    for name, value in dict(
        BATCH_SIZE=batch_size, WEIGHT_DECAY=FIT["weight_decay"], MIN_LR=FIT["min_lr"],
        PATIENCE=100, GRAD_CLIP=FIT["grad_clip"],
    ).items():
        monkeypatch.setattr(training, name, value)
    _, history = fit(
        nets, train, train[:1], step, score, np.random.default_rng(5),
        epochs=FIT["epochs"], lr=FIT["lr"],
    )
    assert min(norms) > 0.0 and max(norms) > FIT["grad_clip"]  # clipping was active
    assert [h["train_loss"] for h in history] == losses
    for net, params in zip(nets, params_list):
        assert [net.params[n].tobytes() for n in sorted(params)] == [
            params[n].data.tobytes() for n in sorted(params)
        ]


class TestFitEquivalence:
    def test_fingerspelling_steps_match_the_graph_engine(self, monkeypatch):
        rng = np.random.default_rng(21)
        config = nn.fingerspelling_config(input_dim=5, output_classes=6, channels=6)
        xs = [rng.normal(size=(int(T), 5)) for T in rng.integers(8, 20, size=5)]
        targets = [[int(c) for c in rng.integers(0, 5, size=3)] for _ in xs]

        def step(nets, samples):
            (net,), (i,) = nets, samples
            logits = net.forward(xs[i])
            value, grad = ctc_loss(FrameScores(probs=nn.softmax(logits.data)), targets[i])
            logits.backward(grad)
            return value

        def score(nets, samples):
            (net,) = nets
            return [
                ctc_loss(FrameScores(probs=nn.softmax(net.forward(xs[i]).data)), targets[i])[0]
                for i in samples
            ]

        def reference_loss(params_list, samples):
            (params,), (i,) = params_list, samples
            logits = reference_forward(params, config, constant(xs[i]))
            value, grad = ctc_loss(FrameScores(probs=nn.softmax(logits.data)), targets[i])
            return external_loss(logits, value, grad)

        net = nn.Tcn.init(config, rng)
        assert_fit_matches_reference(
            monkeypatch, [net], step, score, reference_loss, list(range(5)), batch_size=1
        )

    def test_two_branch_isr_steps_match_the_graph_engine(self, monkeypatch):
        """The one-hand net starts as a copy of the two-hand one and sees the
        same input outside one window, so many logits tie exactly at the first
        step; their gradient must go to the two-hand net, as ``maximum`` sent it."""
        rng = np.random.default_rng(22)
        config = nn.isr_config(input_dim=5, output_classes=4, channels=6)
        two = nn.Tcn.init(config, rng)
        one = nn.Tcn(config, {n: a.copy() for n, a in two.params.items()},
                     {n: np.zeros_like(a) for n, a in two.params.items()})
        x2 = [rng.normal(size=(int(T), 5)) for T in rng.integers(40, 60, size=5)]
        x1 = [x.copy() for x in x2]
        for x in x1:
            x[:3] = rng.normal(size=(3, 5))
        targets = [(rng.random((len(x), 4)) < 0.3).astype(float) for x in x2]
        ties = two.forward(np.concatenate(x2)).data == one.forward(np.concatenate(x1)).data
        assert 0.2 < ties.mean() < 0.9

        def batch(xs, samples):
            return np.concatenate([xs[i] for i in samples])

        def step(nets, samples):
            out_two, out_one = nets[0].forward(batch(x2, samples)), nets[1].forward(batch(x1, samples))
            return isr_mod._max_bce(out_two, out_one, batch(targets, samples))

        def score(nets, samples):
            out_two, out_one = nets[0].forward(batch(x2, samples)), nets[1].forward(batch(x1, samples))
            merged, _ = isr_mod._merge_branches(out_two.data, out_one.data)
            return [nn.bce_with_logits(merged, batch(targets, samples))[0]]

        def reference_loss(params_list, samples):
            logits = maximum(
                reference_forward(params_list[0], config, constant(batch(x2, samples))),
                reference_forward(params_list[1], config, constant(batch(x1, samples))),
            )
            return external_loss(logits, *nn.bce_with_logits(logits.data, batch(targets, samples)))

        assert_fit_matches_reference(
            monkeypatch, [two, one], step, score, reference_loss, list(range(5)), batch_size=2
        )


def scalar_adamw(value, grad, lr, weight_decay=0.0):
    """AdamW over one scalar parameter of a stand-in network, its gradient set
    to ``grad``; returns the optimiser and the parameter, a view of its buffer."""
    net = SimpleNamespace(params={"w": np.array([value])}, grads={"w": np.zeros(1)})
    opt = nn.AdamW([net], lr=lr, weight_decay=weight_decay)
    opt.grad[:] = grad
    return opt, net.params["w"]


class TestAdamW:
    def test_hand_computed_first_step(self):
        # theta=1, g=1, lr=0.1, wd=0: m_hat=1, v_hat=1 -> theta ~ 0.9
        opt, param = scalar_adamw(1.0, 1.0, lr=0.1)
        opt.step()
        assert param[0] == pytest.approx(0.9, abs=1e-7)

    def test_zero_gradient_no_update(self):
        opt, param = scalar_adamw(3.0, 0.0, lr=0.1)
        opt.step()
        assert param[0] == pytest.approx(3.0)

    def test_decoupled_decay_with_zero_gradient(self):
        opt, param = scalar_adamw(2.0, 0.0, lr=0.1, weight_decay=0.01)
        opt.step()
        assert param[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01))

    def test_flat_in_place_step_matches_per_tensor_reference(self):
        rng = np.random.default_rng(15)
        nets = [small_tcn(rng)[1], small_tcn(rng, input_dim=3, classes=2)[1]]
        each = [parameter(net.params[n].copy()) for net in nets for n in sorted(net.params)]
        opt = nn.AdamW(nets, lr=0.05, weight_decay=0.1)
        assert len(opt.grads) == len(each)
        states = [reference_adam_state(p) for p in each]
        norms = []
        for step in range(25):
            opt.lr = nn.cosine_lr(step, 25, 0.05, 1e-4)
            for g, p in zip(opt.grads, each):
                g[...] = rng.normal(size=g.shape) * (step % 5 + 1)
                p.grad = g.copy()
            norms.append(nn.clip_grad_norm(opt.grads, 50.0))
            assert reference_clip_grad_norm(each, 50.0) == norms[-1]
            opt.step()
            for p, st in zip(each, states):
                reference_adamw_step(p.data, p.grad, st, lr=opt.lr, weight_decay=0.1)
            flat = [net.params[n].tobytes() for net in nets for n in sorted(net.params)]
            assert flat == [p.data.tobytes() for p in each]
        assert min(norms) < 50.0 < max(norms)
        assert opt.t == 25

    def test_step_rejects_a_parameter_without_gradient(self):
        """A frozen network has no gradients; AdamW refuses it before rebinding anything."""
        config, tcn = small_tcn(np.random.default_rng(16))
        frozen = nn.Tcn.from_arrays(config, tcn.state_arrays())
        before = dict(tcn.params)
        with pytest.raises(ValueError, match="frozen network"):
            nn.AdamW([tcn, frozen], lr=0.1, weight_decay=0.0)
        assert all(tcn.params[n] is a for n, a in before.items())

    def test_zero_grad_clears_every_gradient(self):
        _, tcn = small_tcn(np.random.default_rng(17))
        opt = nn.AdamW([tcn], lr=0.1, weight_decay=0.0)
        out = tcn.forward(np.ones((4, 4)))
        out.backward(np.ones_like(out.data))
        assert all(np.shares_memory(g, opt.grad) for g in tcn.grads.values())
        assert np.any(opt.grad != 0.0)
        opt.zero_grad()
        assert not np.any(opt.grad)

    def test_clip_grad_norm(self):
        g = np.array([3.0, 4.0])
        norm = nn.clip_grad_norm([g], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(g, [0.6, 0.8])


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert nn.cosine_lr(0, 100, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert nn.cosine_lr(100, 100, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert nn.cosine_lr(50, 100, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            nn.cosine_lr(5, 4, 1e-3)


class TestWeightsContainer:
    def _save(self, directory, seed):
        _, tcn = small_tcn(np.random.default_rng(seed))
        nn.save_tcn(directory, tcn, {"model_kind": "test", "note": "test"})
        return tcn

    def test_round_trip_bit_exact(self, tmp_path):
        tcn = self._save(tmp_path / "model", 9)
        loaded, extra = nn.load_tcn(tmp_path / "model", "test")
        assert extra == {"model_kind": "test", "note": "test"}
        assert loaded.grads is None  # frozen
        assert loaded.config == tcn.config
        assert set(loaded.params) == set(tcn.params)
        for name, arr in tcn.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr.astype(np.float32))
        nn.save_tcn(tmp_path / "again", loaded, extra)
        for name in ("weights.bin", "manifest.json"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "model" / name).read_bytes()

    def test_truncated_blob_rejected(self, tmp_path):
        self._save(tmp_path / "m", 10)
        blob = (tmp_path / "m" / "weights.bin").read_bytes()
        (tmp_path / "m" / "weights.bin").write_bytes(blob[:-8])
        with pytest.raises(nn.WeightsError):
            nn.load_tcn(tmp_path / "m", "test")

    def test_fingerprint_tamper_rejected(self, tmp_path):
        import json

        self._save(tmp_path / "m", 12)
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["config"]["channels"] = 12
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(nn.WeightsError, match="fingerprint"):
            nn.load_tcn(tmp_path / "m", "test")

    def test_shape_mismatch_rejected(self, tmp_path):
        import json

        self._save(tmp_path / "m", 13)
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["tensors"][0]["shape"] = [9999, 1]
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(nn.WeightsError, match="overruns the blob"):
            nn.load_tcn(tmp_path / "m", "test")

    def test_negative_offset_rejected(self, tmp_path):
        import json

        self._save(tmp_path / "m", 17)
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["tensors"][0]["offset_bytes"] = -24  # would read 12 bytes of the last tensor
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(nn.WeightsError, match="'block0.branch0.b' overruns the blob"):
            nn.load_tcn(tmp_path / "m", "test")

    @pytest.mark.parametrize(
        "tamper, match",
        [
            # (3, 4, 3) read as (36,): it fits the blob, so only the config refuses it
            (lambda m: m["tensors"][1].update(shape=[36]), "malformed manifest: ValueError"),
            (lambda m: m["tensors"][1].pop("shape"), "malformed manifest: KeyError"),
            (lambda m: m.pop("config"), "malformed manifest: KeyError"),
            (lambda m: m["tensors"].append(7), "malformed manifest: TypeError"),
        ],
        ids=["shape-off-config", "no-shape", "no-config", "entry-not-an-object"],
    )
    def test_bad_manifest_is_a_weights_error_naming_the_directory(self, tmp_path, tamper, match):
        import json
        import re

        self._save(tmp_path / "m", 15)
        path = tmp_path / "m" / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["tensors"][1]["shape"] == [3, 4, 3]
        tamper(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(nn.WeightsError, match=re.escape(f"{tmp_path / 'm'}: {match}")):
            nn.load_tcn(tmp_path / "m", "test")

    @pytest.mark.parametrize("text", ["{", "\udcff"])
    def test_unreadable_manifest_names_the_directory(self, tmp_path, text):
        import re

        self._save(tmp_path / "m", 16)
        (tmp_path / "m" / "manifest.json").write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(nn.WeightsError, match=re.escape(f"{tmp_path / 'm'}: unreadable manifest")):
            nn.load_tcn(tmp_path / "m", "test")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(nn.WeightsError):
            nn.load_tcn(tmp_path / "nope", "test")

    def test_foreign_model_kind_rejected(self, tmp_path):
        self._save(tmp_path / "m", 14)
        with pytest.raises(nn.WeightsError, match="m holds model_kind 'test', not 'fingerspelling'"):
            nn.load_tcn(tmp_path / "m", "fingerspelling")
