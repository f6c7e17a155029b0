"""Autograd engine, TCN forward/backward, optimizer, and weight container."""

import numpy as np
import pytest

from signscribe import nn
from signscribe.ctc import FrameScores, ctc_loss
from signscribe.pose import (
    FINGERSPELLING_FEATURES,
    ISR_ONE_HAND_FEATURES,
    ISR_TWO_HAND_FEATURES,
)


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
                    y = nn.conv1d(xt, wt, bt, dilation)
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
        y = nn.conv1d(x, nn.parameter(w), None, dilation=3)
        np.testing.assert_allclose(y.data, x.data)

    def test_zero_input(self):
        x = nn.constant(np.zeros((6, 2)))
        w = nn.parameter(np.ones((3, 2, 5)))
        y = nn.conv1d(x, w, None, dilation=2)
        np.testing.assert_array_equal(y.data, np.zeros((6, 5)))

    def test_hand_convolution_oracle(self):
        # kernel [1,1,1], dilation 2, x = [1,0,0,0,1]; oracle value computed
        # by direct summation with zero padding: [1, 0, 2, 0, 1].
        x_vals = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        expected = hand_dilated_conv(x_vals, [1.0, 1.0, 1.0], 2)
        np.testing.assert_array_equal(expected, [1.0, 0.0, 2.0, 0.0, 1.0])
        y = nn.conv1d(
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
            y = nn.conv1d(nn.constant(x.reshape(-1, 1)), nn.parameter(w), None, dilation)
            np.testing.assert_allclose(
                y.data.ravel(), hand_dilated_conv(x, kernel, dilation), atol=1e-12
            )

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            nn.conv1d(nn.constant(np.zeros((4, 2))), nn.parameter(np.zeros((2, 2, 2))), None, 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nn.conv1d(nn.constant(np.zeros((4, 3))), nn.parameter(np.zeros((3, 2, 2))), None, 1)


class TestAutogradBasics:
    def test_constant_loss_zero_gradients(self):
        p = nn.parameter(np.ones((3, 2)))
        loss = nn.sum_all(nn.matmul(p, nn.constant(np.zeros((2, 4)))))
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
        y = nn.gelu(nn.constant(np.array([0.0])))
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
        loss = nn.sum_all(nn.add(p, p))
        loss.backward()
        np.testing.assert_array_equal(p.grad, [2.0])

    def test_constant_inputs_record_no_graph(self):
        a, b = nn.constant(np.ones((2, 3))), nn.constant(np.ones((3, 2)))
        out = nn.sum_all(nn.gelu(nn.matmul(a, b)))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        with pytest.raises(ValueError, match="does not require a gradient"):
            out.backward()

    def test_one_trainable_input_records_the_node(self):
        a, w = nn.constant(np.ones((2, 3))), nn.parameter(np.ones((3, 2)))
        out = nn.matmul(a, w)
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
