"""Optimizer, gradient clipping and checkpoint serialization tests."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import corrupt
from imsk.asr import load_asr
from imsk.nn import tensor as tt
from imsk.nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from imsk.nn.optim import (
    AdaDelta,
    Adam,
    NonFiniteGradientError,
    Sgd,
    clip_gradients,
    global_grad_norm,
    make_optimizer,
)


def make_param(value, grad=None):
    p = tt.Parameter(np.asarray(value, dtype=np.float64), name="p")
    if grad is not None:
        p.grad = np.asarray(grad, dtype=np.float64)
    return p


class TestAdaDelta:
    def test_first_step_matches_closed_form(self):
        rho, eps, g = 0.95, 1e-8, 0.3
        p = make_param([2.0], grad=[g])
        opt = AdaDelta([p], rho=rho, eps=eps)
        opt.step()
        expected_delta = -np.sqrt(eps) / np.sqrt(g * g * (1.0 - rho) + eps) * g
        assert np.allclose(p.data, 2.0 + expected_delta, rtol=0, atol=1e-15)

    def test_fifty_steps_on_quadratic_match_reference(self):
        # independent scalar re-implementation of the update recurrences
        rho, eps = 0.95, 1e-8
        p = make_param([1.0])
        opt = AdaDelta([p], rho=rho, eps=eps)
        x_ref, eg2, ed2 = 1.0, 0.0, 0.0
        for _ in range(50):
            p.grad = np.array([2.0 * p.data[0]])
            opt.step()
            g = 2.0 * x_ref
            eg2 = rho * eg2 + (1.0 - rho) * g * g
            delta = -np.sqrt(ed2 + eps) / np.sqrt(eg2 + eps) * g
            ed2 = rho * ed2 + (1.0 - rho) * delta * delta
            x_ref += delta
            assert np.allclose(p.data, [x_ref], rtol=0, atol=1e-14)
        assert abs(x_ref) < 1.0

    def test_none_grad_decays_accumulator(self):
        p = make_param([1.0], grad=[0.5])
        opt = AdaDelta([p])
        opt.step()
        eg2_after_one = opt.acc_grad[0].copy()
        p.grad = None
        opt.step()
        assert np.allclose(opt.acc_grad[0], 0.95 * eg2_after_one)

    def test_step_clears_grads(self):
        p = make_param([1.0], grad=[0.5])
        AdaDelta([p]).step()
        assert p.grad is None

    def test_halve_eps(self):
        opt = AdaDelta([make_param([1.0])], eps=1e-8)
        opt.halve_eps()
        assert opt.eps == 5e-9

    def test_non_finite_grad_names_parameter(self):
        p = make_param([1.0], grad=[np.nan])
        with pytest.raises(NonFiniteGradientError, match="p"):
            AdaDelta([p]).step()

    def test_validates_hyperparameters(self):
        with pytest.raises(ValueError):
            AdaDelta([make_param([1.0])], rho=1.0)
        with pytest.raises(ValueError):
            AdaDelta([make_param([1.0])], eps=0.0)


class TestSgdAdam:
    def test_sgd_step(self):
        p = make_param([1.0, 2.0], grad=[0.5, -1.0])
        Sgd([p], lr=0.1).step()
        assert np.allclose(p.data, [0.95, 2.1])

    def test_adam_first_step_is_lr_sized(self):
        # bias correction makes the first update exactly -lr * sign(g)
        p = make_param([0.0], grad=[3.0])
        Adam([p], lr=0.01).step()
        assert np.allclose(p.data, [-0.01], atol=1e-8)

    def test_adam_converges_on_quadratic(self):
        p = make_param([1.0])
        opt = Adam([p], lr=0.05)
        for _ in range(200):
            p.grad = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_make_optimizer(self):
        p = make_param([1.0])
        assert isinstance(make_optimizer("adadelta", [p]), AdaDelta)
        assert isinstance(make_optimizer("sgd", [p], lr=0.1), Sgd)
        assert isinstance(make_optimizer("adam", [p]), Adam)
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", [p])


class TestClipping:
    def test_global_norm(self):
        a = make_param([1.0], grad=[3.0])
        b = make_param([1.0], grad=[4.0])
        assert np.isclose(global_grad_norm([a, b]), 5.0)

    def test_clip_rescales_to_threshold(self):
        a = make_param([1.0], grad=[3.0])
        b = make_param([1.0], grad=[4.0])
        pre = clip_gradients([a, b], threshold=1.0)
        assert np.isclose(pre, 5.0)
        assert np.allclose(a.grad, [0.6]) and np.allclose(b.grad, [0.8])

    def test_clip_below_threshold_is_noop(self):
        a = make_param([1.0], grad=[0.3])
        clip_gradients([a], threshold=1.0)
        assert np.allclose(a.grad, [0.3])

    def test_clip_is_idempotent(self):
        a = make_param([1.0], grad=[3.0])
        b = make_param([1.0], grad=[4.0])
        clip_gradients([a, b], threshold=1.0)
        pre2 = clip_gradients([a, b], threshold=1.0)
        assert np.isclose(pre2, 1.0)
        assert np.allclose(a.grad, [0.6]) and np.allclose(b.grad, [0.8])


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "model.nnk"
        cfg = {"hidden": 4, "name": "demo"}
        params = {
            "enc.w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "enc.b": np.array([1.5, -2.5], dtype=np.float32),
        }
        save_checkpoint(path, cfg, params)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert set(params2) == set(params)
        for k in params:
            assert params2[k].dtype == np.float32
            assert np.array_equal(params2[k], params[k])

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nnk"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "model.nnk"
        save_checkpoint(path, {}, {"w": np.ones(4, dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        path = tmp_path / "model.nnk"
        save_checkpoint(path, {}, {"w": np.ones(4, dtype=np.float32)})
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @staticmethod
    def _saved(path, config=None):
        config = {"kind": "asr", "vocab_size": 5} if config is None else config
        save_checkpoint(path, config, {"enc.wé": np.ones((2, 3), dtype=np.float32)})
        return path.read_bytes()

    def test_rejects_invalid_utf8_in_config(self, tmp_path):
        path = tmp_path / "model.nnk"
        blob = bytearray(self._saved(path))
        blob[10] = 0xFF  # inside the config JSON
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_rejects_malformed_config(self, tmp_path):
        path = tmp_path / "model.nnk"
        blob = self._saved(path)
        path.write_bytes(blob.replace(b'"kind"', b'"kind', 1))
        with pytest.raises(CheckpointError, match="malformed config"):
            load_checkpoint(path)

    def test_rejects_invalid_utf8_in_parameter_name(self, tmp_path):
        path = tmp_path / "model.nnk"
        blob = self._saved(path)
        path.write_bytes(blob.replace("é".encode(), b"\xff\xff"))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_rejects_config_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "model.nnk"
        self._saved(path, config=[1])
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError):
            load_asr(path)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corruptions_raise_only_checkpoint_error(self, tmp_path, data):
        path = tmp_path / "model.nnk"
        blob = self._saved(path, {"kind": "lm", "vocab_hash": "ab", "units": [64, 2]})
        path.write_bytes(corrupt(data, blob))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


def test_gradcheck_catches_corrupted_backward():
    # negative control: a deliberately wrong backward must fail the check
    from imsk.nn.gradcheck import check_gradients

    x = tt.Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def loss():
        y = tt.mul(x, x)
        orig = y._backward

        def broken(g):
            orig(g)
            x.grad *= 1.5

        y._backward = broken
        return tt.sum_(y)

    report = check_gradients(loss, [x])
    assert not report.passed(1e-5)
