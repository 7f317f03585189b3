"""Layer forward semantics and gradient checks (float64)."""

import numpy as np
import pytest

from helpers import check_gradients
from imsk.nn import tensor as tt
from imsk.nn.layers import Blstm, Embedding, Linear, Lstm, LstmCell, StatsPooling, VggBlock

RNG = np.random.default_rng(11)


def check(loss_fn, tensors, tol=1e-6):
    report = check_gradients(loss_fn, tensors)
    assert report.passed(tol), report.per_tensor


def test_linear_identity():
    lin = Linear(3, 3, RNG, dtype=np.float64)
    lin.w.data = np.eye(3)
    lin.b.data = np.zeros(3)
    x = np.array([[1.0, -2.0, 0.5]])
    assert np.allclose(lin(tt.Tensor(x)).data, x)


def test_linear_zero_input_gives_bias():
    lin = Linear(4, 2, RNG, dtype=np.float64)
    lin.b.data = np.array([0.3, -0.7])
    y = lin(tt.Tensor(np.zeros((1, 4))))
    assert np.allclose(y.data, [[0.3, -0.7]])


def test_linear_grads():
    lin = Linear(4, 3, RNG, dtype=np.float64)
    x = tt.Tensor(RNG.normal(0, 1, (2, 4)), requires_grad=True)
    check(lambda: tt.sum_(tt.mul(lin(x), lin(x))), [x, lin.w, lin.b])


def test_lstm_cell_zero_everything():
    cell = LstmCell(3, 4, RNG, dtype=np.float64)
    cell.w.data[:] = 0.0
    cell.b.data[:] = 0.0
    h, c = cell.zero_state(1, np.float64)
    h2, c2 = cell(tt.Tensor(np.zeros((1, 3))), h, c)
    assert np.all(h2.data == 0.0) and np.all(c2.data == 0.0)


def test_lstm_cell_three_step_grads():
    cell = LstmCell(2, 3, RNG, dtype=np.float64)
    xs = tt.Tensor(RNG.normal(0, 1, (3, 1, 2)), requires_grad=True)

    def loss():
        h, c = cell.zero_state(1, np.float64)
        for t in range(3):
            h, c = cell(tt.take(xs, t), h, c)
        return tt.sum_(tt.mul(h, h))

    check(loss, [xs, cell.w, cell.b])


def test_lstm_layer_matches_cell_unrolled():
    layer = Lstm(2, 3, RNG, dtype=np.float64)
    x = RNG.normal(0, 1, (1, 4, 2))
    y = layer(tt.Tensor(x), np.array([4]))
    h, c = layer.cell.zero_state(1, np.float64)
    for t in range(4):
        h, c = layer.cell(tt.Tensor(x[:, t]), h, c)
    assert np.allclose(y.data[0, 3], h.data[0], atol=1e-12)


def test_lstm_masking_equals_short_run():
    # padded batch entry must produce the same states as its unpadded run
    layer = Lstm(2, 3, RNG, dtype=np.float64)
    x_short = RNG.normal(0, 1, (1, 3, 2))
    x_pad = np.concatenate([x_short, RNG.normal(0, 1, (1, 2, 2))], axis=1)
    y_short = layer(tt.Tensor(x_short), np.array([3]))
    y_pad = layer(tt.Tensor(x_pad), np.array([3]))
    assert np.allclose(y_pad.data[0, :3], y_short.data[0], atol=1e-12)


def test_blstm_output_dim_and_reverse_consistency():
    layer = Blstm(2, 5, RNG, dtype=np.float64)
    x = RNG.normal(0, 1, (2, 6, 2))
    y = layer(tt.Tensor(x), np.array([6, 4]))
    assert y.shape == (2, 6, 10)
    # backward half of the short row must match an unpadded run
    y1 = layer(tt.Tensor(x[1:2, :4]), np.array([4]))
    assert np.allclose(y.data[1, :4], y1.data[0], atol=1e-12)


def test_blstm_grads():
    layer = Blstm(2, 2, RNG, dtype=np.float64)
    x = tt.Tensor(RNG.normal(0, 1, (1, 3, 2)), requires_grad=True)
    tensors = [x] + layer.params()
    check(lambda: tt.sum_(tt.mul(layer(x, np.array([3])), layer(x, np.array([3])))), tensors)


def test_vgg_block_halves():
    block = VggBlock(1, 2, RNG, dtype=np.float64)
    x = RNG.normal(0, 1, (2, 10, 6, 1))
    assert block(tt.Tensor(x)).shape == (2, 5, 3, 2)
    # odd sizes keep their trailing row and column (ceil mode)
    assert block(tt.Tensor(x[1:2, :7, :5])).shape == (1, 4, 3, 2)


def test_two_vgg_blocks_quarter_time():
    b1 = VggBlock(1, 2, RNG, dtype=np.float64)
    b2 = VggBlock(2, 2, RNG, dtype=np.float64)
    x = tt.Tensor(RNG.normal(0, 1, (1, 100, 8, 1)))
    assert b2(b1(x)).shape[1] == 25


def test_vgg_block_grads():
    block = VggBlock(1, 2, RNG, dtype=np.float64)
    x = tt.Tensor(RNG.normal(0, 1, (1, 4, 4, 1)), requires_grad=True)

    def loss():
        y = block(x)
        return tt.sum_(tt.mul(y, y))

    check(loss, [x] + block.params())


def test_embedding_lookup_and_grads():
    emb = Embedding(5, 3, RNG, dtype=np.float64)
    ids = np.array([1, 4, 1])
    y = emb(ids)
    assert np.allclose(y.data, emb.table.data[ids])
    check(lambda: tt.sum_(tt.mul(emb(ids), emb(ids))), [emb.table])


def test_embedding_rows_that_recur_get_their_summed_gradient():
    # a token that recurs in a batch takes the sum of its rows' gradients,
    # added in batch order
    emb = Embedding(5, 3, RNG, dtype=np.float64)
    ids = np.array([1, 3, 1, 1])
    g = RNG.normal(0, 1, (4, 3))
    tt.sum_(tt.mul(emb(ids), tt.Tensor(g))).backward()
    expected = np.zeros((5, 3))
    expected[1] = ((0.0 + g[0]) + g[2]) + g[3]
    expected[3] = 0.0 + g[1]
    assert emb.table.grad.tobytes() == expected.tobytes()


def test_stats_pooling_constant_input_zero_std():
    pool = StatsPooling(radius=3)
    x = tt.Tensor(np.full((6, 2), 0.7))
    y = pool(x)
    assert y.shape == (6, 6)
    assert np.allclose(y.data[:, 2:4], 0.7)  # windowed mean
    assert np.all(y.data[:, 4:] == 0.0)  # stddev exactly zero


def test_stats_pooling_grads():
    pool = StatsPooling(radius=2)
    x = tt.Tensor(RNG.normal(0, 1, (5, 2)), requires_grad=True)
    check(lambda: tt.sum_(tt.mul(pool(x), pool(x))), [x])


def test_named_params_paths():
    layer = Blstm(2, 3, RNG)
    names = [n for n, _ in layer.named_params()]
    assert "fw.cell.w" in names and "bw.cell.b" in names


def test_state_dict_roundtrip():
    a = Blstm(2, 3, np.random.default_rng(1))
    b = Blstm(2, 3, np.random.default_rng(2))
    b.load_state_dict(a.state_dict())
    for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        assert np.array_equal(pa.data, pb.data)
    with pytest.raises(ValueError):
        b.load_state_dict({"nope": np.zeros(2)})
