"""Autograd engine: op-level gradients against central finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import run_at_blas_threads
from imsk.nn import tensor as tt
from imsk.nn.gradcheck import check_gradients

RNG = np.random.default_rng(703)
TOL = 1e-6


def t64(shape, scale=1.0):
    return tt.Tensor(RNG.normal(0, scale, shape).astype(np.float64), requires_grad=True)


def check(loss_fn, tensors, tol=TOL):
    report = check_gradients(loss_fn, tensors)
    assert report.passed(tol), report.per_tensor


def test_add_mul_broadcast_grads():
    a = t64((3, 4))
    b = t64((4,))
    check(lambda: tt.sum_(tt.mul(tt.add(a, b), tt.add(a, b))), [a, b])


def test_div_grads():
    a = t64((5,))
    b = tt.Tensor(RNG.uniform(0.5, 2.0, (5,)), requires_grad=True)
    check(lambda: tt.sum_(tt.div(a, b)), [a, b])


def test_matmul_grads():
    a = t64((3, 4))
    w = t64((4, 2))
    check(lambda: tt.sum_(tt.mul(tt.matmul(a, w), tt.matmul(a, w))), [a, w])


@pytest.mark.parametrize("w_shape", [(4, 2), (3, 4, 2), (1, 4, 2)])
def test_stacked_matmul_grads(w_shape):
    a = t64((3, 5, 4))
    w = t64(w_shape)
    check(lambda: tt.sum_(tt.mul(tt.matmul(a, w), tt.matmul(a, w))), [a, w])


def test_matmul_rejects_bad_shapes():
    bad = [
        ((3, 4), (3, 4)),
        ((3, 4), (1, 4, 2)),
        ((2, 3, 4), (3, 4, 2)),
        ((2, 3, 4), (2, 5, 2)),
        ((4,), (4, 2)),
        ((3, 4), (4,)),
        ((1, 2, 3, 4), (4, 2)),
    ]
    for a_shape, b_shape in bad:
        with pytest.raises(ValueError):
            tt.matmul(t64(a_shape), t64(b_shape))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 10),
    m=st.integers(0, 6),
    i=st.integers(1, 300),
    o=st.integers(1, 600),
    per_item=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_matmul_items_do_not_depend_on_other_items(n, m, i, o, per_item, seed, data):
    # m = 0 draws 2-D (N, I) rows, otherwise (N, M, I) items
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m, i) if m else (n, i))
    b = rng.normal(size=(n, i, o) if m and per_item else (i, o))
    items = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
    full = tt.matmul(tt.Tensor(a), tt.Tensor(b)).data
    part = tt.matmul(tt.Tensor(a[items]), tt.Tensor(b[items] if b.ndim == 3 else b)).data
    assert np.array_equal(full[items], part)


def test_constant_blocks_only_large_matrices():
    w = tt.BLOCK_COLUMNS
    rng = np.random.default_rng(4)
    for shape, dtype, blocks in [
        ((256, 1024), np.float64, None),  # exactly BLOCK_MIN_BYTES
        ((257, 1024), np.float64, (8, 257, w)),
        ((832, 3 * w), np.float64, (3, 832, w)),
        ((1024, 1024), np.float32, (8, 1024, w)),
        ((512, 1024), np.float32, None),
        ((832, 500), np.float64, None),  # O not a multiple of the width
        ((4, 512, 1024), np.float64, None),
    ]:
        data = rng.normal(size=shape).astype(dtype)
        t = tt.constant(data)
        assert t.data is data and not t.requires_grad
        if blocks is None:
            assert type(t) is tt.Tensor
            continue
        assert isinstance(t, tt.BlockedMatrix) and t._blocks is None  # until first used
        assert t.blocks.shape == blocks and t.blocks is t.blocks
        assert t.blocks.flags.c_contiguous and t.blocks.dtype == dtype
        assert np.array_equal(np.concatenate(t.blocks, axis=1), data)
        # stacked items go through the item path, not the blocks
        items = rng.normal(size=(3, 2, shape[0])).astype(dtype)
        assert np.array_equal(tt.matmul(tt.Tensor(items), t).data, np.matmul(items, data))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 100),
    i=st.sampled_from([1, 5, 64, 255, 256, 257, 512, 832]),
    o=st.sampled_from([128, 256, 384, 500, 1000, 1023, 1024, 1025, 1100, 1152]),
    direct=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(n=80, i=832, o=1024, direct=False, seed=0)
@example(n=80, i=512, o=1024, direct=False, seed=1)
@example(n=37, i=832, o=500, direct=False, seed=2)
@example(n=100, i=257, o=1152, direct=False, seed=3)
@example(n=1, i=256, o=1024, direct=False, seed=4)
def check_blocked_product_equals_per_row(n, i, o, direct, seed):
    """Rows against a matrix from `constant` (in column blocks above the
    size threshold) or, with `direct`, against any BlockedMatrix equal the
    per-row product bit for bit; subsets and permutations of the rows give
    the same rows. Run at fixed BLAS thread counts by the test below."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, i)), rng.normal(size=(i, o))
    per_row = np.matmul(a[:, None, :], b)[:, 0]
    w = tt.BlockedMatrix(b) if direct and o % tt.BLOCK_COLUMNS == 0 else tt.constant(b)
    full = tt.matmul(tt.Tensor(a), w).data
    assert np.array_equal(full, per_row), (n, i, o, type(w).__name__)
    rows = rng.permutation(n)[: rng.integers(1, n + 1)]
    assert np.array_equal(tt.matmul(tt.Tensor(a[rows]), w).data, full[rows])


@pytest.mark.parametrize("threads", [1, 2])
def test_blocked_product_equals_per_row(threads):
    run_at_blas_threads(threads, "test_tensor.check_blocked_product_equals_per_row")


@pytest.mark.parametrize("op", [tt.tanh, tt.sigmoid, tt.exp])
def test_unary_grads(op):
    a = t64((4, 3), scale=0.5)
    check(lambda: tt.sum_(tt.mul(op(a), op(a))), [a])


def tanh_addmm_composed(a, x, w, c):
    return tt.tanh(tt.add(tt.add(a, tt.matmul(x, w)), c))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    t=st.integers(1, 40),
    k=st.integers(1, 10),
    o=st.integers(1, 70),
    shared=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
@example(n=20, t=60, k=4, o=64, shared=True, dtype=np.float64, seed=0)
@example(n=8, t=60, k=4, o=64, shared=False, dtype=np.float32, seed=1)
def test_tanh_addmm_equals_the_composition(n, t, k, o, shared, dtype, seed):
    # values and every parent's gradient, bit for bit, with `a` of one
    # item shared by all (as in decoding) or one per item (training)
    rng = np.random.default_rng(seed)
    shapes = ((1 if shared else n, t, o), (n, t, k), (k, o), (n, 1, o))
    data = [rng.normal(0, 0.5, shape).astype(dtype) for shape in shapes]
    r = tt.Tensor(rng.normal(0, 1, (n, t, o)).astype(dtype))
    results = []
    for op in (tt.tanh_addmm, tanh_addmm_composed):
        inputs = [tt.Tensor(d.copy(), requires_grad=True) for d in data]
        out = op(*inputs)
        tt.sum_(tt.mul(out, r)).backward()
        results.append([out.data] + [p.grad for p in inputs])
    fused, composed = results
    assert fused[0].dtype == dtype
    for f, c in zip(fused, composed):
        assert np.array_equal(f, c)


def test_tanh_addmm_grads():
    a, x, w, c = t64((1, 6, 5), 0.5), t64((3, 6, 4), 0.5), t64((4, 5), 0.5), t64((3, 1, 5), 0.5)
    check(lambda: tt.sum_(tt.mul(tt.tanh_addmm(a, x, w, c), tt.tanh_addmm(a, x, w, c))),
          [a, x, w, c])


def test_tanh_addmm_rejects_mixed_dtypes():
    a, x, w = t64((1, 3, 2)), t64((2, 3, 4)), t64((4, 2))
    with pytest.raises(ValueError, match="dtypes"):
        tt.tanh_addmm(a, x, w, tt.Tensor(np.zeros((2, 1, 2), dtype=np.float32)))


def test_log_grads():
    a = tt.Tensor(RNG.uniform(0.2, 3.0, (6,)), requires_grad=True)
    check(lambda: tt.sum_(tt.log(a)), [a])


def test_relu_grad_away_from_kink():
    a = tt.Tensor(np.array([-1.0, -0.4, 0.3, 2.0]), requires_grad=True)
    check(lambda: tt.sum_(tt.mul(tt.relu(a), tt.relu(a))), [a])


def test_log_softmax_rows_normalize_and_grads():
    a = t64((3, 5))
    y = tt.log_softmax(a)
    assert np.allclose(np.exp(y.data).sum(axis=-1), 1.0, atol=1e-12)
    w = tt.Tensor(RNG.normal(0, 1, (3, 5)))
    check(lambda: tt.sum_(tt.mul(tt.log_softmax(a), w)), [a])


def test_sum_axis_keepdims_grads():
    a = t64((2, 3, 4))
    check(lambda: tt.sum_(tt.mul(tt.sum_(a, axis=1, keepdims=True), tt.sum_(a, axis=1, keepdims=True))), [a])


def test_mean_matches_manual():
    a = t64((4, 5))
    m = tt.mean_(a, axis=0)
    assert np.allclose(m.data, a.data.mean(axis=0))
    check(lambda: tt.sum_(tt.mul(tt.mean_(a, axis=0), tt.mean_(a, axis=0))), [a])


def test_reshape_transpose_concat_stack_grads():
    a = t64((2, 6))
    b = t64((2, 6))

    def loss():
        x = tt.reshape(a, (3, 4))
        y = tt.transpose(tt.reshape(b, (4, 3)), (1, 0))
        z = tt.concat([x, y], axis=0)
        s = tt.stack([tt.sum_(z, axis=0), tt.sum_(tt.mul(z, z), axis=0)], axis=0)
        return tt.sum_(tt.mul(s, s))

    check(loss, [a, b])


def test_take_with_slices_and_arrays():
    a = t64((5, 4))
    idx = np.array([0, 2, 2, 4])

    def loss():
        picked = tt.take(a, idx)
        sliced = tt.take(a, (slice(1, 3), slice(None)))
        return tt.sum_(tt.mul(picked, picked)) + tt.sum_(sliced)

    check(loss, [a])


def test_sqrt_clamped_value_and_grad():
    a = tt.Tensor(RNG.uniform(0.5, 2.0, (6,)), requires_grad=True)
    check(lambda: tt.sum_(tt.sqrt_clamped(a)), [a])
    z = tt.sqrt_clamped(tt.Tensor(np.array([-1e-18, 0.0, 4.0])))
    assert z.data[0] == 0.0 and z.data[1] == 0.0 and z.data[2] == 2.0


def test_conv2d_grads():
    x = t64((2, 5, 4, 3), scale=0.5)
    w = t64((3, 3, 3, 2), scale=0.5)
    b = t64((2,))
    check(lambda: tt.sum_(tt.mul(tt.conv2d(x, w, b), tt.conv2d(x, w, b))), [x, w, b], tol=1e-6)


def test_conv2d_channel_mismatch():
    with pytest.raises(ValueError):
        tt.conv2d(t64((1, 4, 4, 2)), t64((3, 3, 3, 1)))


def test_maxpool_ceil_shapes_and_constant():
    x = tt.Tensor(np.full((1, 5, 3, 2), 1.5))
    y = tt.maxpool2d_ceil(x)
    assert y.shape == (1, 3, 2, 2)
    assert np.all(y.data == 1.5)


def test_maxpool_grads():
    x = t64((2, 6, 4, 2))
    check(lambda: tt.sum_(tt.mul(tt.maxpool2d_ceil(x), tt.maxpool2d_ceil(x))), [x])


def test_conv1d_grads():
    x = t64((2, 7))
    w = t64((5, 3), scale=0.5)
    check(lambda: tt.sum_(tt.mul(tt.conv1d_single_channel(x, w), tt.conv1d_single_channel(x, w))), [x, w])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 10),
    T=st.integers(1, 80),
    K=st.sampled_from([1, 11, 31, 201]),
    C=st.sampled_from([1, 4, 10]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_conv1d_rows_do_not_depend_on_other_rows(n, T, K, C, seed, data):
    rng = np.random.default_rng(seed)
    x, w = tt.Tensor(rng.dirichlet(np.ones(T), size=n)), tt.Tensor(rng.normal(size=(K, C)))
    rows = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
    full = tt.conv1d_single_channel(x, w).data
    assert np.array_equal(full[rows], tt.conv1d_single_channel(tt.take(x, rows), w).data)


def test_windowed_sum_values_and_grads():
    x = t64((7, 2))
    y = tt.windowed_sum(x, 2)
    # brute-force the clamped window sum
    manual = np.stack(
        [x.data[max(0, t - 2) : min(7, t + 3)].sum(axis=0) for t in range(7)]
    )
    assert np.allclose(y.data, manual, atol=1e-12)
    check(lambda: tt.sum_(tt.mul(tt.windowed_sum(x, 2), tt.windowed_sum(x, 2))), [x])


def test_window_counts():
    assert list(tt.window_counts(5, 1)) == [2, 3, 3, 3, 2]


def test_backward_requires_scalar():
    a = t64((3,))
    with pytest.raises(ValueError):
        tt.mul(a, a).backward()


def test_grad_accumulates_over_reuse():
    a = tt.Tensor(np.array([2.0]), requires_grad=True)
    y = tt.add(tt.mul(a, a), tt.mul(a, a))  # 2a^2
    tt.sum_(y).backward()
    assert np.allclose(a.grad, [8.0])


def test_deep_chain_no_recursion_limit():
    a = tt.Tensor(np.array([0.5]), requires_grad=True)
    x = a
    for _ in range(5000):
        x = tt.mul(x, tt.Tensor(np.array([1.0])))
    tt.sum_(x).backward()
    assert np.allclose(a.grad, [1.0])
