"""Exactness of the CSR operator's local-field kernels.

A flip changes a state by ``dx`` in {-1, 0, +1}, so every term of a
local-field update is an exact product and a sum of terms is fixed by its
order alone.  The CSR kernels touch only the stored entries of the flipped
rows, and they must return what the dense arithmetic over gathered rows
returns: the same values (``np.array_equal``) for block products, the same
bytes in ``H``.  Seeded solver outputs on CSR models rest on that equality.

A block product sums each column's terms in block order, starting from
zero.  The operator rounds coefficients to float32, so in float64 a sum of
a few of them is exact in any order, and the float64 product equals the
GEMM ``dX @ op.rows(block)``.  In float32 the order shows, so it is the
contract: the float32 product is checked against the block-order sum
itself, not against a float32 GEMM, which need not sum in block order
(OpenBLAS 0.3.31's AVX-512 sgemm sums some of a product's last columns in
16 partial sums).  For the same reason only the float32 cases can tell a
kernel that sums in another order, or adds each term to ``H`` one at a
time, from this one.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.qubo.model import QUBOModel, random_qubo, stack_rows
from repro.solvers.engine import AnnealingState, metropolis_accept

N = 600
#: A row (and column) of :func:`csr_model` with no stored entries.
EMPTY_ROW = 5


def csr_model(seed: int) -> QUBOModel:
    """A CSR-regime model with one empty row, coefficients exact in float32.

    The operator rounds coefficients to float32 in either dtype; rounding
    them here first makes it exact, so the invariant checks below compare
    against the model at round-off tolerance.
    """
    Q = random_qubo(N, density=0.02, rng=seed, storage="sparse").sparse_Q().tolil()
    Q[EMPTY_ROW, :] = 0.0
    Q[:, EMPTY_ROW] = 0.0
    Q = sparse.csr_array(Q)
    Q.data = Q.data.astype(np.float32).astype(np.float64)
    model = QUBOModel(Q)
    assert model.is_sparse
    return model


@pytest.fixture(scope="module")
def models():
    return [csr_model(3), csr_model(4)]


def operator(models, dtype, stacked):
    """The first model's operator, or the row stack of both models'."""
    if stacked:
        return stack_rows([m.operator(dtype) for m in models])
    return models[0].operator(dtype)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def block_order_product(dX: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``dX @ rows``, each column summed term by term in block order from zero."""
    out = np.zeros((dX.shape[0], rows.shape[1]), dtype=rows.dtype)
    for k in range(rows.shape[0]):
        out += dX[:, k, None] * rows[k]
    return out


DTYPES = ["float64", "float32"]


def block_case(models, dtype, stacked, size):
    """An operator, a block holding :data:`EMPTY_ROW`, and flips of 16 states."""
    op = operator(models, dtype, stacked)
    num_rows = 2 * N if stacked else N
    rng = np.random.default_rng(size)
    block = rng.permutation(num_rows)[:size]
    block[0] = EMPTY_ROW
    assert not op.rows(block[:1]).any()
    dX = rng.integers(-1, 2, size=(16, size)).astype(dtype)
    return op, block, dX


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("size", [1, 64, 256])
def test_block_product_equals_gemm_over_gathered_rows(models, stacked, size):
    op, block, dX = block_case(models, "float64", stacked, size)
    assert np.array_equal(op.block_product(dX, block), dX @ op.rows(block))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("size", [1, 64, 256])
def test_block_product_sums_in_block_order(models, dtype, stacked, size):
    op, block, dX = block_case(models, dtype, stacked, size)
    product = op.block_product(dX, block)
    assert product.dtype == np.dtype(dtype)
    assert np.array_equal(product, block_order_product(dX, op.rows(block)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_single_flip_update_equals_dense_row_update(models, dtype, stacked):
    op = operator(models, dtype, stacked)
    num_rows = 2 * N if stacked else N
    rng = np.random.default_rng(7)
    H = models[0].operator(dtype).right_multiply(rng.integers(0, 2, size=(16, N)).astype(dtype))
    for _ in range(20):
        rows = rng.permutation(16)[:9]
        indices = rng.integers(0, num_rows, size=rows.size)
        indices[0] = EMPTY_ROW
        dx = rng.choice([-1.0, 1.0], size=rows.size).astype(dtype)
        expected = H.copy()
        expected[rows] += dx[:, None] * op.rows(indices)
        op.add_rows(H, rows, indices, dx)
        assert same_bytes(H, expected)
    # Scalar arguments update one row, as tabu's scalar kernel calls it.
    expected = H.copy()
    expected[3] += np.dtype(dtype).type(-1.0) * op.rows([11])[0]
    op.add_rows(H, 3, 11, np.dtype(dtype).type(-1.0))
    assert same_bytes(H, expected)


@pytest.mark.parametrize("dtype", DTYPES)
def test_block_flip_update_adds_the_block_product_to_h(models, dtype):
    # The block's terms are summed first and added to H once: adding them
    # to H one at a time rounds differently.
    state = AnnealingState(models[0], 16, rng=np.random.default_rng(2), dtype=dtype)
    temperature = float(np.median(np.abs(state.flip_deltas())))
    rng = np.random.default_rng(8)
    for _ in range(10):
        block = rng.permutation(N)[:64]
        uniforms = state.uniforms(rng, (16, 64))
        accept = metropolis_accept(state.flip_deltas(block), temperature, uniforms)
        X0, H0 = state.X.copy(), state.H.copy()
        state.metropolis_block(block, temperature, uniforms)
        active = accept.any(axis=0)
        cols = block[active]
        dX = np.where(accept[:, active], 1.0 - 2.0 * X0[:, cols], 0.0).astype(dtype)
        assert same_bytes(state.H, H0 + block_order_product(dX, state.op.rows(cols)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("num_models", [1, 2])
def test_local_fields_track_states_through_random_flips(models, dtype, num_models):
    group = models[:num_models]
    state = AnnealingState(
        group if num_models > 1 else group[0], 8,
        rng=[np.random.default_rng(k) for k in range(num_models)], dtype=dtype,
    )
    temperature = float(np.median(np.abs(state.flip_deltas())))
    rng = np.random.default_rng(11)
    for step in range(40):
        if step % 2:
            rows = np.flatnonzero(rng.random(state.num_reads) < 0.5)
            cols = rng.integers(0, N, size=rows.size)
            state.apply_single_flips(rows, cols, state.flip_deltas()[rows, cols])
        else:
            block = rng.permutation(N)[:48]
            state.metropolis_block(block, temperature, state.uniforms(rng, (state.num_reads, 48)))
            state.refresh_energies()
    tols = {"rtol": 1e-9, "atol": 1e-9} if dtype == "float64" else {"rtol": 1e-4, "atol": 1e-3}
    for g, model in enumerate(group):
        rows = slice(g * 8, (g + 1) * 8)
        X = state.X[rows]
        np.testing.assert_allclose(state.H[rows], model.operator(dtype).right_multiply(X), **tols)
        np.testing.assert_allclose(
            state.current_energies[rows], model.energies(X.astype(np.float64)), **tols
        )
