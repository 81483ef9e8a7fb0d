"""Unit tests for the engine's numpy compute path in its two float dtypes.

Three concerns:

* engine dtype resolution: a solver's ``dtype`` option, then the
  ``QROSS_ENGINE_DTYPE`` environment variable, then the float64 reference;
* the coefficient operators in both dtypes (dense and CSR), checked against
  float64 arithmetic on the model's own coefficients, and their memoisation
  per dtype;
* the end-to-end float32 path: solvers run green in single precision and
  report energies re-scored against the exact float64 model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.qubo.model import DenseOperator, SparseOperator, random_qubo
from repro.service import SolverRegistry
from repro.solvers.engine import (
    DTYPE_ENV,
    AnnealingState,
    resolve_engine_dtype,
    validate_engine_dtype,
)
from repro.solvers.simulated_annealing import SimulatedAnnealingConfig


class TestRegistryAndResolution:
    """The solver registry's ``dtype`` option, and how one engine call
    resolves its dtype: the option, then ``QROSS_ENGINE_DTYPE``, then the
    float64 reference."""

    def test_builtin_backends_are_registered(self):
        registry = SolverRegistry.default()
        with_dtype = {
            name for name in registry.names() if "dtype" in registry.backend(name).option_names()
        }
        assert {"sa", "da", "pt", "tabu", "qbsolv", "qa"} <= with_dtype

    def test_validate_engine_dtype(self):
        assert validate_engine_dtype(None) is None
        assert validate_engine_dtype("float32") == "float32"
        with pytest.raises(ValueError, match="float16"):
            validate_engine_dtype("float16")
        with pytest.raises(ValueError, match="float16"):
            SimulatedAnnealingConfig(dtype="float16")

    def test_resolution_defaults_to_the_reference(self, monkeypatch):
        monkeypatch.delenv(DTYPE_ENV, raising=False)
        assert resolve_engine_dtype() == np.float64

    def test_resolution_reads_the_env_knobs(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        assert resolve_engine_dtype() == np.float32

    def test_explicit_arguments_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        assert resolve_engine_dtype("float64") == np.float64

    def test_instances_are_cached_per_dtype(self):
        # The model memoises one operator per dtype.
        model = random_qubo(8, rng=0)
        default = model.operator()
        assert model.operator("float64") is default
        single = model.operator(dtype="float32")
        assert single is not default and single is model.operator("float32")
        assert single.right_multiply(np.ones((1, 8), dtype=np.float32)).dtype == np.float32
        assert AnnealingState(model, 2, rng=0, dtype="float64").op is default


class TestNumpyReferenceBackend:
    """The engine computes on numpy; float64 is the reference dtype."""

    def test_float32_backend_casts(self):
        # Float32 draws are the float64 draws, cast: both dtypes consume the
        # same random stream.
        state = AnnealingState(random_qubo(4, rng=0), 2, rng=0, dtype="float32")
        drawn = state.uniforms(np.random.default_rng(7), (2, 3))
        assert drawn.dtype == np.float32
        np.testing.assert_array_equal(
            drawn, np.random.default_rng(7).random((2, 3)).astype(np.float32)
        )


class TestBackendOperators:
    """The dense and CSR operators, in each dtype, against float64 arithmetic
    on the model's coefficients."""

    @pytest.fixture()
    def sparse_model(self):
        return random_qubo(600, density=0.02, rng=3, storage="sparse")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_dense_operator_matches_host(self, dtype):
        model = random_qubo(10, rng=1)
        Q = np.asarray(model.dense_Q())
        op = DenseOperator(Q, dtype)
        X = np.random.default_rng(0).integers(0, 2, size=(3, 10)).astype(dtype)
        rtol = 1e-12 if dtype == "float64" else 1e-5
        assert op.right_multiply(X).dtype == np.dtype(dtype)
        np.testing.assert_allclose(op.right_multiply(X), X @ Q, rtol=rtol)
        idx = np.array([1, 4, 7])
        np.testing.assert_allclose(op.rows(idx), Q[idx], rtol=rtol)
        np.testing.assert_allclose(op.row(2), Q[2], rtol=rtol)
        np.testing.assert_allclose(op.diag, np.diag(Q), rtol=rtol)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_sparse_operator_matches_host(self, sparse_model, dtype):
        op = SparseOperator(sparse_model.sparse_Q(), dtype)
        # The CSR operator steers with single-precision coefficients in
        # either dtype; the reference is float64 arithmetic on those values.
        Q = sparse_model.sparse_Q().toarray().astype(np.float32).astype(np.float64)
        X = np.random.default_rng(1).integers(0, 2, size=(2, 600)).astype(dtype)
        rtol = 1e-12 if dtype == "float64" else 1e-4
        assert op.right_multiply(X).dtype == np.dtype(dtype)
        np.testing.assert_allclose(op.right_multiply(X), X @ Q, rtol=rtol, atol=1e-5)
        idx = np.array([0, 17, 599, 17])
        assert op.rows(idx).dtype == np.dtype(dtype)
        np.testing.assert_array_equal(op.rows(idx), Q[idx].astype(dtype))
        np.testing.assert_array_equal(op.row(42), Q[42].astype(dtype))
        dX = np.random.default_rng(2).normal(size=(2, 4)).astype(dtype)
        np.testing.assert_allclose(
            op.block_product(dX, idx), dX @ Q[idx], rtol=rtol, atol=1e-5
        )

    def test_annealing_state_on_float32(self):
        model = random_qubo(16, rng=4)
        state = AnnealingState(model, 3, rng=np.random.default_rng(0), dtype="float32")
        assert state.X.dtype == np.float32
        assert state.H.dtype == np.float32
        # Energies agree with the exact model within float32 tolerance.
        exact = model.energies(state.X.astype(np.float64))
        np.testing.assert_allclose(state.current_energies, exact, rtol=1e-5, atol=1e-4)


class TestSparseRandomQubo:
    def test_sparse_generator_never_densifies(self):
        model = random_qubo(700, density=0.01, rng=9, storage="sparse")
        assert model.storage == "sparse"

    def test_density_is_close_to_target(self):
        model = random_qubo(1000, density=0.05, rng=2, storage="sparse")
        # Duplicate draws coalesce, so realised density is slightly below the
        # target; it must land in the right neighbourhood.
        assert 0.03 <= model.density() <= 0.055

    def test_sparse_generator_is_seeded(self):
        a = random_qubo(300, density=0.05, rng=7, storage="sparse")
        b = random_qubo(300, density=0.05, rng=7, storage="sparse")
        assert a.fingerprint() == b.fingerprint()

    def test_dense_path_is_unchanged_by_the_new_parameter(self):
        a = random_qubo(20, density=0.5, rng=11)
        b = random_qubo(20, density=0.5, rng=11, storage="dense")
        assert a.fingerprint() == b.fingerprint()

    def test_rejects_unknown_storage(self):
        with pytest.raises(ValueError, match="unknown storage"):
            random_qubo(10, storage="coo")

    def test_sparse_model_solves(self):
        from repro.service import make_solver

        model = random_qubo(520, density=0.03, rng=1, storage="sparse")
        result = make_solver("sa?num_sweeps=3").sample(
            model, num_reads=2, rng=np.random.default_rng(0)
        )
        assert result.assignments.shape == (2, 520)


# --------------------------------------------------------------------------
# Float32 parity: the full solver stack runs green in single precision, and
# reported energies stay exact (re-scored against the float64 model).
# --------------------------------------------------------------------------


class TestFloat32Path:
    def test_sa_float32_energies_are_exact_rescored(self):
        model = random_qubo(14, rng=6)
        from repro.service import make_solver

        result = make_solver("sa?num_sweeps=8&dtype=float32").sample(
            model, num_reads=4, rng=np.random.default_rng(3)
        )
        np.testing.assert_array_equal(
            result.energies, model.energies(result.assignments.astype(np.float64))
        )

    def test_env_knob_selects_float32(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        model = random_qubo(10, rng=8)
        state = AnnealingState(model, 2, rng=np.random.default_rng(0))
        assert state.X.dtype == np.float32

    def test_config_beats_env_knob(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        assert resolve_engine_dtype("float64") == np.float64
        state = AnnealingState(random_qubo(10, rng=8), 2, rng=0, dtype="float64")
        assert state.X.dtype == np.float64
