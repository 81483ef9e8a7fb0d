"""Unit tests for the shared annealing engine and the Q operator backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems.mvc.generator import RandomMVCConfig, generate_mvc_instance
from repro.problems.mvc.qubo import MVCProblem
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import (
    SPARSE_DENSITY_THRESHOLD,
    SPARSE_MIN_VARIABLES,
    DenseOperator,
    QUBOModel,
    SparseOperator,
    random_qubo,
)
from repro.solvers.digital_annealer import DigitalAnnealerConfig, DigitalAnnealerSolver
from repro.solvers.engine import (
    AnnealingState,
    default_block_size,
    metropolis_accept,
    resolve_engine_dtype,
)
from repro.solvers.simulated_annealing import SimulatedAnnealingConfig, SimulatedAnnealingSolver
from repro.solvers.tabu import TabuSearchConfig, TabuSearchSolver


class TestOperatorSelection:
    def test_small_models_stay_dense(self):
        model = random_qubo(16, density=0.05, rng=0)
        assert model.operator().kind == "dense"

    def test_large_sparse_models_get_csr(self):
        model = random_qubo(SPARSE_MIN_VARIABLES, density=0.05, rng=0)
        assert model.operator().kind == "sparse"

    def test_large_dense_models_stay_dense(self):
        model = random_qubo(SPARSE_MIN_VARIABLES, density=1.0, rng=0)
        assert model.density() > SPARSE_DENSITY_THRESHOLD
        assert model.operator().kind == "dense"

    def test_sparse_and_dense_agree(self):
        model = random_qubo(40, density=0.15, rng=5)
        dense = DenseOperator(model.dense_Q())
        sparse = SparseOperator(model.sparse_Q())
        X = np.random.default_rng(0).integers(0, 2, size=(6, 40)).astype(np.float64)
        np.testing.assert_allclose(
            sparse.right_multiply(X), dense.right_multiply(X), rtol=1e-5, atol=1e-5
        )
        idx = np.array([3, 17, 3, 39])
        np.testing.assert_allclose(sparse.rows(idx), dense.rows(idx), rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(sparse.diag, dense.diag, rtol=1e-6)
        block = np.array([1, 8, 21])
        dX = np.random.default_rng(1).normal(size=(6, 3))
        np.testing.assert_allclose(
            sparse.block_product(dX, block), dense.block_product(dX, block), rtol=1e-5, atol=1e-5
        )


def _state_tols() -> dict:
    """Exactness tolerances for engine-state invariants under the ambient
    engine dtype: float64 states track the model to round-off; under the
    ``QROSS_ENGINE_DTYPE=float32`` CI canary the same invariants hold at
    single precision."""
    if resolve_engine_dtype() == np.float32:
        return {"rtol": 1e-4, "atol": 1e-3}
    return {"rtol": 1e-9, "atol": 1e-9}


class TestAnnealingState:
    def test_initial_energies_match_model(self):
        model = random_qubo(20, rng=1)
        state = AnnealingState(model, 5, rng=np.random.default_rng(0))
        np.testing.assert_allclose(
            state.current_energies, model.energies(state.X), **_state_tols()
        )

    def test_flip_deltas_match_local_fields(self):
        model = random_qubo(15, rng=2)
        state = AnnealingState(model, 4, rng=np.random.default_rng(3))
        np.testing.assert_allclose(
            state.flip_deltas(), model.local_fields(state.X), **_state_tols()
        )
        cols = np.array([0, 7, 14])
        np.testing.assert_allclose(
            state.flip_deltas(cols), model.local_fields(state.X)[:, cols], **_state_tols()
        )

    def test_single_flips_keep_state_exact(self):
        model = random_qubo(12, rng=4)
        rng = np.random.default_rng(9)
        state = AnnealingState(model, 3, rng=rng)
        for _ in range(50):
            cols = rng.integers(0, 12, size=3)
            rows = np.arange(3)
            delta = state.flip_deltas()[rows, cols]
            state.apply_single_flips(rows, cols, delta)
        np.testing.assert_allclose(state.H, state.X @ np.asarray(model.Q), **_state_tols())
        np.testing.assert_allclose(
            state.current_energies, model.energies(state.X), **_state_tols()
        )

    def test_block_flips_keep_fields_exact(self):
        model = random_qubo(18, rng=6)
        rng = np.random.default_rng(2)
        state = AnnealingState(model, 4, rng=rng)
        block = np.array([2, 5, 11, 16])
        assert state.metropolis_block(block, 1.0, rng.random((4, 4))) > 0
        state.refresh_energies()
        np.testing.assert_allclose(state.H, state.X @ np.asarray(model.Q), **_state_tols())
        np.testing.assert_allclose(
            state.current_energies, model.energies(state.X), **_state_tols()
        )

    def test_sparse_backend_matches_dense_trajectory(self, monkeypatch):
        model = random_qubo(30, density=0.2, rng=8)
        x0 = np.random.default_rng(1).integers(0, 2, size=(2, 30)).astype(np.float64)
        dense = AnnealingState(model, 2, initial_states=x0)
        assert isinstance(dense.op, DenseOperator)
        # Hand the state a CSR operator over the same coefficients.
        monkeypatch.setattr(
            model, "operator", lambda dtype: SparseOperator(model.sparse_Q(), dtype)
        )
        sparse = AnnealingState(model, 2, initial_states=x0)
        np.testing.assert_allclose(sparse.current_energies, dense.current_energies, rtol=1e-5)
        np.testing.assert_allclose(sparse.flip_deltas(), dense.flip_deltas(), rtol=1e-4, atol=1e-4)

    def test_reset_replicas_restores_consistency(self):
        model = random_qubo(10, rng=3)
        state = AnnealingState(model, 4, rng=np.random.default_rng(0))
        mask = np.array([True, False, True, False])
        new_states = np.random.default_rng(5).integers(0, 2, size=(2, 10)).astype(np.float64)
        state.reset_replicas(mask, new_states)
        np.testing.assert_allclose(
            state.current_energies, model.energies(state.X), **_state_tols()
        )

    def test_update_best_tracks_minimum(self):
        model = QUBOModel(np.diag([-1.0, 2.0]))
        state = AnnealingState(model, 1, initial_states=np.array([[0.0, 0.0]]))
        assert state.best_energies[0] == pytest.approx(0.0)
        delta = state.flip_deltas()[np.array([0]), np.array([0])]
        state.apply_single_flips(np.array([0]), np.array([0]), delta)
        assert state.update_best()[0]
        assert state.best_energies[0] == pytest.approx(-1.0)
        # Flip variable 1 (uphill): best must stay at -1.
        delta = state.flip_deltas()[np.array([0]), np.array([1])]
        state.apply_single_flips(np.array([0]), np.array([1]), delta)
        assert not state.update_best()[0]
        assert state.best_energies[0] == pytest.approx(-1.0)
        np.testing.assert_array_equal(state.best_X[0], [1.0, 0.0])

    def test_initial_states_validated(self):
        model = random_qubo(5, rng=0)
        with pytest.raises(ValueError):
            AnnealingState(model, 2, initial_states=np.zeros((3, 5)))


class TestMetropolisAccept:
    def test_downhill_always_accepted(self):
        delta = np.array([-1.0, 0.0, 2.0])
        accept = metropolis_accept(delta, 0.0, np.zeros(3))
        np.testing.assert_array_equal(accept, [True, True, False])

    def test_uphill_accepted_by_boltzmann(self):
        delta = np.array([1.0])
        p = np.exp(-1.0 / 2.0)
        assert metropolis_accept(delta, 2.0, np.array([p * 0.99]))[0]
        assert not metropolis_accept(delta, 2.0, np.array([p * 1.01]))[0]

    def test_default_block_size_bounds(self):
        assert default_block_size(4) == 1
        assert default_block_size(256) == 32
        assert default_block_size(10_000) == 64


class TestSeedParity:
    """The engine-based solvers must match or beat the pre-refactor (serial)
    implementations' best energies on small instances with the same seeds.

    The reference numbers were recorded by running the seed implementations
    (commit 1137920) with ``num_reads=8, rng=42`` and the configs below; all
    three seed solvers reached the same best energy on each instance.
    """

    SEED_BEST = {
        "tsp6": 242.61617134676135,
        "mvc12": 3.234025120468292,
        "rand30": -111.50412331446037,
        "sparse60": -45.45162045683809,
    }

    @staticmethod
    def _models():
        tsp = TSPProblem(generate_instance(6, rng=7, name="parity-tsp6"))
        mvc = MVCProblem(
            generate_mvc_instance(RandomMVCConfig(num_vertices=12, edge_probability=0.3), rng=11)
        )
        return {
            "tsp6": tsp.build_qubo(tsp.relaxation_scale()),
            "mvc12": mvc.build_qubo(mvc.relaxation_scale()),
            "rand30": random_qubo(30, rng=7),
            "sparse60": random_qubo(60, density=0.1, rng=21),
        }

    @pytest.mark.parametrize(
        "make_solver",
        [
            lambda: SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=100)),
            lambda: DigitalAnnealerSolver(DigitalAnnealerConfig(steps_per_variable=20)),
            lambda: TabuSearchSolver(TabuSearchConfig(num_steps=300)),
        ],
        ids=["sa", "da", "tabu"],
    )
    def test_matches_or_beats_seed_best_energy(self, make_solver):
        solver = make_solver()
        for key, model in self._models().items():
            best = solver.sample(model, num_reads=8, rng=42).best.energy
            assert best <= self.SEED_BEST[key] + 1e-9, (
                f"{solver.name} on {key}: {best} worse than seed {self.SEED_BEST[key]}"
            )
