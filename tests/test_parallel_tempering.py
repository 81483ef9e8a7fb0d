"""Tests for the parallel-tempering solver and the engine primitives it
rides on (per-replica Metropolis, ladder swaps, adaptive blocks).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.qubo.model import QUBOModel, random_qubo
from repro.service.registry import SolverRegistry, make_solver
from repro.solvers.engine import (
    BLOCK_GROW_BELOW,
    BLOCK_SHRINK_ABOVE,
    AdaptiveBlockSizer,
    AnnealingState,
    metropolis_accept,
    propose_ladder_swaps,
)
from repro.solvers.parallel_tempering import (
    ParallelTemperingConfig,
    ParallelTemperingSolver,
)
from repro.solvers.simulated_annealing import (
    SimulatedAnnealingConfig,
    SimulatedAnnealingSolver,
)


def brute_force_minimum(model: QUBOModel) -> float:
    n = model.num_variables
    states = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.int8)
    return float(model.energies(states).min())


# --------------------------------------------------------- engine primitives
class TestPerReplicaMetropolis:
    def test_array_temperature_matches_scalar_rows(self):
        rng = np.random.default_rng(0)
        delta = rng.normal(size=(4, 9))
        uniforms = rng.random((4, 9))
        temps = np.array([0.5, 2.0, 0.1, 7.0])
        batched = metropolis_accept(delta, temps, uniforms)
        for row, temperature in enumerate(temps):
            expected = metropolis_accept(delta[row], float(temperature), uniforms[row])
            np.testing.assert_array_equal(batched[row], expected)

    def test_zero_temperature_row_is_greedy(self):
        delta = np.array([[-1.0, 1e-12], [-1.0, 1e-12]])
        temps = np.array([0.0, 1e9])
        accept = metropolis_accept(delta, temps, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(accept[0], [True, False])
        np.testing.assert_array_equal(accept[1], [True, True])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="one entry per replica"):
            metropolis_accept(np.zeros((3, 2)), np.ones(2), np.zeros((3, 2)))

    def test_scalar_path_unchanged(self):
        # The scalar form is the one every pre-PT solver consumes; pin it.
        delta = np.array([-1.0, 0.0, 2.0])
        accept = metropolis_accept(delta, 0.0, np.zeros(3))
        np.testing.assert_array_equal(accept, [True, True, False])

    def test_float64_input_ignores_the_engine_dtype_setting(self, monkeypatch):
        # In float64, exp(-1 / 0.1) lies just below this uniform, so the move
        # is rejected.  A temperature rounded to float32 would accept it.
        delta = np.array([[1.0]])
        uniforms = np.array([[np.nextafter(np.exp(-10.0), np.inf)]])
        assert not metropolis_accept(delta, 0.1, uniforms)[0, 0]
        monkeypatch.setenv("QROSS_ENGINE_DTYPE", "float32")
        assert not metropolis_accept(delta, 0.1, uniforms)[0, 0]


class TestProposeLadderSwaps:
    def test_favourable_swap_always_accepted(self):
        # Cold rung (high beta) holds the higher energy -> log ratio > 0.
        energies = np.array([[5.0, 1.0]])
        betas = np.array([10.0, 1.0])
        accept = propose_ladder_swaps(energies, betas, 0, np.array([[0.999999]]))
        assert accept.shape == (1, 1) and accept[0, 0]

    def test_unfavourable_swap_needs_luck(self):
        energies = np.array([[1.0, 5.0]])
        betas = np.array([10.0, 1.0])  # log ratio = 9 * (-4) = -36
        assert not propose_ladder_swaps(energies, betas, 0, np.array([[0.5]]))[0, 0]

    def test_offset_one_pairs_middle_rungs(self):
        # Four rungs at offset 1 -> the single pair (1, 2), with
        # log ratio (beta_1 - beta_2)(E_1 - E_2) = (2 - 3)(3 - 2) = -1:
        # accepted exactly when log(u) < -1, i.e. u < e^-1.
        energies = np.tile([[4.0, 3.0, 2.0, 1.0]], (2, 1))
        betas = np.array([1.0, 2.0, 3.0, 4.0])
        unlucky = propose_ladder_swaps(energies, betas, 1, np.full((2, 1), 0.999999))
        lucky = propose_ladder_swaps(energies, betas, 1, np.full((2, 1), 0.1))
        assert unlucky.shape == (2, 1) and not unlucky.any()
        assert lucky.all()

    def test_zero_uniform_raises_no_warning(self):
        # log(0) = -inf accepts the swap without a divide-by-zero warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            accept = propose_ladder_swaps(
                np.array([[1.0, 5.0]]), np.array([10.0, 1.0]), 0, np.array([[0.0]])
            )
        assert accept[0, 0]

    def test_no_pairs_returns_empty_mask(self):
        accept = propose_ladder_swaps(np.zeros((3, 1)), np.array([1.0]), 0, np.zeros((3, 0)))
        assert accept.shape == (3, 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="uniforms"):
            propose_ladder_swaps(np.zeros((2, 4)), np.arange(1.0, 5.0), 0, np.zeros((2, 3)))


class TestAdaptiveBlockSizer:
    def test_grows_when_cold_and_shrinks_back_when_hot(self):
        sizer = AdaptiveBlockSizer(256)  # initial 32, cap 64
        assert sizer.block == 32
        assert sizer.update(0.0) == 64
        assert sizer.update(0.0) == 64  # capped
        assert sizer.update(0.9) == 32
        for _ in range(10):
            sizer.update(0.9)
        # Floored at the fixed heuristic: hot sweeps never regress below the
        # block the non-adaptive solver would have used.
        assert sizer.block == 32

    def test_mid_band_rate_keeps_block(self):
        sizer = AdaptiveBlockSizer(256)
        assert sizer.update(0.1) == 32

    def test_small_model_runs_between_one_and_a_quarter(self):
        # n = 8: the fixed heuristic's block is 1 and n // 4 caps growth at 2.
        sizer = AdaptiveBlockSizer(8)
        assert sizer.block == 1
        assert [sizer.update(0.0) for _ in range(3)] == [2, 2, 2]
        assert [sizer.update(0.9) for _ in range(2)] == [1, 1]

    def test_growth_is_capped_at_256(self):
        # n = 4096: the block starts at the heuristic's 64 and doubles to the
        # 256 cap, not to n // 4.
        sizer = AdaptiveBlockSizer(4096)
        assert sizer.block == 64
        assert [sizer.update(BLOCK_GROW_BELOW / 2) for _ in range(4)] == [128, 256, 256, 256]
        assert sizer.update(BLOCK_SHRINK_ABOVE) == 256  # the bands are strict
        assert sizer.update(BLOCK_GROW_BELOW) == 256
        assert sizer.update(1.0) == 128


# ------------------------------------------ one-column blocks (SA vs DA/tabu)
class TestOneColumnBlockParity:
    """A Metropolis block of one column must move a state exactly as the
    single-flip mutator that DA and tabu step with: SA's ``block_size=1``
    sweep and the single-flip solvers share one engine."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_block_step_agrees_with_single_flips(self, dtype):
        model = random_qubo(24, rng=3)
        x0 = np.random.default_rng(8).integers(0, 2, size=(5, 24)).astype(np.float64)
        single = AnnealingState(model, 5, initial_states=x0.copy(), dtype=dtype)
        block = AnnealingState(model, 5, initial_states=x0.copy(), dtype=dtype)

        rng = np.random.default_rng(11)
        flips = 0
        for _ in range(40):
            col = rng.integers(0, 24, size=1)
            before = block.X[:, col[0]].copy()
            accepted = block.metropolis_block(col, 1.0, block.uniforms(rng, (5, 1)))
            rows = np.nonzero(block.X[:, col[0]] != before)[0]
            assert accepted == rows.size
            deltas = single.flip_deltas(col)[rows, 0]
            single.apply_single_flips(rows, np.repeat(col, rows.size), deltas)
            assert np.array_equal(single.X, block.X)
            assert np.array_equal(single.H, block.H)
            flips += accepted
        block.refresh_energies()
        assert 0 < flips < 40 * 5
        assert np.array_equal(single.energies_from_fields(), block.current_energies)


# ------------------------------------------------------------------ PT solver
class TestParallelTemperingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_sweeps": 0},
            {"num_replicas": 0},
            {"swap_interval": 0},
            {"t_hot": -1.0},
            {"t_cold": 0.0},
            {"t_hot": 1.0, "t_cold": 2.0},
            {"block_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ParallelTemperingConfig(**kwargs)

    def test_ladder_is_geometric_between_endpoints(self):
        solver = ParallelTemperingSolver(
            ParallelTemperingConfig(num_replicas=5, t_hot=16.0, t_cold=1.0)
        )
        ladder = solver._ladder(random_qubo(8, rng=0))
        np.testing.assert_allclose(ladder, [16.0, 8.0, 4.0, 2.0, 1.0])

    def test_single_rung_ladder_runs_cold(self):
        solver = ParallelTemperingSolver(
            ParallelTemperingConfig(num_replicas=1, t_hot=16.0, t_cold=1.0)
        )
        np.testing.assert_allclose(solver._ladder(random_qubo(8, rng=0)), [1.0])

    def test_mixed_explicit_auto_inversion_raises(self):
        # Explicit t_cold above the model's auto-derived t_hot must raise,
        # exactly like the all-explicit inverted pair does at config time.
        solver = ParallelTemperingSolver(ParallelTemperingConfig(t_cold=1e9))
        with pytest.raises(ValueError, match="inverted"):
            solver.sample(random_qubo(8, rng=0), num_reads=1, rng=np.random.default_rng(0))

    def test_auto_ladder_from_model_scale(self):
        model = random_qubo(12, rng=5)
        ladder = ParallelTemperingSolver()._ladder(model)
        assert ladder.shape == (8,)
        assert ladder[0] > ladder[-1] > 0


class TestParallelTemperingSolver:
    def test_seeded_runs_byte_identical(self):
        model = random_qubo(20, rng=6)
        solver = make_solver("pt?num_sweeps=15&num_replicas=4&swap_interval=3")
        a = solver.sample(model, num_reads=3, rng=np.random.default_rng(42))
        b = solver.sample(model, num_reads=3, rng=np.random.default_rng(42))
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.energies, b.energies)

    def test_reaches_brute_force_optimum(self):
        model = random_qubo(10, rng=13)
        solver = ParallelTemperingSolver(
            ParallelTemperingConfig(num_sweeps=60, num_replicas=6, swap_interval=2)
        )
        samples = solver.sample(model, num_reads=2, rng=np.random.default_rng(1))
        assert samples.best.energy == pytest.approx(brute_force_minimum(model))

    def test_swaps_are_proposed_and_recorded(self):
        model = random_qubo(16, rng=4)
        solver = ParallelTemperingSolver(
            ParallelTemperingConfig(num_sweeps=20, num_replicas=4, swap_interval=2)
        )
        samples = solver.sample(model, num_reads=2, rng=np.random.default_rng(3))
        # 10 swap rounds; alternating parity over 4 rungs gives 2 or 1 pairs.
        assert samples.info["swaps_proposed"] == 2 * (5 * 2 + 5 * 1)
        assert 0 <= samples.info["swaps_accepted"] <= samples.info["swaps_proposed"]

    def test_single_replica_never_swaps(self):
        model = random_qubo(12, rng=1)
        solver = ParallelTemperingSolver(
            ParallelTemperingConfig(num_sweeps=10, num_replicas=1)
        )
        samples = solver.sample(model, num_reads=2, rng=np.random.default_rng(5))
        assert samples.info["swaps_proposed"] == 0
        assert samples.num_samples == 2

    def test_trajectory_is_monotone_and_sweep_long(self):
        model = random_qubo(14, rng=2)
        solver = ParallelTemperingSolver(
            ParallelTemperingConfig(num_sweeps=25, num_replicas=3, track_trajectory=True)
        )
        samples = solver.sample(model, num_reads=1, rng=np.random.default_rng(0))
        traj = samples.info["best_energy_trajectory"]
        assert len(traj) == 25
        assert all(a >= b for a, b in zip(traj, traj[1:]))
        assert traj[-1] == pytest.approx(samples.best.energy)

    def test_trajectory_does_not_perturb_stream(self):
        model = random_qubo(14, rng=2)
        plain = ParallelTemperingSolver(
            ParallelTemperingConfig(num_sweeps=12, num_replicas=3)
        )
        tracked = ParallelTemperingSolver(
            ParallelTemperingConfig(num_sweeps=12, num_replicas=3, track_trajectory=True)
        )
        a = plain.sample(model, num_reads=2, rng=np.random.default_rng(9))
        b = tracked.sample(model, num_reads=2, rng=np.random.default_rng(9))
        assert np.array_equal(a.assignments, b.assignments)

    def test_registry_aliases_and_spec(self):
        registry = SolverRegistry.default()
        assert registry.canonical_name("parallel-tempering") == "pt"
        assert registry.canonical_name("replica-exchange") == "pt"
        solver = make_solver("pt", num_replicas=12)
        assert isinstance(solver, ParallelTemperingSolver)
        assert "num_replicas=12" in SolverRegistry.spec_for(solver)

    def test_beats_or_matches_sa_on_frustrated_model(self):
        # Same sweep budget, same number of propagated chains: PT's exchange
        # moves must not *hurt* — its best energy is <= SA's on this
        # moderately hard instance (both are deterministic under the seeds).
        model = random_qubo(40, density=0.6, rng=77)
        replicas = 6
        pt = ParallelTemperingSolver(
            ParallelTemperingConfig(num_sweeps=40, num_replicas=replicas, swap_interval=2)
        )
        sa = SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=40))
        pt_best = pt.sample(model, num_reads=2, rng=np.random.default_rng(0)).best.energy
        sa_best = sa.sample(
            model, num_reads=2 * replicas, rng=np.random.default_rng(0)
        ).best.energy
        assert pt_best <= sa_best + 1e-9


# -------------------------------------------------------------- adaptive SA
class TestAdaptiveSimulatedAnnealing:
    def test_adaptive_is_default_and_reported(self):
        model = random_qubo(64, rng=3)
        samples = SimulatedAnnealingSolver(
            SimulatedAnnealingConfig(num_sweeps=30)
        ).sample(model, num_reads=4, rng=np.random.default_rng(2))
        assert samples.info["block_size"] == "adaptive"
        assert samples.info["final_block_size"] >= 1

    def test_fixed_block_still_available(self):
        model = random_qubo(20, rng=3)
        samples = SimulatedAnnealingSolver(
            SimulatedAnnealingConfig(num_sweeps=10, block_size=5)
        ).sample(model, num_reads=2, rng=np.random.default_rng(2))
        assert samples.info["block_size"] == 5
        assert samples.info["final_block_size"] == 5

    def test_adaptive_and_fixed_consume_identical_streams(self):
        # The sizer reads acceptance counts only: per-sweep draws are the
        # shuffled order plus one uniform matrix, independent of block size.
        model = random_qubo(24, rng=6)
        rng_a = np.random.default_rng(31)
        rng_b = np.random.default_rng(31)
        SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=8)).sample(
            model, num_reads=2, rng=rng_a
        )
        SimulatedAnnealingSolver(
            SimulatedAnnealingConfig(num_sweeps=8, block_size=3)
        ).sample(model, num_reads=2, rng=rng_b)
        assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)

    def test_sa_trajectory_tracking(self):
        model = random_qubo(16, rng=8)
        samples = SimulatedAnnealingSolver(
            SimulatedAnnealingConfig(num_sweeps=12, track_trajectory=True)
        ).sample(model, num_reads=2, rng=np.random.default_rng(0))
        traj = samples.info["best_energy_trajectory"]
        assert len(traj) == 12
        assert all(a >= b for a, b in zip(traj, traj[1:]))
