"""Backend-specific solver tests: schedules, configs and behavioural details."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy import sparse

from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import QUBOModel, random_qubo
from repro.qubo.precision import AnalogNoiseModel
from repro.solvers.digital_annealer import DigitalAnnealerConfig, DigitalAnnealerSolver
from repro.solvers.qbsolv import QbsolvConfig, QbsolvSolver
from repro.solvers.quantum_annealer import QuantumAnnealerConfig, QuantumAnnealerSolver
from repro.solvers.schedules import (
    GeometricSchedule,
    LinearSchedule,
    default_temperature_range,
    resolve_schedule,
)
from repro.solvers.simulated_annealing import SimulatedAnnealingConfig, SimulatedAnnealingSolver
from repro.solvers.tabu import TabuSearchConfig, TabuSearchSolver


class TestSchedules:
    def test_geometric_endpoints(self):
        temps = GeometricSchedule(t_initial=10.0, t_final=0.1)(5)
        assert temps[0] == pytest.approx(10.0)
        assert temps[-1] == pytest.approx(0.1)
        assert np.all(np.diff(temps) < 0)

    def test_geometric_single_sweep(self):
        temps = GeometricSchedule(t_initial=4.0, t_final=1.0)(1)
        assert temps.shape == (1,)
        assert temps[0] == pytest.approx(4.0)

    def test_linear_endpoints(self):
        temps = LinearSchedule(t_initial=5.0, t_final=1.0)(9)
        assert temps[0] == pytest.approx(5.0)
        assert temps[-1] == pytest.approx(1.0)
        np.testing.assert_allclose(np.diff(temps), np.diff(temps)[0])

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            GeometricSchedule(t_initial=1.0, t_final=2.0)
        with pytest.raises(ValueError):
            LinearSchedule(t_initial=-1.0, t_final=0.5)
        with pytest.raises(ValueError):
            GeometricSchedule(t_initial=1.0, t_final=0.5)(0)

    def test_default_range_scales_with_coefficients(self):
        small = default_temperature_range(random_qubo(10, scale=1.0, rng=0))
        large = default_temperature_range(random_qubo(10, scale=100.0, rng=0))
        assert large[0] > small[0]
        assert small[0] > small[1] > 0

    def test_resolve_schedule_prefers_explicit(self):
        model = random_qubo(5, rng=0)
        explicit = LinearSchedule(t_initial=2.0, t_final=1.0)
        assert resolve_schedule(model, explicit) is explicit
        automatic = resolve_schedule(model, None)
        assert isinstance(automatic, GeometricSchedule)


class TestConfigValidation:
    def test_sa_config(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingConfig(num_sweeps=0)

    def test_da_config(self):
        with pytest.raises(ValueError):
            DigitalAnnealerConfig(num_steps=0)
        with pytest.raises(ValueError):
            DigitalAnnealerConfig(steps_per_variable=0)
        with pytest.raises(ValueError):
            DigitalAnnealerConfig(offset_increase_rate=-1.0)

    def test_tabu_config(self):
        with pytest.raises(ValueError):
            TabuSearchConfig(num_steps=0)
        with pytest.raises(ValueError):
            TabuSearchConfig(restart_after=0)
        with pytest.raises(ValueError):
            TabuSearchConfig(tenure=-1)

    def test_qbsolv_config(self):
        with pytest.raises(ValueError):
            QbsolvConfig(subproblem_size=1)
        with pytest.raises(ValueError):
            QbsolvConfig(max_rounds=0)
        with pytest.raises(ValueError):
            QbsolvConfig(num_restarts=0)


class TestDigitalAnnealer:
    def test_explicit_step_count_used(self):
        solver = DigitalAnnealerSolver(DigitalAnnealerConfig(num_steps=17))
        samples = solver.sample(random_qubo(6, rng=0), num_reads=2, rng=0)
        assert samples.info["num_steps"] == 17

    def test_steps_scale_with_size(self):
        solver = DigitalAnnealerSolver(DigitalAnnealerConfig(steps_per_variable=5))
        samples = solver.sample(random_qubo(8, rng=0), num_reads=1, rng=0)
        assert samples.info["num_steps"] == 40

    def test_returns_best_seen_not_final(self):
        # The DA keeps the best state seen during the walk, so its reported
        # energy can never be worse than a single random state from the seed.
        model = random_qubo(15, rng=1)
        solver = DigitalAnnealerSolver(DigitalAnnealerConfig(steps_per_variable=15))
        samples = solver.sample(model, num_reads=6, rng=2)
        random_energy = model.energies(
            np.random.default_rng(2).integers(0, 2, size=(6, 15)).astype(float)
        ).min()
        assert samples.best.energy <= random_energy + 1e-9


class TestTabuSearch:
    def test_refine_improves_or_keeps_energy(self):
        model = random_qubo(12, rng=4)
        solver = TabuSearchSolver(TabuSearchConfig(num_steps=150))
        start = np.random.default_rng(0).integers(0, 2, size=12).astype(np.int8)
        refined = solver.refine_many(
            model.Q[None], [model.offset], start[None], [np.random.default_rng(0)]
        )[0]
        assert model.energy(refined.astype(float)) <= model.energy(start.astype(float)) + 1e-9

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_refine_many_rows_match_single_row_refines(self, dtype):
        # Each row of a stacked refine must equal a one-row refine (the scalar
        # kernel) of that row on its own stream, and leave that stream at the
        # same position.  Short stalls force several restarts per row.
        rng = np.random.default_rng(5)
        rows, n = 6, 17
        sub_Q = np.stack([random_qubo(n, rng=seed).Q for seed in range(rows)])
        offsets = list(rng.normal(scale=1e3, size=rows))
        X0 = rng.integers(0, 2, size=(rows, n)).astype(np.int8)
        solver = TabuSearchSolver(
            TabuSearchConfig(num_steps=120, restart_after=7, dtype=dtype)
        )
        streams = [np.random.default_rng(100 + r) for r in range(rows)]
        stacked = solver.refine_many(sub_Q, offsets, X0, streams)
        assert stacked.shape == (rows, n) and stacked.dtype == np.int8
        restarted = 0
        for r in range(rows):
            own = np.random.default_rng(100 + r)
            single = solver.refine_many(sub_Q[r : r + 1], offsets[r : r + 1], X0[r : r + 1], [own])
            np.testing.assert_array_equal(stacked[r], single[0])
            restarted += own.bit_generator.state != np.random.default_rng(100 + r).bit_generator.state
            assert streams[r].random() == own.random()
        assert restarted == rows

    def test_refine_many_rejects_mismatched_shapes(self):
        solver = TabuSearchSolver()
        with pytest.raises(ValueError, match="refine_many"):
            solver.refine_many(np.zeros((2, 4, 4)), [0.0], np.zeros((2, 4)), [None, None])

    def test_auto_tenure_for_small_problems(self):
        solver = TabuSearchSolver(TabuSearchConfig(num_steps=30))
        samples = solver.sample(random_qubo(4, rng=0), num_reads=1, rng=0)
        assert samples.num_samples == 1


class TestQbsolv:
    def test_handles_problems_smaller_than_window(self):
        solver = QbsolvSolver(QbsolvConfig(subproblem_size=64, max_rounds=2))
        samples = solver.sample(random_qubo(6, rng=0), num_reads=2, rng=0)
        assert samples.num_samples == 2

    def test_decomposition_matches_tabu_on_small_problem(self):
        # When the window covers the whole problem, qbsolv reduces to tabu and
        # should find the separable ground state exactly.
        diag = np.array([-2.0, 1.0, -4.0, 0.5, -1.0])
        model = QUBOModel(np.diag(diag))
        solver = QbsolvSolver(QbsolvConfig(subproblem_size=5, max_rounds=2))
        best = solver.sample(model, num_reads=2, rng=0).best
        assert best.energy == pytest.approx(diag[diag < 0].sum())

    def test_multiple_restarts_never_hurt(self):
        model = random_qubo(20, rng=9)
        single = QbsolvSolver(QbsolvConfig(subproblem_size=10, max_rounds=2, num_restarts=1))
        multi = QbsolvSolver(QbsolvConfig(subproblem_size=10, max_rounds=2, num_restarts=3))
        single_best = single.sample(model, num_reads=1, rng=5).best.energy
        multi_best = multi.sample(model, num_reads=1, rng=5).best.energy
        assert multi_best <= single_best + 1e-9


#: Tabu sub-solver of the smoke profile, pinned to float64.
_SMOKE_TABU = TabuSearchConfig(num_steps=80, restart_after=26, dtype="float64")


def _smoke_qbsolv(subproblem_size=24, subsolver_config=_SMOKE_TABU, **kwargs):
    return QbsolvConfig(
        subproblem_size=subproblem_size, subsolver_config=subsolver_config, **kwargs
    )


def _tsp_model(cities, multiplier):
    problem = TSPProblem(generate_instance(cities, rng=cities, name=f"digest-tsp{cities}"))
    return problem.build_qubo(multiplier * problem.relaxation_scale())


def _csr_model():
    rng = np.random.default_rng(9)
    n, nnz = 600, 1800
    rows, cols = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    Q = sparse.coo_array((rng.normal(size=nnz), (rows, cols)), shape=(n, n)).tocsr()
    model = QUBOModel(Q, offset=0.75, name="digest-sparse")
    assert model.is_sparse
    return model


#: sha256 of ``assignments`` + ``energies`` of seeded qbsolv calls, recorded
#: when every read still ran on its own; batching the reads must not move them.
#: Entries: model builder, config, num_reads, seed, digest.
_QBSOLV_DIGESTS = {
    "tsp36-A0.5-r16": (
        lambda: _tsp_model(6, 0.5), _smoke_qbsolv(), 16, 5,
        "860f17ff20e237fd3e643a9cb75829f6953e8b834847b5c8899e4e94a3f5022c",
    ),
    "tsp36-A2.0-r16": (
        lambda: _tsp_model(6, 2.0), _smoke_qbsolv(), 16, 5,
        "9ce9b5a1ec1cc43c0ec5d0f335632e0a4e926102b940e49df1544c3f535e9e1a",
    ),
    # n = 49 with w = 24: the last block holds one variable and is skipped.
    "tsp49-A0.5-r16": (
        lambda: _tsp_model(7, 0.5), _smoke_qbsolv(), 16, 5,
        "fc2127de68da5f2d423b5ceebe152cc0d4cababfefd8fd27b4b225f4d02c45d9",
    ),
    "tsp49-A2.0-r16": (
        lambda: _tsp_model(7, 2.0), _smoke_qbsolv(), 16, 5,
        "83c3ce7d00ee4fbb3d746e0e2d7afda6452e48942fd5e836168b8ebb353e55f1",
    ),
    "tsp64-A0.5-r16": (
        lambda: _tsp_model(8, 0.5), _smoke_qbsolv(), 16, 5,
        "f80b014df6727ff6350aade4ef924b96f1b9064a4376fb998ca25a23a533b855",
    ),
    "tsp64-A2.0-r16": (
        lambda: _tsp_model(8, 2.0), _smoke_qbsolv(), 16, 5,
        "da4cd771265d7603682b42c091c04e0c757af8e22ef3d069d8fc202c95f8040e",
    ),
    "tsp49-r1": (
        lambda: _tsp_model(7, 1.0), _smoke_qbsolv(), 1, 3,
        "6ab580913abd82b6db60cf93a73c396b064bdcc2f1eb26452d38752fedba36c0",
    ),
    "tsp36-restarts3-r4": (
        lambda: _tsp_model(6, 1.0), _smoke_qbsolv(num_restarts=3), 4, 7,
        "cd7d9bf6dfe7bf47da94f9ecea2b29140f0cb569cf74eacd753e7eb265b82cdf",
    ),
    "window-covers-n-r4": (
        lambda: random_qubo(20, rng=4), _smoke_qbsolv(subproblem_size=32), 4, 8,
        "3eb520c9df3aa199749d8187fded625f6671e86450f244c93483fed875a17ec9",
    ),
    "last-block-of-one-r4": (
        lambda: random_qubo(25, rng=6), _smoke_qbsolv(subproblem_size=12), 4, 9,
        "796a30596e87efbead2406cef2ff377ca6de9cdfd8a29d6f164cd375aba525d0",
    ),
    "csr600-r4": (
        _csr_model,
        _smoke_qbsolv(
            subproblem_size=32,
            max_rounds=2,
            subsolver_config=TabuSearchConfig(num_steps=30, restart_after=10, dtype="float64"),
        ),
        4, 10,
        "69a936305fe51478c7d0e6263455f6bf887e8f795e54da8aa134cd3f42a1b400",
    ),
    "tsp64-default-config-r4": (
        lambda: _tsp_model(8, 1.0), QbsolvConfig(dtype="float64"), 4, 11,
        "a584c9eb94fc2599b2644b828e38d2bc3865ad63b93da7ded5cc6199946fc3e7",
    ),
}


def _sample_digest(samples) -> str:
    """sha256 of a sample set's int8 assignments followed by its energies."""
    payload = np.asarray(samples.assignments, dtype=np.int8).tobytes() + np.asarray(
        samples.energies, dtype=np.float64
    ).tobytes()
    return hashlib.sha256(payload).hexdigest()


class TestQbsolvLockStep:
    @pytest.mark.parametrize("case", sorted(_QBSOLV_DIGESTS))
    def test_seeded_reads_match_recorded_digest(self, case):
        build, config, num_reads, seed, digest = _QBSOLV_DIGESTS[case]
        samples = QbsolvSolver(config).sample(build(), num_reads=num_reads, rng=seed)
        assert _sample_digest(samples) == digest

    def test_read_does_not_depend_on_its_batch(self):
        # Spawned read streams are prefix-stable in num_reads, and a read
        # consumes only its own stream: the reads of a smaller batch reappear
        # in a larger one (whose reads leave the lock-step loop at different
        # rounds), and a lone read takes the scalar kernel.  Sample sets sort
        # by energy, so compare reads as sets.
        model = _tsp_model(6, 1.0)
        solver = QbsolvSolver(_smoke_qbsolv())
        many = {row.tobytes() for row in solver.sample(model, num_reads=6, rng=21).assignments}
        for k in (1, 2):
            few = solver.sample(model, num_reads=k, rng=21).assignments
            assert {row.tobytes() for row in few} <= many


#: sha256 of ``assignments`` + ``energies`` of seeded float64 engine calls on
#: one CSR-regime model, recorded while the CSR operator still gathered rows
#: one at a time.  Every kernel that reads the operator is covered: SA's and
#: PT's block products, DA's row gathers (single- and multi-flip), batched
#: tabu's row gathers and the scalar tabu kernel's single rows.
#: Entries: spec, num_reads, digest.
_CSR_DIGESTS = {
    "sa": (
        "sa?num_sweeps=12&dtype=float64", 4,
        "b8b687a6c0540386f2ec2311956b32e7eecf90a500a39eab7ff5d7b48d280a31",
    ),
    "sa-sequential": (
        "sa?num_sweeps=6&block_size=1&dtype=float64", 4,
        "f4a33932da231e2532f7947d4d5fc602fbb781ec457597009528f6fbc91546d2",
    ),
    "da": (
        "da?num_steps=150&dtype=float64", 4,
        "f364fceb6d44b8156e6189110af48ebcd4b222eab1f0991161bcd6902624b04b",
    ),
    "da-multi-flip": (
        "da?num_steps=60&max_parallel_flips=8&dtype=float64", 4,
        "9bdc8e720d2464951a6337b1ced7cf5ee47e3c854ad3d3044ad8f60a2a803620",
    ),
    "pt": (
        "pt?num_sweeps=6&num_replicas=4&swap_interval=2&dtype=float64", 4,
        "d857929486f5d633834f38426563fc14a64c60be9750116ac0ed4930c78f9e6f",
    ),
    "tabu-batched": (
        "tabu?num_steps=120&restart_after=40&dtype=float64", 4,
        "666d986d018cfab27b29f10d6994f8bf3273f502d65aa6c91a15203b6e3fbdb5",
    ),
    "tabu-scalar": (
        "tabu?num_steps=120&restart_after=40&dtype=float64", 1,
        "20befc59845e082bd9faef31d25f70decabc21d7446d4d9a98116ca234f325b9",
    ),
}


@pytest.fixture(scope="module")
def csr_digest_model():
    model = random_qubo(600, density=0.02, rng=3, storage="sparse")
    assert model.operator().kind == "sparse"
    return model


@pytest.mark.parametrize("case", sorted(_CSR_DIGESTS))
def test_seeded_csr_engine_calls_match_recorded_digest(case, csr_digest_model):
    from repro.service import make_solver

    spec, num_reads, digest = _CSR_DIGESTS[case]
    samples = make_solver(spec).sample(csr_digest_model, num_reads=num_reads, rng=17)
    assert _sample_digest(samples) == digest


class TestQuantumAnnealer:
    def test_energies_scored_against_exact_model(self):
        model = random_qubo(8, rng=0)
        solver = QuantumAnnealerSolver()
        samples = solver.sample(model, num_reads=4, rng=0)
        recomputed = model.energies(samples.assignments.astype(float))
        np.testing.assert_allclose(samples.energies, recomputed)

    def test_noise_metadata_reported(self):
        config = QuantumAnnealerConfig(noise=AnalogNoiseModel(relative_error=0.07))
        samples = QuantumAnnealerSolver(config).sample(random_qubo(6, rng=0), num_reads=2, rng=0)
        assert samples.info["relative_error"] == pytest.approx(0.07)

    def test_noisier_device_gives_worse_or_equal_quality(self):
        # With a huge dynamic range the noisy device should, on average, return
        # higher exact energies than the noiseless annealer.
        Q = np.diag(np.concatenate([np.full(5, -1.0), np.full(5, -1000.0)]))
        model = QUBOModel(Q)
        quiet = QuantumAnnealerSolver(
            QuantumAnnealerConfig(noise=AnalogNoiseModel(0.0, 0.0), quantization=None)
        )
        noisy = QuantumAnnealerSolver(
            QuantumAnnealerConfig(noise=AnalogNoiseModel(relative_error=0.5, absolute_error=0.5), quantization=None)
        )
        quiet_energy = np.mean([quiet.sample(model, num_reads=4, rng=s).best.energy for s in range(4)])
        noisy_energy = np.mean([noisy.sample(model, num_reads=4, rng=s).best.energy for s in range(4)])
        assert quiet_energy <= noisy_energy + 1e-9
