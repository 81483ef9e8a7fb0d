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
#: ``tsp49-A2.0-r16``, ``tsp64-A0.5-r16`` and ``tsp64-A2.0-r16`` were
#: re-recorded when dense windows started to be clamped from the operator's
#: rows, as CSR ones already were: the clamped sums change in the last bit.
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
        "34c1d97bdef4025009a0630ec907c5651ff08c2170abd22b82efb6530a626140",
    ),
    "tsp64-A0.5-r16": (
        lambda: _tsp_model(8, 0.5), _smoke_qbsolv(), 16, 5,
        "97431b936a7123f8b51750314fbb83db94a135dbd8fc5d29eee66a89b9d8ad34",
    ),
    "tsp64-A2.0-r16": (
        lambda: _tsp_model(8, 2.0), _smoke_qbsolv(), 16, 5,
        "903a869e1d435dd4e36a13cdc3274b7f4fe737936b234694bc6042343a401c47",
    ),
    "tsp49-r1": (
        lambda: _tsp_model(7, 1.0), _smoke_qbsolv(), 1, 3,
        "6ab580913abd82b6db60cf93a73c396b064bdcc2f1eb26452d38752fedba36c0",
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


class TestQbsolvClamp:
    """A window QUBO plus its offset is the model's energy on that window."""

    @staticmethod
    def _assert_clamp_identity(model, rtol, atol):
        rng = np.random.default_rng(12)
        n = model.num_variables
        x = rng.integers(0, 2, size=n).astype(np.float64)
        block = rng.permutation(n)[:24]
        sub_Q, offset = QbsolvSolver._clamp(model, model.operator().rows(block), x, block)
        assert sub_Q.shape == (24, 24)
        zeroed = x.copy()
        zeroed[block] = 0.0
        assert offset == model.energy(zeroed)
        for y in [x[block]] + [rng.integers(0, 2, size=24).astype(np.float64) for _ in range(8)]:
            full = x.copy()
            full[block] = y
            np.testing.assert_allclose(
                y @ sub_Q @ y + offset, model.energy(full), rtol=rtol, atol=atol
            )

    def test_dense_tsp_model(self):
        model = _tsp_model(7, 1.0)
        assert model.storage == "dense"
        self._assert_clamp_identity(model, rtol=1e-12, atol=1e-9)

    def test_csr_model(self):
        # The CSR operator's rows are float32-rounded coefficients.
        model = _csr_model()
        assert model.num_variables >= 512
        self._assert_clamp_identity(model, rtol=1e-6, atol=1e-5)


#: sha256 of ``assignments`` + ``energies`` of seeded engine calls on one
#: CSR-regime model; the float64 ones were recorded while the CSR operator
#: still gathered rows one at a time.  Every kernel that reads the operator
#: is covered in both dtypes: SA's and
#: PT's block products, DA's row gathers, batched
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
    # The same calls in float32, recorded while block products still ran as
    # dense GEMMs over gathered rows.  They equal the float64 digests: the
    # operator rounds this model's coefficients to float32 in both dtypes,
    # and no accept or argmin decision falls the other way.
    "sa-float32": (
        "sa?num_sweeps=12&dtype=float32", 4,
        "b8b687a6c0540386f2ec2311956b32e7eecf90a500a39eab7ff5d7b48d280a31",
    ),
    "da-float32": (
        "da?num_steps=150&dtype=float32", 4,
        "f364fceb6d44b8156e6189110af48ebcd4b222eab1f0991161bcd6902624b04b",
    ),
    "pt-float32": (
        "pt?num_sweeps=6&num_replicas=4&swap_interval=2&dtype=float32", 4,
        "d857929486f5d633834f38426563fc14a64c60be9750116ac0ed4930c78f9e6f",
    ),
    "tabu-batched-float32": (
        "tabu?num_steps=120&restart_after=40&dtype=float32", 4,
        "666d986d018cfab27b29f10d6994f8bf3273f502d65aa6c91a15203b6e3fbdb5",
    ),
    "tabu-scalar-float32": (
        "tabu?num_steps=120&restart_after=40&dtype=float32", 1,
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


def _mvc_model():
    """A relaxed CSR MVC QUBO of the shape ``perfbench``'s ``mvc-sweep`` collects on."""
    from repro.problems.mvc.generator import generate_sparse_mvc_instance
    from repro.problems.mvc.qubo import MVCProblem

    problem = MVCProblem(generate_sparse_mvc_instance(1000, edge_density=0.01, rng=21))
    model = problem.build_qubo(0.7 * problem.relaxation_scale())
    assert model.is_sparse
    return model


#: Engine specs pinned on a dense TSP model (n = 49, 4 reads), each run in
#: both dtypes.  The determinism matrix compares backends with each other;
#: these compare every kernel that steps a dense state with a recorded value.
_DENSE_SPECS = {
    "sa": "sa?num_sweeps=20",
    "sa-sequential": "sa?num_sweeps=6&block_size=1",
    "da": "da?num_steps=200",
    "pt": "pt?num_sweeps=8&num_replicas=4&swap_interval=2",
    "tabu-batched": "tabu?num_steps=150&restart_after=20",
}

#: SA and batched tabu as the smoke profile runs them (16 reads) on the
#: MVC-shaped CSR model (n = 1000, density about 0.01), in both dtypes.
_MVC_SPECS = {
    "sa": "sa?num_sweeps=40",
    "tabu-batched": "tabu?num_steps=80&restart_after=26",
}

#: sha256 of ``assignments`` + ``energies`` (:func:`_sample_digest`) of the
#: seeded calls above, seed 17.  Keys: ``"<model>/<case>/<dtype>"``.
_STREAM_DIGESTS = {
    "mvc1000/sa/float32": "76a35f7e11199786e4765cf5f823879083fcd411bf3432fb09bdedbd1d547210",
    "mvc1000/sa/float64": "76a35f7e11199786e4765cf5f823879083fcd411bf3432fb09bdedbd1d547210",
    "mvc1000/tabu-batched/float32": "3774709e46d2f5b0905a4f46803c7d152298af736badc774fc2658ac1ee93f6d",
    "mvc1000/tabu-batched/float64": "3774709e46d2f5b0905a4f46803c7d152298af736badc774fc2658ac1ee93f6d",
    "tsp49/da/float32": "f0b591ca2cc09e92d68c3cc59d5d4b92db1597e60987f80e546853488e55cbb4",
    "tsp49/da/float64": "f0b591ca2cc09e92d68c3cc59d5d4b92db1597e60987f80e546853488e55cbb4",
    "tsp49/pt/float32": "a0a2702fb615b6bcae2d55d6d8c056079a7a01ff66d6eb95e45405c6e7b53cbe",
    "tsp49/pt/float64": "a0a2702fb615b6bcae2d55d6d8c056079a7a01ff66d6eb95e45405c6e7b53cbe",
    "tsp49/sa-sequential/float32": "848276ffef98cb58401297584a088e6e935371bf8e9347bb8ddb7efccae5c696",
    "tsp49/sa-sequential/float64": "848276ffef98cb58401297584a088e6e935371bf8e9347bb8ddb7efccae5c696",
    "tsp49/sa/float32": "0730bab4aaf950c60ed85b03ca5d68463400ef9ff2c9b1ad78def690fd65212a",
    "tsp49/sa/float64": "0730bab4aaf950c60ed85b03ca5d68463400ef9ff2c9b1ad78def690fd65212a",
    "tsp49/tabu-batched/float32": "839de8b1647c06fabb676d832c4a54b1cea65d8702d3f4f6223d95a9c6da4995",
    "tsp49/tabu-batched/float64": "9456171cc7ce7a901e00ac21f695c0b51eada7f80e809d2fa2a62a7e7e7afcac",
}


@pytest.fixture(scope="module")
def stream_digest_models():
    return {"tsp49": _tsp_model(7, 1.0), "mvc1000": _mvc_model()}


@pytest.mark.parametrize("key", sorted(_STREAM_DIGESTS))
def test_seeded_engine_streams_match_recorded_digest(key, stream_digest_models):
    from repro.service import make_solver

    model_name, case, dtype = key.split("/")
    specs, num_reads = (_DENSE_SPECS, 4) if model_name == "tsp49" else (_MVC_SPECS, 16)
    samples = make_solver(f"{specs[case]}&dtype={dtype}").sample(
        stream_digest_models[model_name], num_reads=num_reads, rng=17
    )
    assert _sample_digest(samples) == _STREAM_DIGESTS[key]


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
