"""Storage is a function of the coefficients: parity suite and sparse-encode acceptance.

A :class:`QUBOModel` picks dense or CSR storage from its own coefficients, so
the same matrix passed dense or as CSR must give one model: one storage, one
fingerprint, identical ``to_dict`` / ``to_ising``, and *byte-identical* seeded
solver results — including results the service serves from its cache, which
is keyed by the fingerprint.  The invariance tests use non-dyadic
coefficients, where float rounding would expose any storage-dependent
arithmetic; the encoder tests use dyadic-rational ones so every encoding
operation is exact.

Only ``qubo/model.py`` may branch on the storage; a scan of the package
source guards that.  The acceptance tests at the bottom pin the headline
property of the sparse encoding path: a large sparse MVC instance encodes and
solves end to end without ever allocating a dense ``n x n`` array.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import repro
from repro.problems.mvc.generator import generate_sparse_mvc_instance
from repro.problems.mvc.instance import MVCInstance
from repro.problems.mvc.qubo import MVCProblem
from repro.problems.tsp.instance import TSPInstance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.expression import RelaxedEncoding
from repro.qubo.model import (
    SPARSE_DENSITY_THRESHOLD,
    SPARSE_MIN_VARIABLES,
    QUBOModel,
)
from repro.service import make_solver
from repro.service.requests import SolveRequest
from repro.service.service import SolveService


def dyadic_mvc_problem(num_vertices: int, edge_probability: float, seed: int = 0) -> MVCProblem:
    """Random MVC instance with dyadic weights (all encoding arithmetic exact)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((num_vertices, num_vertices)) < edge_probability, k=1)
    adjacency = upper | upper.T
    weights = rng.integers(1, 16, size=num_vertices) / 8.0
    instance = MVCInstance(
        adjacency=adjacency, weights=weights, name=f"parity-mvc-{edge_probability}"
    )
    return MVCProblem(instance)


def integer_tsp_problem(num_cities: int, seed: int = 0) -> TSPProblem:
    """Random TSP instance with integer distances (exact arithmetic)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(1, 100, size=(num_cities, num_cities)), k=1)
    distances = (upper + upper.T).astype(np.float64)
    instance = TSPInstance(distances=distances, name="parity-tsp")
    return TSPProblem(instance)


def nondyadic_twins(n: int, density: float, seed: int = 0):
    """One non-dyadic, asymmetric matrix passed dense and as CSR.

    Both triangles hold independent thirds of normal draws, so symmetrising,
    scoring and perturbing all round; any arithmetic that depends on the
    input form shows in the low bits.
    """
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density)
    Q = np.where(upper | upper.T, rng.normal(size=(n, n)) / 3.0, 0.0)
    return (
        QUBOModel(Q, offset=0.1, name="twin"),
        QUBOModel(sparse.csr_array(Q), offset=0.1, name="twin"),
    )


def input_twins(model: QUBOModel):
    """``model``'s coefficients passed back in dense and in CSR form."""
    return tuple(
        QUBOModel(Q, offset=model.offset, name=model.name)
        for Q in (model.dense_Q(), model.sparse_Q())
    )


def rule_storage(model: QUBOModel) -> str:
    """The storage the rule gives ``model``, recomputed from its dense coefficients."""
    n = model.num_variables
    density = np.count_nonzero(model.dense_Q()) / float(n * n)
    in_regime = n >= SPARSE_MIN_VARIABLES and density < SPARSE_DENSITY_THRESHOLD
    return "sparse" if in_regime else "dense"


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix)


def assert_one_model(a: QUBOModel, b: QUBOModel) -> None:
    assert a.storage == b.storage
    assert a.fingerprint() == b.fingerprint()
    assert a.offset == b.offset
    assert a.to_dict() == b.to_dict()
    a_ising, b_ising = a.to_ising(), b.to_ising()
    assert np.array_equal(a_ising.h, b_ising.h)
    assert a_ising.offset == b_ising.offset
    assert sparse.issparse(a_ising.J) == sparse.issparse(b_ising.J)
    assert np.array_equal(_dense(a_ising.J), _dense(b_ising.J))


def assert_same_bytes(a, b) -> None:
    """Two sample sets hold byte-identical assignments and energies."""
    assert a.assignments.dtype == b.assignments.dtype
    assert a.assignments.tobytes() == b.assignments.tobytes()
    assert a.energies.dtype == b.energies.dtype
    assert a.energies.tobytes() == b.energies.tobytes()


# Edge probabilities straddling the CSR density threshold (0.10), at the
# minimum sparse-regime size.  The relaxed model's density tracks the graph
# density closely, so these cover sparse-regime, boundary and dense-regime.
MVC_DENSITIES = [0.02, 0.08, 0.10, 0.30]

#: One non-dyadic matrix on each side of the regime boundary, with the
#: storage the rule gives it.
REGIME_CASES = [(600, 0.02, "sparse"), (40, 0.3, "dense")]

TWIN_SOLVERS = [
    "sa?num_sweeps=6",
    "tabu?num_steps=40",
    "qbsolv?subproblem_size=32&max_rounds=1",
    "qa?base_config.num_sweeps=6",
]


class TestOneFingerprintOneStorage:
    """The input form never reaches the model: one fingerprint, one set of bytes."""

    @pytest.mark.parametrize("n, density, storage", REGIME_CASES)
    def test_input_form_does_not_choose_the_storage(self, n, density, storage):
        from_dense, from_csr = nondyadic_twins(n, density)
        assert from_dense.storage == storage
        assert_one_model(from_dense, from_csr)

    @pytest.mark.parametrize("solver", TWIN_SOLVERS)
    @pytest.mark.parametrize("n, density, storage", REGIME_CASES)
    def test_seeded_samples_byte_identical(self, n, density, storage, solver):
        from_dense, from_csr = nondyadic_twins(n, density)
        assert_same_bytes(
            make_solver(solver).sample(from_dense, num_reads=3, rng=7),
            make_solver(solver).sample(from_csr, num_reads=3, rng=7),
        )

    @pytest.mark.parametrize("solver", TWIN_SOLVERS)
    @pytest.mark.parametrize("n, density, storage", REGIME_CASES)
    def test_cache_served_bytes_equal_a_direct_call(self, n, density, storage, solver):
        from_dense, from_csr = nondyadic_twins(n, density)
        with SolveService(seed=0) as service:
            first = service.submit(
                SolveRequest(solver=solver, model=from_dense, num_reads=3, seed=5)
            ).result()
            served = service.submit(
                SolveRequest(solver=solver, model=from_csr, num_reads=3, seed=5)
            ).result()
        assert not first.from_cache and served.from_cache
        direct = make_solver(solver).sample(from_csr, num_reads=3, rng=np.random.default_rng(5))
        assert_same_bytes(served.samples, direct)

    def test_only_the_model_module_branches_on_storage(self):
        # Every other module keeps the one path that works on both storages:
        # it reads a model through its operator or its CSR coefficients, and
        # asks the operator what a flip touched rather than which kind it is.
        package = Path(repro.__file__).resolve().parent
        branching = [
            str(path.relative_to(package))
            for path in sorted(package.rglob("*.py"))
            if path != package / "qubo" / "model.py"
            and re.search(r"is_sparse|issparse|\.kind\s*[!=]=", path.read_text(encoding="utf-8"))
        ]
        assert branching == []


class TestEncodingParity:
    """Encoder models land on the rule's storage, and rebuilding one from
    either input form gives back the same model."""

    @pytest.mark.parametrize("density", MVC_DENSITIES)
    def test_mvc_storage_follows_rule(self, density):
        encoding = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density).encode()
        for model in (encoding.objective, encoding.penalty, encoding.relax(2.5)):
            assert model.storage == rule_storage(model)

    def test_tsp_storage_follows_rule(self):
        # 23 cities (n = 529): H_B and H_A are each below the density
        # threshold, their relaxed sum is not.
        encoding = integer_tsp_problem(23).encode()
        relaxed = encoding.relax(128.0)
        assert encoding.objective.is_sparse and encoding.penalty.is_sparse
        assert not relaxed.is_sparse
        for model in (encoding.objective, encoding.penalty, relaxed):
            assert model.storage == rule_storage(model)

    @pytest.mark.parametrize("density", MVC_DENSITIES)
    def test_mvc_models_identical(self, density):
        encoding = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density).encode()
        for model in (encoding.objective, encoding.penalty):
            for twin in input_twins(model):
                assert_one_model(twin, model)
                assert twin.density() == model.density()
                assert np.array_equal(twin.dense_Q(), model.dense_Q())

    @pytest.mark.parametrize("density", [0.02, 0.30])
    def test_mvc_energies_identical(self, density):
        encoding = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density).encode()
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(8, SPARSE_MIN_VARIABLES)).astype(np.float64)
        for model in (encoding.objective, encoding.penalty):
            for twin in input_twins(model):
                assert np.array_equal(twin.energies(X), model.energies(X))
                assert np.array_equal(twin.local_fields(X), model.local_fields(X))
                assert twin.energy(X[0]) == model.energy(X[0])

    @pytest.mark.parametrize("density", [0.02, 0.30])
    def test_mvc_relaxed_dict_and_ising_identical(self, density):
        relaxed = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density).encode().relax(2.5)
        for twin in input_twins(relaxed):
            assert_one_model(twin, relaxed)

    def test_tsp_models_identical(self):
        encoding = integer_tsp_problem(6).encode()
        X = np.random.default_rng(2).integers(0, 2, size=(6, 36)).astype(np.float64)
        for model in (encoding.objective, encoding.penalty, encoding.relax(128.0)):
            for twin in input_twins(model):
                assert_one_model(twin, model)
                assert np.array_equal(twin.energies(X), model.energies(X))

    def test_tsp_auto_storage_matches_seed_path_for_small_instances(self):
        # Small instances (below SPARSE_MIN_VARIABLES) are dense, keeping the
        # historical dense numerics bit for bit.
        encoding = integer_tsp_problem(6).encode()
        assert encoding.objective.storage == "dense"
        assert encoding.penalty.storage == "dense"


class TestSolveParity:
    """Seeded solves of an encoder's relaxed model and of that model rebuilt
    from either input form are byte-identical."""

    @staticmethod
    def _assert_twins_match(problem, A, solver, num_reads, seed):
        with SolveService(seed=0) as service:
            encoded = service.solve(
                problem=problem,
                relaxation_parameter=A,
                solver=solver,
                num_reads=num_reads,
                seed=seed,
            )
        for twin in input_twins(problem.build_qubo(A)):
            direct = make_solver(solver).sample(
                twin, num_reads=num_reads, rng=np.random.default_rng(seed)
            )
            assert_same_bytes(encoded.samples, direct)

    @pytest.mark.parametrize("density", MVC_DENSITIES)
    @pytest.mark.parametrize("solver", ["sa?num_sweeps=6", "tabu?num_steps=12"])
    def test_mvc_seeded_solve_byte_identical(self, density, solver):
        problem = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density)
        self._assert_twins_match(problem, 2.0, solver, num_reads=3, seed=123)

    def test_qbsolv_seeded_solve_byte_identical_across_storage(self):
        # qbsolv branches on the model's storage, which both input forms of
        # one model share.
        problem = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, 0.02)
        self._assert_twins_match(
            problem, 2.0, "qbsolv?subproblem_size=32&max_rounds=1", num_reads=1, seed=9
        )

    def test_qbsolv_multi_read_seeded_solve_byte_identical_across_storage(self):
        # Several reads take the batched lock-step loop (one read takes the
        # scalar kernel), so pin the invariance on that path too.
        problem = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, 0.02)
        self._assert_twins_match(
            problem, 2.0, "qbsolv?subproblem_size=32&max_rounds=1", num_reads=4, seed=9
        )

    def test_qbsolv_runs_on_sparse_regime_models(self):
        # qbsolv steers through the sparse operator instead of densifying; the
        # returned energies are still re-scored against the exact model.
        problem = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, 0.02)
        model = problem.build_qubo(2.0)
        assert model.is_sparse
        with SolveService(seed=0) as service:
            result = service.solve(
                problem=problem,
                relaxation_parameter=2.0,
                solver="qbsolv?subproblem_size=32&max_rounds=1",
                num_reads=1,
                seed=3,
            )
        assert result.samples.assignments.shape == (1, SPARSE_MIN_VARIABLES)
        assert np.array_equal(
            result.samples.energies, model.energies(result.samples.assignments)
        )

    def test_tsp_seeded_solve_byte_identical(self):
        self._assert_twins_match(
            integer_tsp_problem(5), 256.0, "sa?num_sweeps=8", num_reads=4, seed=11
        )


class TestLazyServiceEncoding:
    def test_map_requests_materialises_once_per_group(self, monkeypatch):
        # Three requests at one (problem, A): submitting relaxes nothing on the
        # caller's thread, and on a one-worker service the first task composes
        # the relaxed model while the other two are hits in the encoding's LRU.
        problem = dyadic_mvc_problem(24, 0.3)
        relaxing_threads, compositions = [], []
        original_relax = RelaxedEncoding.relax
        original_scaled = QUBOModel.scaled
        monkeypatch.setattr(
            RelaxedEncoding,
            "relax",
            lambda self, A: relaxing_threads.append(threading.get_ident())
            or original_relax(self, A),
        )
        monkeypatch.setattr(
            QUBOModel,
            "scaled",
            lambda self, factor: compositions.append(factor) or original_scaled(self, factor),
        )
        requests = [
            SolveRequest(
                problem=problem,
                relaxation_parameter=2.0,
                solver="sa?num_sweeps=4",
                num_reads=2,
            )
            for _ in range(3)
        ]
        with SolveService(max_workers=1, seed=0, backend="thread") as service:
            results = service.map_requests(requests)
        assert len(results) == 3
        assert len(relaxing_threads) == 3
        assert threading.get_ident() not in relaxing_threads
        assert compositions == [2.0]

    def test_solve_keyword_forms(self):
        problem = dyadic_mvc_problem(16, 0.4)
        with SolveService(seed=0) as service:
            by_keyword = service.solve(
                problem=problem,
                relaxation_parameter=2.0,
                solver="sa?num_sweeps=4",
                num_reads=2,
                seed=5,
            )
        with SolveService(seed=0) as service:
            positional = service.solve(
                problem,
                relaxation_parameter=2.0,
                solver="sa?num_sweeps=4",
                num_reads=2,
                seed=5,
            )
        assert np.array_equal(
            by_keyword.samples.assignments, positional.samples.assignments
        )
        model = problem.build_qubo(2.0)
        with SolveService(seed=0) as service:
            by_model = service.solve(model=model, solver="sa?num_sweeps=4", seed=5, num_reads=2)
        assert np.array_equal(by_model.samples.assignments, by_keyword.samples.assignments)

    def test_solve_argument_validation(self):
        problem = dyadic_mvc_problem(16, 0.4)
        with SolveService(seed=0) as service:
            with pytest.raises(ValueError):
                service.solve()
            with pytest.raises(ValueError):
                service.solve(problem, problem=problem, relaxation_parameter=1.0)
            with pytest.raises(ValueError):
                service.solve(model=problem.build_qubo(1.0), relaxation_parameter=1.0)


class _DenseAllocationGuard:
    """Patches numpy allocators to reject any ``>= n*n``-element allocation."""

    def __init__(self, monkeypatch, limit_elements: int) -> None:
        self.limit = limit_elements
        for name in ("zeros", "ones", "empty", "full"):
            original = getattr(np, name)
            monkeypatch.setattr(np, name, self._wrap(name, original))

    def _wrap(self, name, original):
        def guarded(shape, *args, **kwargs):
            size = int(np.prod(np.atleast_1d(np.asarray(shape, dtype=np.int64))))
            if size >= self.limit:
                raise AssertionError(
                    f"np.{name}({shape!r}) allocates {size} elements — the sparse "
                    "encode/solve path must never allocate a dense n x n array"
                )
            return original(shape, *args, **kwargs)

        return guarded


class TestSparseEndToEndAcceptance:
    """ISSUE acceptance: n >= 5000, density <= 0.01, no dense n x n allocation."""

    N = 5000
    NUM_EDGES = 60_000  # graph density ~0.005

    def test_large_sparse_mvc_encodes_and_solves_without_densifying(self, monkeypatch):
        instance = generate_sparse_mvc_instance(self.N, num_edges=self.NUM_EDGES, rng=0)
        problem = MVCProblem(instance)

        # From here on, any dense n x n construction is an error: numpy
        # allocators are guarded and the QUBOModel densification choke point
        # is disabled.
        _DenseAllocationGuard(monkeypatch, limit_elements=self.N * self.N)

        def forbidden_densify(model):
            raise AssertionError("QUBOModel densified on the sparse encode/solve path")

        monkeypatch.setattr(QUBOModel, "_dense", forbidden_densify)

        result = repro.solve(
            problem=problem,
            relaxation_parameter=1.5 * problem.relaxation_scale(),
            solver="sa?num_sweeps=2",
            num_reads=2,
            seed=0,
        )
        assert result.samples.assignments.shape == (2, self.N)
        assert np.all(np.isfinite(result.samples.energies))

        encoding = problem.encode()
        assert encoding.objective.storage == "sparse"
        assert encoding.penalty.storage == "sparse"
        relaxed = encoding.relax(1.5 * problem.relaxation_scale())
        assert relaxed.storage == "sparse"
        assert relaxed.density() <= 0.01

    def test_sparse_instance_generator_stays_sparse(self):
        instance = generate_sparse_mvc_instance(self.N, num_edges=self.NUM_EDGES, rng=1)
        assert instance.adjacency.format == "csr"
        assert instance.num_vertices == self.N
        assert instance.num_edges == self.NUM_EDGES
        edges = instance.edges()
        assert edges.shape == (self.NUM_EDGES, 2)
        assert np.all(edges[:, 0] < edges[:, 1])
