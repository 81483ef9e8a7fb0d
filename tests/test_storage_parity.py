"""Dense-vs-sparse storage parity suite and sparse-encode acceptance tests.

The same mathematical model must behave identically whether its coefficients
are held dense or as CSR: identical energies, ``to_dict``, ``to_ising``,
fingerprints, and *byte-identical* seeded ``repro.solve`` results.  Test
instances use dyadic-rational coefficients so every float operation is exact
and "identical" genuinely means bit-for-bit.

The acceptance tests at the bottom pin the headline property of the sparse
encoding path: a large sparse MVC instance encodes and solves end to end
without ever allocating a dense ``n x n`` array.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.service.requests import SolveRequest
from repro.service.service import SolveService


def dyadic_mvc_problem(
    num_vertices: int, edge_probability: float, storage: str, seed: int = 0
) -> MVCProblem:
    """Random MVC instance with dyadic weights (all encoding arithmetic exact)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((num_vertices, num_vertices)) < edge_probability, k=1)
    adjacency = upper | upper.T
    weights = rng.integers(1, 16, size=num_vertices) / 8.0
    instance = MVCInstance(
        adjacency=adjacency, weights=weights, name=f"parity-mvc-{edge_probability}"
    )
    return MVCProblem(instance, storage=storage)


def integer_tsp_problem(num_cities: int, storage: str, seed: int = 0) -> TSPProblem:
    """Random TSP instance with integer distances (exact arithmetic)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(1, 100, size=(num_cities, num_cities)), k=1)
    distances = (upper + upper.T).astype(np.float64)
    instance = TSPInstance(distances=distances, name="parity-tsp")
    return TSPProblem(instance, storage=storage)


# Edge probabilities straddling the CSR auto-backend threshold (0.10), at the
# minimum sparse-regime size.  The relaxed model's density tracks the graph
# density closely, so these cover sparse-regime, boundary and dense-regime.
MVC_DENSITIES = [0.02, 0.08, 0.10, 0.30]


def both_encodings(problem_factory):
    dense = problem_factory("dense").encode()
    sparse = problem_factory("sparse").encode()
    return dense, sparse


class TestEncodingParity:
    @pytest.mark.parametrize("density", MVC_DENSITIES)
    def test_mvc_storage_matches_request(self, density):
        dense, sparse = both_encodings(
            lambda storage: dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density, storage)
        )
        assert dense.objective.storage == dense.penalty.storage == "dense"
        assert sparse.objective.storage == sparse.penalty.storage == "sparse"

    @pytest.mark.parametrize("density", MVC_DENSITIES)
    def test_mvc_models_identical(self, density):
        dense, sparse = both_encodings(
            lambda storage: dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density, storage)
        )
        for d, s in ((dense.objective, sparse.objective), (dense.penalty, sparse.penalty)):
            assert d.fingerprint() == s.fingerprint()
            assert d.offset == s.offset
            assert d.density() == s.density()
            assert np.array_equal(np.asarray(d.Q), s.dense_Q() if s.in_sparse_regime() else np.asarray(s.Q))

    @pytest.mark.parametrize("density", [0.02, 0.30])
    def test_mvc_energies_identical(self, density):
        dense, sparse = both_encodings(
            lambda storage: dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density, storage)
        )
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(8, SPARSE_MIN_VARIABLES)).astype(np.float64)
        for d, s in ((dense.objective, sparse.objective), (dense.penalty, sparse.penalty)):
            assert np.array_equal(d.energies(X), s.energies(X))
            assert np.array_equal(d.local_fields(X), s.local_fields(X))
            assert d.energy(X[0]) == s.energy(X[0])

    @pytest.mark.parametrize("density", [0.02, 0.30])
    def test_mvc_relaxed_dict_and_ising_identical(self, density):
        dense, sparse = both_encodings(
            lambda storage: dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density, storage)
        )
        A = 2.5
        d_model, s_model = dense.relax(A), sparse.relax(A)
        assert d_model.fingerprint() == s_model.fingerprint()
        assert d_model.to_dict() == s_model.to_dict()
        d_ising, s_ising = d_model.to_ising(), s_model.to_ising()
        assert np.array_equal(d_ising.h, s_ising.h)
        assert d_ising.offset == s_ising.offset
        s_J = s_ising.J.toarray() if hasattr(s_ising.J, "toarray") else np.asarray(s_ising.J)
        assert np.array_equal(np.asarray(d_ising.h), np.asarray(s_ising.h))
        assert np.array_equal(np.asarray(d_ising.J), s_J)

    def test_tsp_models_identical(self):
        dense, sparse = both_encodings(lambda storage: integer_tsp_problem(6, storage))
        for d, s in ((dense.objective, sparse.objective), (dense.penalty, sparse.penalty)):
            assert d.fingerprint() == s.fingerprint()
            assert d.to_dict() == s.to_dict()
        A = 128.0
        d_model, s_model = dense.relax(A), sparse.relax(A)
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, size=(6, 36)).astype(np.float64)
        assert np.array_equal(d_model.energies(X), s_model.energies(X))
        d_ising, s_ising = d_model.to_ising(), s_model.to_ising()
        s_J = s_ising.J.toarray() if hasattr(s_ising.J, "toarray") else np.asarray(s_ising.J)
        assert np.array_equal(np.asarray(d_ising.h), np.asarray(s_ising.h))
        assert np.array_equal(np.asarray(d_ising.J), s_J)
        assert d_ising.offset == s_ising.offset

    def test_tsp_auto_storage_matches_seed_path_for_small_instances(self):
        # Small instances (below SPARSE_MIN_VARIABLES) auto-densify, keeping
        # the historical dense numerics bit for bit.
        problem = integer_tsp_problem(6, "auto")
        encoding = problem.encode()
        assert encoding.objective.storage == "dense"
        assert encoding.penalty.storage == "dense"


class TestSolveParity:
    @pytest.mark.parametrize("density", MVC_DENSITIES)
    @pytest.mark.parametrize("solver", ["sa?num_sweeps=6", "tabu?num_steps=12"])
    def test_mvc_seeded_solve_byte_identical(self, density, solver):
        results = {}
        for storage in ("dense", "sparse"):
            problem = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, density, storage)
            with SolveService(seed=0) as service:
                results[storage] = service.solve(
                    problem=problem,
                    relaxation_parameter=2.0,
                    solver=solver,
                    num_reads=3,
                    seed=123,
                )
        dense, sparse = results["dense"], results["sparse"]
        assert np.array_equal(dense.samples.assignments, sparse.samples.assignments)
        assert np.array_equal(dense.samples.energies, sparse.samples.energies)

    def test_qbsolv_seeded_solve_byte_identical_across_storage(self):
        # qbsolv branches on the auto-selected operator kind (a function of
        # size/density, not storage), so both storages of an in-regime model
        # follow the same trajectory — required for the storage-invariant
        # fingerprint to be a sound cache/grouping key.
        self._assert_qbsolv_storage_parity(num_reads=1)

    def test_qbsolv_multi_read_seeded_solve_byte_identical_across_storage(self):
        # Several reads take the batched lock-step loop (one read takes the
        # scalar kernel), so pin storage invariance on that path too.
        self._assert_qbsolv_storage_parity(num_reads=4)

    @staticmethod
    def _assert_qbsolv_storage_parity(num_reads):
        results = {}
        for storage in ("dense", "sparse"):
            problem = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, 0.02, storage)
            with SolveService(seed=0) as service:
                results[storage] = service.solve(
                    problem=problem,
                    relaxation_parameter=2.0,
                    solver="qbsolv?subproblem_size=32&max_rounds=1",
                    num_reads=num_reads,
                    seed=9,
                )
        assert np.array_equal(
            results["dense"].samples.assignments, results["sparse"].samples.assignments
        )
        assert np.array_equal(
            results["dense"].samples.energies, results["sparse"].samples.energies
        )

    def test_qbsolv_runs_on_sparse_regime_models(self):
        # qbsolv steers through the sparse operator instead of densifying; the
        # returned energies are still re-scored against the exact model.
        problem = dyadic_mvc_problem(SPARSE_MIN_VARIABLES, 0.02, "sparse")
        model = problem.build_qubo(2.0)
        assert model.in_sparse_regime()
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
        results = {}
        for storage in ("dense", "sparse"):
            problem = integer_tsp_problem(5, storage)
            with SolveService(seed=0) as service:
                results[storage] = service.solve(
                    problem=problem,
                    relaxation_parameter=256.0,
                    solver="sa?num_sweeps=8",
                    num_reads=4,
                    seed=11,
                )
        dense, sparse = results["dense"], results["sparse"]
        assert np.array_equal(dense.samples.assignments, sparse.samples.assignments)
        assert np.array_equal(dense.samples.energies, sparse.samples.energies)


class TestLazyServiceEncoding:
    def test_model_key_does_not_materialise(self, monkeypatch):
        problem = dyadic_mvc_problem(32, 0.3, "auto")
        calls = []
        original = RelaxedEncoding.relax
        monkeypatch.setattr(
            RelaxedEncoding, "relax", lambda self, A: calls.append(A) or original(self, A)
        )
        request = SolveRequest(problem=problem, relaxation_parameter=2.0, solver="sa")
        key = request.model_key()
        assert calls == []
        assert f"A={float(2.0).hex()}" in key
        assert key == request.model_key()

    def test_model_key_distinguishes_nearby_parameters(self):
        problem = dyadic_mvc_problem(16, 0.4, "auto")
        a = SolveRequest(problem=problem, relaxation_parameter=2.0, solver="sa")
        b = SolveRequest(
            problem=problem, relaxation_parameter=2.0 + 1e-10, solver="sa"
        )
        assert a.model_key() != b.model_key()

    def test_map_requests_materialises_once_per_group(self, monkeypatch):
        problem = dyadic_mvc_problem(24, 0.3, "auto")
        calls = []
        original = RelaxedEncoding.relax
        monkeypatch.setattr(
            RelaxedEncoding, "relax", lambda self, A: calls.append(A) or original(self, A)
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
        with SolveService(seed=0) as service:
            results = service.map_requests(requests)
        assert len(results) == 3
        assert all(result.batched_group_size == 3 for result in results)
        assert calls == [2.0]

    def test_problem_requests_group_with_model_requests_is_separate(self):
        problem = dyadic_mvc_problem(16, 0.4, "auto")
        model = problem.build_qubo(2.0)
        problem_request = SolveRequest(
            problem=problem, relaxation_parameter=2.0, solver="sa?num_sweeps=4"
        )
        model_request = SolveRequest(model=model, solver="sa?num_sweeps=4")
        # Keys differ in namespace (encoding+A vs model fingerprint) — both are
        # stable identities; solving either yields a valid result.
        assert problem_request.model_key() != model_request.model_key()

    def test_solve_keyword_forms(self):
        problem = dyadic_mvc_problem(16, 0.4, "auto")
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
        problem = dyadic_mvc_problem(16, 0.4, "auto")
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
        assert relaxed.in_sparse_regime()
        assert relaxed.density() <= 0.01

    def test_sparse_instance_generator_stays_sparse(self):
        instance = generate_sparse_mvc_instance(self.N, num_edges=self.NUM_EDGES, rng=1)
        assert instance.is_sparse
        assert instance.num_vertices == self.N
        assert instance.num_edges == self.NUM_EDGES
        edges = instance.edges()
        assert edges.shape == (self.NUM_EDGES, 2)
        assert np.all(edges[:, 0] < edges[:, 1])
