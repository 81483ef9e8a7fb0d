"""The engine's incremental kernels against the plain loops they replaced.

Batched tabu keeps its ``(R, n)`` delta matrix across steps and refreshes
only the entries a flip changed, and it keeps each replica's tabu set as a
ring of the columns it flipped at its last ``tenure`` steps.  SA's and PT's
blocked Metropolis step (``AnnealingState.metropolis_block``) reuses the
states and flip signs its proposal gathered, and counts accepts once.

The reference implementations below are the plain versions: every tabu step
recomputes the whole delta matrix and scans a ``tabu_until`` matrix, and an
SA block gathers its deltas, runs the general Metropolis test and then
gathers the block again to apply it.  Both sides must leave byte-identical
states, sample sets, generator states and per-block accept counts (which
drive SA's block-size controller), on dense and CSR models in both dtypes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems.mvc.generator import generate_sparse_mvc_instance
from repro.problems.mvc.qubo import MVCProblem
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import QUBOModel, random_qubo
from repro.solvers import simulated_annealing
from repro.solvers.engine import AdaptiveBlockSizer, AnnealingState, metropolis_accept
from repro.solvers.schedules import GeometricSchedule, resolve_schedule
from repro.solvers.simulated_annealing import SimulatedAnnealingConfig, SimulatedAnnealingSolver
from repro.solvers.tabu import TabuSearchConfig, TabuSearchSolver

DTYPES = ("float64", "float32")


# ------------------------------------------------------------- references
def reference_metropolis_accept(delta, temperature, uniforms):
    """The general Metropolis test: dtype promotion, clip, one array pass each."""
    delta = np.asarray(delta)
    dtype = np.result_type(delta.dtype, np.float32)
    accept = delta <= 0.0
    temps = np.asarray(temperature, dtype=dtype)
    if temps.ndim == 0:
        if temps > 0:
            accept = accept | (uniforms < np.exp(-np.clip(delta, 0.0, None) / temps))
        return accept
    cols = temps.reshape(-1, *([1] * (delta.ndim - 1)))
    positive = cols > 0
    safe = np.where(positive, cols, dtype.type(1.0))
    boltzmann = uniforms < np.exp(-np.clip(delta, 0.0, None) / safe)
    return accept | (boltzmann & positive)


def reference_apply_block_flips(state, block, accept) -> None:
    """Block flips that gather the block's states again to apply them."""
    if not accept.any():
        return
    for rows, op in state._groups:
        group_accept = accept[rows]
        if state.num_groups > 1 and not group_accept.any():
            continue
        active = group_accept.any(axis=0)
        cols = block[active]
        X = state.X[rows]
        dX = np.where(group_accept[:, active], 1.0 - 2.0 * X[:, cols], state.dtype.type(0.0))
        X[:, cols] += dX
        state.H[rows] += op.block_product(dX, cols)


def reference_block_step(state, block, temperature, uniforms) -> int:
    delta = state.flip_deltas(block)
    accept = reference_metropolis_accept(delta, temperature, uniforms)
    accepted = int(np.count_nonzero(accept))
    reference_apply_block_flips(state, block, accept)
    return accepted


def reference_sa(config, model, num_reads, rng):
    """Simulated annealing's sweep loop with the reference block step.

    Returns ``(best_X, info, state, counts)``, ``counts`` the accepted flips
    of every block in order.
    """
    n = model.num_variables
    temperatures = resolve_schedule(model, config.schedule)(config.num_sweeps)
    sizer = None
    if config.block_size is not None:
        block = config.block_size
    else:
        sizer = AdaptiveBlockSizer(n)
        block = sizer.block
    state = AnnealingState(model, num_reads, rng=rng, dtype=config.dtype)
    counts = []
    ran_block = block
    for temperature in temperatures:
        ran_block = block
        order = rng.permutation(n)
        uniforms = state.uniforms(rng, (num_reads, n))
        accepted = 0
        for start in range(0, n, block):
            cols = order[start : start + block]
            counts.append(
                reference_block_step(state, cols, temperature, uniforms[:, start : start + cols.size])
            )
            accepted += counts[-1]
        state.refresh_energies()
        state.update_best()
        if sizer is not None:
            block = sizer.update(accepted / (num_reads * n))
    info = {
        "num_sweeps": config.num_sweeps,
        "block_size": config.block_size if sizer is None else "adaptive",
        "final_block_size": ran_block,
    }
    return state.best_X, info, state, counts


def reference_tabu_search(config, state, rng) -> int:
    """Batched tabu that recomputes every delta and scans ``tabu_until`` each step.

    Returns the number of steps at which some replica had no allowed move.
    """
    n = state.num_variables
    num_reads = state.num_reads
    tenure = config.tenure if config.tenure is not None else min(20, n // 4 + 1)
    inf = state.dtype.type(np.inf)
    tabu_until = np.full((num_reads, n), -1, dtype=np.int64)
    stall = np.zeros(num_reads, dtype=np.int64)
    replica_rows = np.arange(num_reads)
    blocked_steps = 0
    for step in range(config.num_steps):
        delta = state.flip_deltas()
        allowed = tabu_until < step
        allowed |= (state.current_energies[:, None] + delta) < state.best_energies[:, None]
        blocked = ~allowed.any(axis=1)
        if blocked.any():
            blocked_steps += 1
            allowed[blocked] = True
        cols = np.where(allowed, delta, inf).argmin(axis=1)
        state.apply_single_flips(replica_rows, cols, delta[replica_rows, cols])
        tabu_until[replica_rows, cols] = step + tenure
        improved = state.current_energies < state.best_energies - 1e-12
        state.update_best()
        stall = np.where(improved, 0, stall + 1)
        restart = stall >= config.restart_after
        if restart.any():
            num_restarts = int(restart.sum())
            perturbed = np.array(state.best_X[restart], dtype=np.float64)
            num_flips = max(1, n // 10)
            flip_cols = rng.random((num_restarts, n)).argsort(axis=1)[:, :num_flips]
            flip_rows = np.arange(num_restarts)[:, None]
            perturbed[flip_rows, flip_cols] = 1.0 - perturbed[flip_rows, flip_cols]
            state.reset_replicas(restart, perturbed)
            tabu_until[restart] = -1
            stall[restart] = 0
    return blocked_steps


# ----------------------------------------------------------------- models
def _tsp_model():
    problem = TSPProblem(generate_instance(6, rng=6, name="reference-tsp36"))
    return problem.build_qubo(0.8 * problem.relaxation_scale())


def _csr_model():
    problem = MVCProblem(generate_sparse_mvc_instance(600, edge_density=0.012, rng=4))
    return problem.build_qubo(0.9 * problem.relaxation_scale())


def _csr_zero_diagonal_model():
    # Most diagonal entries are not stored: a flip's own field then does not
    # move, but its delta does.
    return random_qubo(600, density=0.02, rng=3, storage="sparse")


MODELS = {"dense": _tsp_model, "csr": _csr_model, "csr-zero-diagonal": _csr_zero_diagonal_model}


@pytest.fixture(scope="module")
def models():
    built = {name: build() for name, build in MODELS.items()}
    for name, model in built.items():
        assert model.storage == ("sparse" if name.startswith("csr") else "dense")
    return built


def assert_same_state(a: AnnealingState, b: AnnealingState) -> None:
    for name in ("X", "H", "current_energies", "best_X", "best_energies"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name


def _group_rngs(grouped: bool):
    """The ``rng`` argument of a one-model state, or of a two-model one."""
    return [np.random.default_rng(1), np.random.default_rng(2)] if grouped else 3


def same_generator_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def assert_same_sample_set(solver, model, samples, reference_assignments) -> None:
    """``samples`` holds the bytes the solver packages from the reference reads."""
    expected = solver._finalize(model, reference_assignments, 0.0)
    for name in ("assignments", "energies", "num_occurrences"):
        assert getattr(samples, name).tobytes() == getattr(expected, name).tobytes(), name


# ------------------------------------------------------------- Metropolis
class TestMetropolisAccept:
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int64", "float16"])
    def test_matches_reference_on_scalar_and_per_row_temperatures(self, dtype):
        rng = np.random.default_rng(4)
        delta = (rng.normal(scale=3.0, size=(6, 40)) * 4).astype(dtype)
        delta[0, :4] = [0, -0.0, 6e4, -6e4] if dtype.startswith("float") else [0, 0, 9, -9]
        uniforms = rng.random((6, 40)).astype("float32" if dtype == "float32" else "float64")
        temperatures = [
            0.0, 0.7, 2.5, np.float64(0.3), np.float32(1.5), np.array(0.9), -1.0,
            np.array([0.0, 0.5, 1.0, 4.0, 0.1, 2.0]), [0.2, 0.3, 0.0, 9.0, 1.0, 1.0],
        ]
        for temperature in temperatures:
            with np.errstate(over="ignore"):
                expected = reference_metropolis_accept(delta, temperature, uniforms)
            accept = metropolis_accept(delta, temperature, uniforms)
            assert accept.dtype == bool
            assert accept.tobytes() == expected.tobytes(), temperature


# --------------------------------------------------------------------- SA
class TestSimulatedAnnealingBlockStep:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("storage", sorted(MODELS))
    @pytest.mark.parametrize("block_size", [None, 1, 7])
    def test_solver_matches_reference_loop(self, models, storage, dtype, block_size, monkeypatch):
        states, counts = [], []

        class Recorded(AnnealingState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

            def metropolis_block(self, *args):
                counts.append(super().metropolis_block(*args))
                return counts[-1]

        monkeypatch.setattr(simulated_annealing, "AnnealingState", Recorded)
        model = models[storage]
        config = SimulatedAnnealingConfig(num_sweeps=12, block_size=block_size, dtype=dtype)
        solver = SimulatedAnnealingSolver(config)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        samples = solver.sample(model, num_reads=5, rng=rng)
        ref_best_X, ref_info, ref_state, ref_counts = reference_sa(config, model, 5, ref_rng)

        assert_same_sample_set(solver, model, samples, ref_best_X)
        assert_same_state(states[0], ref_state)
        assert same_generator_state(rng, ref_rng)
        assert {key: samples.info[key] for key in ref_info} == ref_info
        assert counts == ref_counts

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("storage", sorted(MODELS))
    @pytest.mark.parametrize("grouped", [False, True], ids=["one-model", "grouped"])
    def test_every_block_matches_the_reference_step(self, models, storage, dtype, grouped):
        # Hot, cold and zero temperatures, so blocks range from mostly
        # accepted to accepting nothing.
        model = models[storage]
        n = model.num_variables
        grouping = [model, model.scaled(1.7)] if grouped else model
        state, ref = (
            AnnealingState(grouping, 4, rng=_group_rngs(grouped), dtype=dtype) for _ in range(2)
        )
        hot, cold = resolve_schedule(model, None).t_initial, resolve_schedule(model, None).t_final
        temperatures = list(GeometricSchedule(hot, cold)(6)) + [0.0] * 4
        rng = np.random.default_rng(11)
        counts = []
        for temperature in temperatures:
            order = rng.permutation(n)
            uniforms = state.uniforms(rng, (state.num_reads, n))
            for start in range(0, n, 9):
                block = order[start : start + 9]
                u = uniforms[:, start : start + 9]
                accepted = state.metropolis_block(block, temperature, u)
                assert accepted == reference_block_step(ref, block, temperature, u)
                counts.append(accepted)
                assert state.X.tobytes() == ref.X.tobytes()
                assert state.H.tobytes() == ref.H.tobytes()
        assert 0 in counts and max(counts) > 9

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("storage", sorted(MODELS))
    @pytest.mark.parametrize("grouped", [False, True], ids=["one-model", "grouped"])
    def test_whole_row_blocks_match_the_reference_step(self, models, storage, dtype, grouped):
        # One block of every variable, in a fresh order each step, hot and
        # then at temperature zero: every field takes a whole row's update
        # at once, the widest block product either storage runs.
        model = models[storage]
        n = model.num_variables
        grouping = [model, model.scaled(1.7)] if grouped else model
        state, ref = (
            AnnealingState(grouping, 4, rng=_group_rngs(grouped), dtype=dtype) for _ in range(2)
        )
        hot = resolve_schedule(model, None).t_initial
        rng = np.random.default_rng(12)
        counts = []
        for temperature in [hot] * 10 + [0.0] * 10:
            block = rng.permutation(n)
            u = state.uniforms(rng, (state.num_reads, n))
            accepted = state.metropolis_block(block, temperature, u)
            assert accepted == reference_block_step(ref, block, temperature, u)
            counts.append(accepted)
            assert state.X.tobytes() == ref.X.tobytes()
            assert state.H.tobytes() == ref.H.tobytes()
        assert max(counts) > n // 10

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_block_that_accepts_nothing_changes_nothing(self, dtype):
        # All-zero states of a positive diagonal: every flip is uphill, and
        # at temperature zero none is accepted.
        model = QUBOModel(np.diag(np.arange(1.0, 9.0)))
        state = AnnealingState(model, 3, initial_states=np.zeros((3, 8)), dtype=dtype)
        before = state.X.tobytes(), state.H.tobytes()
        block = np.array([5, 0, 3])
        assert state.metropolis_block(block, 0.0, np.zeros((3, 3), dtype=state.dtype)) == 0
        assert (state.X.tobytes(), state.H.tobytes()) == before


# ------------------------------------------------------------ kept deltas
class TestKeptDeltas:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("storage", sorted(MODELS))
    @pytest.mark.parametrize("grouped", [False, True], ids=["one-model", "grouped"])
    def test_single_flips_keep_the_delta_matrix_exact(self, models, storage, dtype, grouped):
        # Flips of a changing subset of replica rows, on one model and on a
        # row group per relaxation: every kept entry equals a fresh one.
        model = models[storage]
        models = [model, model.scaled(1.7)] if grouped else model
        rngs = [np.random.default_rng(1), np.random.default_rng(2)] if grouped else 1
        state = AnnealingState(models, 3, rng=rngs, dtype=dtype)
        kept = state.flip_deltas()
        rng = np.random.default_rng(6)
        for _ in range(40):
            rows = np.flatnonzero(rng.random(state.num_reads) < 0.6)
            cols = rng.integers(0, state.num_variables, size=rows.size)
            state.apply_single_flips(rows, cols, kept[rows, cols], kept=kept)
            assert np.array_equal(kept, state.flip_deltas())
        np.testing.assert_allclose(
            state.current_energies, state.energies_from_fields(), rtol=1e-4, atol=1e-3
        )


# ------------------------------------------------------------------- tabu
#: ``n -> (num_steps, tenure, restart_after)`` of each reference comparison.
#: A descent from a random state takes a few hundred steps on the CSR model,
#: so restarts need more steps than ``n``; a tenure of ``n`` or more bars
#: every column once ``n`` distinct columns have flipped without a restart.
TABU_CASES = {
    "default": lambda n: (150, None, 30),
    "restarts": lambda n: (n + 150, None, 4),
    "tenure-0": lambda n: (120, 0, 25),
    "tenure-n": lambda n: (2 * n + 100, n, 10_000),
    "tenure-above-n": lambda n: (2 * n + 100, n + 7, 10_000),
}


def _tabu_config(case, n, dtype):
    num_steps, tenure, restart_after = TABU_CASES[case](n)
    return TabuSearchConfig(
        num_steps=num_steps, tenure=tenure, restart_after=restart_after, dtype=dtype
    )


class TestBatchedTabu:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("storage", sorted(MODELS))
    @pytest.mark.parametrize("case", sorted(TABU_CASES))
    def test_search_matches_reference(self, models, storage, dtype, case):
        model = models[storage]
        config = _tabu_config(case, model.num_variables, dtype)
        state = AnnealingState(model, 6, rng=2, dtype=dtype)
        ref = AnnealingState(model, 6, rng=2, dtype=dtype)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        TabuSearchSolver(config)._search_batch(state, rng)
        blocked_steps = reference_tabu_search(config, ref, ref_rng)
        assert_same_state(state, ref)
        assert same_generator_state(rng, ref_rng)
        if case == "restarts":
            assert not same_generator_state(rng, np.random.default_rng(5))
        if case.startswith("tenure-") and case != "tenure-0":
            # The "none allowed -> all allowed" fallback ran.
            assert blocked_steps > 0

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("storage", sorted(MODELS))
    def test_solver_matches_reference(self, models, storage, dtype):
        model = models[storage]
        config = TabuSearchConfig(num_steps=90, restart_after=12, dtype=dtype)
        solver = TabuSearchSolver(config)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        samples = solver.sample(model, num_reads=4, rng=rng)
        ref = AnnealingState(model, 4, rng=ref_rng, dtype=dtype)
        reference_tabu_search(config, ref, ref_rng)
        assert_same_sample_set(solver, model, samples, ref.best_X)
        assert same_generator_state(rng, ref_rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("storage", sorted(MODELS))
    def test_kept_deltas_equal_fresh_deltas_after_every_step(
        self, models, storage, dtype, monkeypatch
    ):
        steps = []
        apply = AnnealingState.apply_single_flips

        def checked(self, rows, cols, deltas, kept=None):
            apply(self, rows, cols, deltas, kept=kept)
            assert kept is not None
            assert np.array_equal(kept, self.flip_deltas())
            steps.append(1)

        monkeypatch.setattr(AnnealingState, "apply_single_flips", checked)
        model = models[storage]
        config = TabuSearchConfig(num_steps=60, restart_after=6, dtype=dtype)
        TabuSearchSolver(config).sample(model, num_reads=5, rng=1)
        assert len(steps) == 60
