"""Property-style randomized round-trip tests for every wire frame type.

Each test drives :mod:`repro.service.distributed.wire` through many seeded
random cases, biased toward the degenerate shapes that byte-precise framing
code gets wrong: one-variable models, zero-nnz CSR triplets, empty and
single-row sample sets, zero-length buffers and unicode metadata.  Round
trips must preserve *identity* — model fingerprints, raw array bytes — not
just approximate equality.  (Plain seeded randomization, not `hypothesis`:
the CI image installs only numpy/scipy/pytest.)
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.qubo.model import QUBOModel, random_qubo
from repro.qubo.sampleset import SampleSet
from repro.service.distributed import wire

NUM_TRIALS = 25

UNICODE_NAMES = ["", "plain", "ünïcode-Ω", "注釈付き", "emoji-☃-model", "tab\tname"]


def random_dense_model(rng: np.random.Generator) -> QUBOModel:
    n = int(rng.choice([1, 1, 2, 3, 9, 17]))  # bias toward tiny shapes
    Q = rng.normal(size=(n, n))
    return QUBOModel(
        Q,
        offset=float(rng.normal()),
        name=str(rng.choice(UNICODE_NAMES)),
    )


def random_sparse_model(rng: np.random.Generator) -> QUBOModel:
    n = int(rng.choice([600, 700]))
    nnz = int(rng.choice([0, 1, 5, 200]))  # zero-nnz is a first-class case
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.normal(size=nnz)
    Q = sparse.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    return QUBOModel(Q, offset=float(rng.normal()), name=str(rng.choice(UNICODE_NAMES)))


def random_sample_set(rng: np.random.Generator) -> SampleSet:
    batch = int(rng.choice([0, 1, 1, 2, 6]))
    n = int(rng.choice([1, 3, 11]))
    return SampleSet(
        rng.integers(0, 2, size=(batch, n), dtype=np.int8),
        rng.normal(size=batch),
        num_occurrences=rng.integers(1, 5, size=batch),
        solver_name=str(rng.choice(UNICODE_NAMES)),
        info={"wall_time_s": float(rng.random()), "nested": {"steps": int(rng.integers(100))}},
    )


def assert_sample_sets_identical(a: SampleSet, b: SampleSet) -> None:
    assert np.array_equal(a.assignments, b.assignments)
    assert a.assignments.dtype == b.assignments.dtype
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.num_occurrences, b.num_occurrences)
    assert a.solver_name == b.solver_name
    assert a.info == b.info


class TestRawFraming:
    def test_random_buffer_manifests_round_trip(self):
        rng = np.random.default_rng(2024)
        dtypes = [np.float64, np.float32, np.int64, np.int32, np.int8, np.uint8]
        for _ in range(NUM_TRIALS):
            buffers = []
            for _ in range(int(rng.integers(0, 5))):
                shape = tuple(int(s) for s in rng.integers(0, 4, size=int(rng.integers(0, 3))))
                dtype = dtypes[int(rng.integers(len(dtypes)))]
                buffers.append((rng.normal(size=shape) * 100).astype(dtype))
            header = {"tag": str(rng.choice(UNICODE_NAMES)), "n": int(rng.integers(100))}
            kind, decoded_header, decoded = wire.decode_frame(
                wire.encode_frame("raw", header, buffers)
            )
            assert kind == "raw"
            assert decoded_header["tag"] == header["tag"]
            assert decoded_header["n"] == header["n"]
            assert len(decoded) == len(buffers)
            for sent, got in zip(buffers, decoded):
                assert sent.shape == got.shape
                assert sent.dtype == got.dtype
                assert np.array_equal(sent, got)

    def test_zero_dimensional_buffer_round_trips(self):
        scalar = np.array(3.25)
        _, _, decoded = wire.decode_frame(wire.encode_frame("raw", {}, [scalar]))
        assert decoded[0].shape == () and decoded[0] == 3.25


class TestModelFrames:
    def test_random_dense_models_fingerprint_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(NUM_TRIALS):
            model = random_dense_model(rng)
            decoded = wire.decode_model(wire.encode_model(model))
            assert decoded.fingerprint() == model.fingerprint()
            assert decoded.name == model.name
            assert decoded.offset == model.offset
            states = rng.integers(0, 2, size=(3, model.num_variables)).astype(np.int8)
            assert np.array_equal(decoded.energies(states), model.energies(states))

    def test_one_variable_model(self):
        model = QUBOModel(np.array([[2.5]]), offset=-1.0, name="n=1")
        decoded = wire.decode_model(wire.encode_model(model))
        assert decoded.fingerprint() == model.fingerprint()
        assert decoded.num_variables == 1

    def test_random_sparse_models_stay_sparse(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            model = random_sparse_model(rng)
            decoded = wire.decode_model(wire.encode_model(model))
            assert decoded.fingerprint() == model.fingerprint()
            assert decoded.is_sparse, "decode must not densify a CSR model"

    def test_zero_nnz_csr_round_trips(self):
        n = 640
        model = QUBOModel(sparse.csr_array((n, n)), offset=4.5, name="empty-graph")
        decoded = wire.decode_model(wire.encode_model(model))
        assert decoded.fingerprint() == model.fingerprint()
        assert decoded.offset == 4.5
        zeros = np.zeros((2, n), dtype=np.int8)
        assert np.array_equal(decoded.energies(zeros), model.energies(zeros))


class TestSampleSetFrames:
    def test_random_sample_sets_identical(self):
        rng = np.random.default_rng(9)
        for _ in range(NUM_TRIALS):
            samples = random_sample_set(rng)
            decoded = wire.decode_sample_set(wire.encode_sample_set(samples))
            assert_sample_sets_identical(samples, decoded)

    def test_empty_sample_set(self):
        samples = SampleSet(np.zeros((0, 4), dtype=np.int8), np.zeros(0), solver_name="∅")
        decoded = wire.decode_sample_set(wire.encode_sample_set(samples))
        assert decoded.num_samples == 0
        assert decoded.num_variables == 4
        assert decoded.solver_name == "∅"

    def test_single_row_sample_set(self):
        samples = SampleSet(np.array([[1]], dtype=np.int8), np.array([-2.0]))
        decoded = wire.decode_sample_set(wire.encode_sample_set(samples))
        assert_sample_sets_identical(samples, decoded)

    def test_numpy_scalars_in_info_coerce_to_json_types(self):
        samples = SampleSet(
            np.array([[1, 0]], dtype=np.int8),
            np.array([0.5]),
            info={"steps": np.int64(7), "rate": np.float32(0.25), "flag": np.bool_(True)},
        )
        decoded = wire.decode_sample_set(wire.encode_sample_set(samples))
        assert decoded.info["steps"] == 7
        assert decoded.info["rate"] == pytest.approx(0.25)
        assert decoded.info["flag"] is True


class TestEngineCallFrames:
    def test_random_engine_calls_round_trip(self):
        rng = np.random.default_rng(10)
        specs = ["sa", "pt?num_replicas=4", "tabu?tenure=16", "da?max_parallel_flips=4"]
        for _ in range(NUM_TRIALS):
            model = random_dense_model(rng)
            spec = str(rng.choice(specs))
            reads = int(rng.integers(1, 9))
            seed = int(rng.integers(0, 2**31))
            blob = wire.encode_engine_call(model, spec, reads, seed)
            _, header, buffers = wire.decode_frame(blob, expected_kind="engine_call")
            got_model = QUBOModel.from_wire(header["model"], buffers)
            assert got_model.fingerprint() == model.fingerprint()
            assert (header["solver_spec"], header["num_reads"], header["seed"]) == (
                spec, reads, seed
            )

    def test_unicode_solver_spec_survives(self):
        model = random_qubo(5, rng=0)
        blob = wire.encode_engine_call(model, "sa?note=ünïcode-Ω", 2, 3)
        _, header, _ = wire.decode_frame(blob, expected_kind="engine_call")
        assert header["solver_spec"] == "sa?note=ünïcode-Ω"

    def test_by_reference_call_refuses_full_decode(self):
        # A by-reference frame carries the fingerprint and no model to decode.
        blob = wire.encode_engine_call_ref("abc123", "sa", 2, 3)
        _, header, buffers = wire.decode_frame(blob, expected_kind="engine_call")
        assert header["model_ref"] == "abc123"
        assert "model" not in header and buffers == []

    def test_model_miss_frame(self):
        kind, header, buffers = wire.decode_frame(wire.encode_model_miss("deadbeef"))
        assert kind == "model_miss"
        assert header["model_ref"] == "deadbeef"
        assert buffers == []
