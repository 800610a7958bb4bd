"""Batched wavefront execution: bit-identity, exceptions, pre-warming.

The batched sweep's contract is that it is *invisible* — every
observable output of ``compiled_align_batch`` equals running
``compiled_align`` per pair, for any batch composition the service can
produce: shuffled mixed lengths, mixed parameter sets, a single pair,
an empty flush, and the all-identical batch the cache's single-flight
path collapses to.  The exception contract matches too: the first
invalid pair in submission order raises the same error the single-pair
call would.

Alongside ride the PR's pre-warm regressions (lowering is memoized and
primed at construction/worker-ready time, never on the first request)
and the ``DeviceRuntime.run`` fast-path plumbing (auto-engage, the
per-pair path a timeout selects, and the per-pair fallback that keeps
failure isolation).
"""

import dataclasses
import random

import numpy as np
import pytest

import repro.backend as backend_pkg
from repro.backend import (
    BATCH_BACKENDS,
    compiled_align,
    compiled_align_batch,
    get_batch_backend,
    prewarm,
)
from repro.backend import compiler
from repro.host import DeviceRuntime, RunOptions
from repro.kernels import get_kernel, kernel_ids
from repro.obs import TraceRecorder, set_recorder
from repro.shard import Deployment
from repro.synth import LaunchConfig
from repro.systolic.engine import SystolicAlignmentError
from repro.verify_fuzz import generate_case

ALL_KERNELS = tuple(kernel_ids())


def _single(spec, query, reference, n_pe, params=None, collect_matrix=False):
    return compiled_align(
        spec, query, reference, params=params, n_pe=n_pe,
        collect_matrix=collect_matrix,
    )


def assert_same_result(single, batched, collect_matrix=False):
    """Every observable output must match the single-pair run exactly."""
    assert batched.score == single.score
    assert type(batched.score) is type(single.score)
    assert batched.start == single.start
    assert batched.end == single.end
    assert batched.alignment == single.alignment
    assert batched.cycles == single.cycles
    if collect_matrix:
        assert batched.matrix.dtype == single.matrix.dtype
        assert np.array_equal(batched.matrix, single.matrix)


def _mixed_batch(kid, n=6, max_len=24):
    """A deterministic, shuffled, mixed-length batch for one kernel."""
    cases = [generate_case(kid, 977 * kid + s, max_len=max_len) for s in range(n)]
    random.Random(kid).shuffle(cases)
    pairs = [(case.query, case.reference) for case in cases]
    n_pes = [case.n_pe for case in cases]
    return pairs, n_pes


class TestBatchedBitIdentity:
    """The core property: batched == per-pair, byte for byte."""

    @pytest.mark.parametrize("kid", ALL_KERNELS)
    def test_shuffled_mixed_length_batch(self, kid):
        spec = get_kernel(kid)
        pairs, n_pes = _mixed_batch(kid)
        batched = compiled_align_batch(spec, pairs, n_pe=n_pes)
        assert len(batched) == len(pairs)
        for (query, reference), n_pe, result in zip(pairs, n_pes, batched):
            assert_same_result(
                _single(spec, query, reference, n_pe), result
            )

    @pytest.mark.parametrize("kid", (1, 9, 15))
    def test_collected_matrices_identical(self, kid):
        spec = get_kernel(kid)
        pairs, n_pes = _mixed_batch(kid, n=4, max_len=16)
        batched = compiled_align_batch(
            spec, pairs, n_pe=n_pes, collect_matrix=True
        )
        for (query, reference), n_pe, result in zip(pairs, n_pes, batched):
            assert_same_result(
                _single(spec, query, reference, n_pe, collect_matrix=True),
                result, collect_matrix=True,
            )

    @pytest.mark.parametrize("kid", ALL_KERNELS)
    def test_equal_shape_batch_matches_systolic(self, kid):
        """Equal-shape lanes take the sweep's unmasked branch with B > 1."""
        from repro.systolic import align

        spec = get_kernel(kid)
        cases = [generate_case(kid, 613 * kid + s, max_len=20) for s in range(4)]
        n_rows = min(len(case.query) for case in cases)
        n_cols = min(len(case.reference) for case in cases)
        pairs = [
            (case.query[:n_rows], case.reference[:n_cols]) for case in cases
        ]
        n_pes = [case.n_pe for case in cases]
        batched = compiled_align_batch(
            spec, pairs, n_pe=n_pes, collect_matrix=True
        )
        for (query, reference), n_pe, result in zip(pairs, n_pes, batched):
            assert_same_result(
                align(spec, query, reference, n_pe=n_pe, collect_matrix=True),
                result, collect_matrix=True,
            )

    def test_empty_batch(self):
        assert compiled_align_batch(get_kernel(1), []) == []

    @pytest.mark.parametrize("kid", (1, 5, 11))
    def test_batch_of_one(self, kid):
        spec = get_kernel(kid)
        case = generate_case(kid, 7, max_len=20)
        (result,) = compiled_align_batch(
            spec, [(case.query, case.reference)], n_pe=case.n_pe
        )
        assert_same_result(
            _single(spec, case.query, case.reference, case.n_pe), result
        )

    def test_all_pairs_identical(self):
        """The shape the cache's single-flight dedup collapses to."""
        spec = get_kernel(1)
        case = generate_case(1, 42, max_len=20)
        pair = (case.query, case.reference)
        batched = compiled_align_batch(spec, [pair] * 5, n_pe=8)
        single = _single(spec, *pair, n_pe=8)
        assert len(batched) == 5
        for result in batched:
            assert_same_result(single, result)

    @pytest.mark.parametrize("kid", (1, 3))
    def test_mixed_params_batch(self, kid):
        """Per-pair params bucket by identity yet stay bit-identical."""
        spec = get_kernel(kid)
        default = spec.default_params
        other = dataclasses.replace(default, match=3)
        pairs, _ = _mixed_batch(kid, n=6, max_len=20)
        params = [default, other, default, other, other, default]
        batched = compiled_align_batch(spec, pairs, params=params, n_pe=4)
        for (query, reference), p, result in zip(pairs, params, batched):
            assert_same_result(
                _single(spec, query, reference, 4, params=p), result
            )

    def test_batch_obs_counters(self):
        """Sweep/waste accounting lands in the engine.batch.* metrics."""
        recorder = TraceRecorder()
        previous = set_recorder(recorder)
        try:
            pairs, n_pes = _mixed_batch(1, n=5, max_len=20)
            compiled_align_batch(get_kernel(1), pairs, n_pe=n_pes)
        finally:
            set_recorder(previous)
        counters = recorder.snapshot()["counters"]
        gauges = recorder.snapshot()["gauges"]
        assert counters["engine.batch.pairs"] == 5
        assert counters["engine.batch.sweeps"] >= 1
        assert counters["engine.batch.padded_cells"] >= counters[
            "engine.batch.lane_cells"
        ]
        assert 0.0 <= gauges["engine.batch.waste_frac"] < 1.0


class TestBatchExceptionParity:
    """The first invalid pair (submission order) raises the single error."""

    def test_invalid_first_pair(self):
        spec = get_kernel(1)
        good = generate_case(1, 3, max_len=16)
        with pytest.raises(SystolicAlignmentError) as single_err:
            compiled_align(spec, (), good.reference)
        with pytest.raises(SystolicAlignmentError) as batch_err:
            compiled_align_batch(
                spec, [((), good.reference), (good.query, good.reference)]
            )
        assert str(batch_err.value) == str(single_err.value)

    def test_first_offender_wins(self):
        """Two bad pairs: the earlier submission index's error surfaces."""
        spec = get_kernel(1)
        good = generate_case(1, 3, max_len=16)
        too_long = tuple(range(0, 4)) * 100  # 400 > max_query_len
        with pytest.raises(SystolicAlignmentError) as single_err:
            compiled_align(spec, too_long, good.reference, max_query_len=64)
        with pytest.raises(SystolicAlignmentError) as batch_err:
            compiled_align_batch(
                spec,
                [
                    (good.query, good.reference),
                    (too_long, good.reference),
                    ((), good.reference),
                ],
                max_query_len=64,
            )
        assert str(batch_err.value) == str(single_err.value)


class TestPrewarm:
    """Lowering is memoized and primed before the first request."""

    def test_prewarm_populates_compiler_cache(self):
        spec = get_kernel(1)
        assert prewarm(spec) is True
        before = len(compiler._CACHE)
        # memoized: a second warm (and the align that follows) reuses
        # the cached lowering instead of re-generating the PE source
        assert prewarm(spec) is True
        assert len(compiler._CACHE) == before
        cached = compiler.lower(spec, spec.default_params)
        assert compiler.lower(spec, spec.default_params) is cached

    def test_prewarm_swallows_unsupported_specs(self, monkeypatch):
        def boom(spec, params=None):
            raise compiler.UnsupportedSpecError("not lowerable")

        monkeypatch.setattr(compiler, "lower", boom)
        assert compiler.prewarm(get_kernel(1)) is False

    def test_runtime_construction_prewarms_compiled(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            backend_pkg, "prewarm",
            lambda spec, params=None: calls.append(spec.kernel_id) or True,
        )
        config = LaunchConfig(n_pe=4, max_query_len=32, max_ref_len=32)
        DeviceRuntime(get_kernel(1), config, backend="compiled")
        assert calls == [1]
        DeviceRuntime(get_kernel(1), config, backend="systolic")
        assert calls == [1]  # systolic has no compiled artifact to warm

    def test_deployment_prewarm(self):
        compiled = Deployment(kernel_ids=(1, 3), backend="compiled")
        assert compiled.prewarm() == 2
        systolic = Deployment(kernel_ids=(1, 3), backend="systolic")
        assert systolic.prewarm() == 0


class TestRuntimeFastPath:
    """`DeviceRuntime.run` wiring: auto-engage, per-pair path, fallback."""

    def _runtime(self, backend="compiled"):
        return DeviceRuntime(
            get_kernel(1),
            LaunchConfig(n_pe=8, max_query_len=64, max_ref_len=64),
            backend=backend,
        )

    def _pairs(self, n=5):
        cases = [generate_case(1, 31 + s, max_len=24) for s in range(n)]
        return [(case.query, case.reference) for case in cases]

    def test_registry_exposes_batch_backend(self):
        assert set(BATCH_BACKENDS) == {"compiled"}
        assert get_batch_backend("compiled") is compiled_align_batch
        assert get_batch_backend("systolic") is None

    def test_fast_path_matches_per_pair(self):
        runtime = self._runtime()
        pairs = self._pairs()
        recorder = TraceRecorder()
        previous = set_recorder(recorder)
        try:
            fast = runtime.run(pairs)
        finally:
            set_recorder(previous)
        # a per-pair timeout needs per-pair calls, so it skips the sweep
        slow = runtime.run(pairs, options=RunOptions(timeout=60.0))
        assert not fast.errors and not slow.errors
        assert recorder.snapshot()["counters"]["host.batched_fast_path"] == 1
        for fast_result, slow_result in zip(fast.results, slow.results):
            assert_same_result(slow_result, fast_result)
        assert fast.schedule == slow.schedule

    def test_fallback_isolates_failing_pair(self):
        """A poisoned batch degrades to per-pair WorkError isolation."""
        runtime = self._runtime()
        pairs = self._pairs(3)
        pairs.insert(1, ((), pairs[0][1]))  # empty query: always invalid
        outcome = runtime.run(pairs)
        assert [error.index for error in outcome.errors] == [1]
        assert outcome.errors[0].error_type == "SystolicAlignmentError"
        assert outcome.results[1] is None
        assert all(
            result is not None
            for index, result in enumerate(outcome.results)
            if index != 1
        )
