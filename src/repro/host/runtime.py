"""Device runtime: the host program's user-facing API (Section 4, step 6).

``DeviceRuntime`` bundles what the paper's OpenCL host code does by hand:
it owns a synthesized kernel configuration, accepts batches of sequence
pairs, runs each pair through the functional engine (results) while the
scheduler model accounts for block occupancy (performance), and reports
batch-level throughput and utilization.

``run`` is the single batch entry point and takes one documented
:class:`RunOptions` value for every execution knob:

* ``workers`` fans the functional work across CPU cores through
  :mod:`repro.parallel` — the software mirror of the N_K channel
  fan-out — while the performance model still accounts for the
  *device's* concurrency, and a failing pair becomes a structured error
  record instead of aborting the batch;
* ``timeout`` bounds each pair's wall-clock seconds;
* ``backend`` overrides the runtime's constructed backend for one call
  (backends are bit-identical, so this only moves wall-clock).

When the backend has a whole-batch path (``backend="compiled"``) and
the run is serial with no timeout, the entire batch goes to one
:func:`repro.backend.compiled_align_batch` call instead of N per-pair
calls, falling back to per-pair execution (and its failure isolation)
if the sweep raises.

Execution reports through the current :mod:`repro.obs` recorder: a
``host.run`` span brackets the batch, with child ``host.execute``
(functional work) and ``host.schedule`` (performance model) spans — the
split that separates where wall-clock goes from what the modelled device
would have done.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.result import AlignmentResult
from repro.core.spec import KernelSpec
from repro.host.scheduler import AlignmentBatch, HostScheduler, ScheduleResult
from repro.obs.recorder import get_recorder
from repro.parallel import ParallelExecutor, WorkError
from repro.synth.compiler import LaunchConfig, SynthesisReport, synthesize

@dataclass(frozen=True)
class RunOptions:
    """Every execution knob of one :meth:`DeviceRuntime.run` call.

    ``workers=None`` (the default) keeps the deterministic serial path:
    every pair runs in-process, in order, producing bit-identical
    results.  ``workers > 1`` fans pairs across a process pool; that
    path requires the runtime's spec to be the registered kernel
    (worker processes re-resolve it by id).  ``timeout`` bounds each
    pair's wall-clock seconds.

    ``backend=None`` uses the backend the runtime was constructed with;
    naming one (``"systolic"`` / ``"compiled"``) overrides it for this
    call only — results are bit-identical either way, so the override
    moves wall-clock, never answers.
    """

    workers: Optional[int] = None
    timeout: Optional[float] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    @property
    def n_workers(self) -> int:
        """The effective process-pool width (``None`` means serial)."""
        return 1 if self.workers is None else self.workers


def _align_pair_task(payload: Tuple, _seed: int) -> AlignmentResult:
    """Picklable per-pair work item for pooled execution.

    Kernels are resolved by id inside the worker because
    :class:`~repro.core.spec.KernelSpec` closures do not pickle; the
    backend travels by name for the same reason.
    """
    from repro.backend import get_backend
    from repro.kernels import get_kernel

    kernel_id, backend, params, n_pe, ii, max_q, max_r, query, reference = payload
    return get_backend(backend)(
        get_kernel(kernel_id), query, reference, params=params,
        n_pe=n_pe, ii=ii, max_query_len=max_q, max_ref_len=max_r,
    )


@dataclass
class BatchOutcome:
    """Results plus the modelled performance of one submitted batch.

    ``results`` is index-aligned with the submitted pairs; a pair whose
    alignment failed holds ``None`` there and a :class:`WorkError` (with
    the matching index) in ``errors``.
    """

    results: List[Optional[AlignmentResult]]
    schedule: ScheduleResult
    clock_mhz: float
    errors: List[WorkError] = field(default_factory=list)

    @property
    def alignments_per_sec(self) -> float:
        """Batch throughput under the schedule model."""
        return self.schedule.throughput(self.clock_mhz)

    @property
    def utilization(self) -> float:
        """Mean block occupancy while draining the batch."""
        return self.schedule.utilization


class DeviceRuntime:
    """A deployed kernel: functional alignment + performance accounting."""

    def __init__(
        self,
        spec: KernelSpec,
        config: Optional[LaunchConfig] = None,
        params: Any = None,
        backend: str = "systolic",
        pace: Optional[float] = None,
    ) -> None:
        from repro.backend import get_backend, get_batch_backend

        if pace is not None and pace <= 0:
            raise ValueError(f"pace must be positive, got {pace}")
        self.spec = spec
        self.config = config or LaunchConfig()
        self.params = params if params is not None else spec.default_params
        self.backend = backend
        #: Wall-clock pacing: when set, ``run`` sleeps until the batch
        #: has taken at least ``pace`` x the modelled device time
        #: (``makespan_cycles / fmax``).  This makes a runtime behave
        #: like the device it models — service time scales with N_PE /
        #: N_B and a replica is real, GIL-free parallel capacity (the
        #: sleep releases the GIL) — which is what the autoscale demo
        #: and capacity experiments need from a simulated fleet.
        self.pace = pace
        self._align_fn = get_backend(backend)
        self._batch_fn = get_batch_backend(backend)
        if self._batch_fn is not None:
            # Pre-warm lowering on the construction path (memoized in the
            # compiler cache) so the first request never pays for it;
            # specs outside the compiled surface keep failing lazily at
            # align time, exactly as before.
            from repro.backend import prewarm

            prewarm(spec, self.params)
        self.report: SynthesisReport = synthesize(spec, self.config)
        if not self.report.feasible:
            raise ValueError(
                f"{spec.name} at N_PE={self.config.n_pe} N_B={self.config.n_b} "
                f"N_K={self.config.n_k} does not fit the device: "
                f"{self.report.overflows()}"
            )
        self._scheduler = HostScheduler(self.config.n_k, self.config.n_b)

    # -- the batch entry point ----------------------------------------

    def _backend_fns(self, backend: Optional[str]):
        """(name, align_fn, batch_fn) of the effective backend."""
        if backend is None or backend == self.backend:
            return self.backend, self._align_fn, self._batch_fn
        from repro.backend import get_backend, get_batch_backend

        return backend, get_backend(backend), get_batch_backend(backend)

    def run(
        self,
        pairs: Sequence[Tuple[Sequence[Any], Sequence[Any]]],
        *,
        options: Optional[RunOptions] = None,
    ) -> BatchOutcome:
        """Align a batch with host-side parallelism and failure isolation.

        All execution knobs travel in ``options`` (see
        :class:`RunOptions`); failed pairs surface in ``errors`` with
        their batch index, and surviving pairs are unaffected.  An
        empty batch is a no-op: the scheduler already models it as a
        zero-cycle schedule, so online callers (the service batcher)
        never special-case it.
        """
        opts = options if options is not None else RunOptions()
        started = time.monotonic()
        backend, align_fn, batch_fn = self._backend_fns(opts.backend)
        n_workers = opts.n_workers
        use_batch = (
            n_workers == 1 and opts.timeout is None and batch_fn is not None
        )
        recorder = get_recorder()
        pairs = list(pairs)
        with recorder.span(
            "host.run", kernel=self.spec.name, pairs=len(pairs),
            workers=n_workers,
        ):
            results: Optional[List[Optional[AlignmentResult]]] = None
            errors: List[WorkError] = []
            with recorder.span("host.execute", pairs=len(pairs)):
                if use_batch:
                    try:
                        results = list(batch_fn(
                            self.spec, pairs, params=self.params,
                            n_pe=self.config.n_pe, ii=self.report.ii,
                            max_query_len=self.config.max_query_len,
                            max_ref_len=self.config.max_ref_len,
                        ))
                        if recorder.enabled:
                            recorder.count("host.batched_fast_path")
                    except Exception:
                        # fall through to the per-pair path, which turns
                        # the failing pair(s) into WorkError records
                        # instead of poisoning the whole batch
                        results = None
                if results is None:
                    executor = ParallelExecutor(
                        workers=n_workers, timeout=opts.timeout
                    )
                    if n_workers == 1:
                        def task(pair, _seed):
                            return self._align_pair(*pair, align_fn=align_fn)

                        batch_result = executor.map(task, pairs)
                    else:
                        from repro.kernels import is_registered

                        if not is_registered(self.spec):
                            raise ValueError(
                                f"parallel submission needs a registered "
                                f"kernel so workers can resolve it by id; "
                                f"{self.spec.name!r} is not kernel "
                                f"#{self.spec.kernel_id} in the registry — "
                                f"use workers=1"
                            )
                        payloads = [
                            (
                                self.spec.kernel_id, backend,
                                self.params,
                                self.config.n_pe, self.report.ii,
                                self.config.max_query_len,
                                self.config.max_ref_len, query, reference,
                            )
                            for query, reference in pairs
                        ]
                        batch_result = executor.map(
                            _align_pair_task, payloads
                        )
                    results = batch_result.values(strict=False)
                    errors = batch_result.errors
            with recorder.span("host.schedule", jobs=len(pairs)):
                batch = AlignmentBatch()
                for result in results:
                    if result is not None:
                        batch.add(result.cycles.total)
                schedule = self._scheduler.run(batch)
            if self.pace is not None and schedule.makespan_cycles > 0:
                modelled_s = (
                    schedule.makespan_cycles / (self.report.fmax_mhz * 1e6)
                )
                remaining = (
                    started + modelled_s * self.pace - time.monotonic()
                )
                if remaining > 0:
                    time.sleep(remaining)
        if recorder.enabled:
            recorder.count("host.pairs", len(pairs))
            recorder.count("host.pair_errors", len(errors))
            recorder.gauge("host.block_utilization", schedule.utilization)
            recorder.gauge("host.dispatch_fraction", schedule.dispatch_fraction)
        return BatchOutcome(
            results=results,
            schedule=schedule,
            clock_mhz=self.report.fmax_mhz,
            errors=errors,
        )

    def _align_pair(
        self,
        query: Sequence[Any],
        reference: Sequence[Any],
        align_fn: Any = None,
    ) -> AlignmentResult:
        """One pair on one block (the serial-path work item)."""
        fn = align_fn if align_fn is not None else self._align_fn
        return fn(
            self.spec, query, reference, params=self.params,
            n_pe=self.config.n_pe, ii=self.report.ii,
            max_query_len=self.config.max_query_len,
            max_ref_len=self.config.max_ref_len,
        )
