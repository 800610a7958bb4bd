"""End-to-end tests of the alignment service (TCP and in-proc).

Pins the serving subsystem's acceptance contract: a 2-runtime
mixed-kernel pool answers hundreds of concurrent requests with payloads
byte-identical to ``DeviceRuntime.run`` on the same pairs,
deadline-triggered flushes are observable in the metrics, and past the
admission bound requests are *rejected* (answered), never dropped.
"""

import threading

import pytest

from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.service import (
    AlignmentClient,
    AlignmentServer,
    BatcherConfig,
    DevicePool,
    InProcClient,
    ServiceCore,
    Status,
)
from repro.service.protocol import response_from_result
from repro.shard import Deployment
from tests.conftest import mutated_copy, random_dna

KERNEL_IDS = (1, 3)
PAIR_LENGTH = 16


def small_config(**overrides):
    base = dict(n_pe=8, n_b=4, n_k=1, max_query_len=64, max_ref_len=64)
    base.update(overrides)
    from repro.synth import LaunchConfig

    return LaunchConfig(**base)


def make_workload(n):
    """n (kernel_id, query, reference) tuples cycling the two kernels."""
    out = []
    for k in range(n):
        ref = random_dna(PAIR_LENGTH, seed=500 + k)
        qry = mutated_copy(ref, 900 + k)[:PAIR_LENGTH]
        out.append((KERNEL_IDS[k % len(KERNEL_IDS)], qry, ref))
    return out


def two_runtime_pool():
    return DevicePool([
        DeviceRuntime(get_kernel(kernel_id), small_config())
        for kernel_id in KERNEL_IDS
    ])


@pytest.fixture
def served_core():
    """A started core over a 2-runtime mixed-kernel pool."""
    core = ServiceCore(two_runtime_pool(), BatcherConfig(
        max_batch=8, max_delay_ms=15.0, max_queue_depth=512
    )).start()
    yield core
    core.stop()


class TestEndToEndTCP:
    def test_200_concurrent_mixed_kernel_requests(self, served_core):
        """The acceptance-criteria run, over real sockets."""
        reference_runtimes = {
            kernel_id: DeviceRuntime(get_kernel(kernel_id), small_config())
            for kernel_id in KERNEL_IDS
        }
        server = AlignmentServer(("127.0.0.1", 0), served_core)
        server.serve_in_thread()
        host, port = server.server_address
        client = AlignmentClient(host, port)
        try:
            workload = make_workload(200)
            slots = [
                client.submit(kernel_id, query, reference)
                for kernel_id, query, reference in workload
            ]
            responses = [slot.result(timeout=120.0) for slot in slots]
            assert all(r.status is Status.OK for r in responses)

            # Byte-identity: the wire payload (minus wall-clock latency)
            # must equal one built locally from DeviceRuntime.run.
            for (kernel_id, query, reference), slot, response in zip(
                workload, slots, responses
            ):
                local = reference_runtimes[kernel_id].run(
                    [(query, reference)]
                ).results[0]
                expected = response_from_result(
                    slot.request.request_id, local
                )
                assert response.to_line(with_latency=False) == \
                    expected.to_line(with_latency=False)

            # A solo request on an empty queue can only leave via the
            # deadline trigger — it must then show up in the metrics.
            kernel_id, query, reference = workload[0]
            assert client.align(kernel_id, query, reference).ok
            snapshot = client.metrics()
            counters = snapshot["counters"]
            assert counters["aligned_total"] == 201
            assert counters["flush_deadline_total"] >= 1
            assert counters["flush_size_total"] >= 1
            assert counters.get("rejected_total", 0) == 0
            assert snapshot["histograms"]["latency_ms"]["count"] == 201
            assert snapshot["kernels"] == [1, 3]
            assert sum(m["pairs_served"] for m in snapshot["pool"]) == 201
        finally:
            client.close()
            server.close()

    def test_control_plane_and_error_paths(self, served_core):
        server = AlignmentServer(("127.0.0.1", 0), served_core)
        server.serve_in_thread()
        host, port = server.server_address
        client = AlignmentClient(host, port)
        try:
            assert client.ping()
            unknown = client.align(9, (1, 2, 3), (1, 2, 3))
            assert unknown.status is Status.ERROR
            assert "not deployed" in unknown.error
            overlong = client.align(1, tuple([0] * 100), (0, 1))
            assert overlong.status is Status.ERROR
            assert "exceeds" in overlong.error
        finally:
            client.close()
            server.close()


class TestApiServe:
    def test_single_process_serve_answers_and_closes(self):
        """``repro.api.serve`` with one shard serves until ``close()``."""
        from repro.api import serve

        deployment = Deployment(kernel_ids=(1,), n_pe=8, max_len=64)
        server = serve(deployment)
        try:
            client = AlignmentClient(*server.address, read_timeout=60.0)
            assert client.ping()
            _kernel_id, query, reference = make_workload(1)[0]
            response = client.align(1, query, reference)
            client.close()
            local = DeviceRuntime(
                get_kernel(1), deployment.launch_config()
            ).run([(query, reference)]).results[0]
            assert response.to_line(with_latency=False) == \
                response_from_result(
                    response.request_id, local
                ).to_line(with_latency=False)
        finally:
            closer = threading.Thread(target=server.close, daemon=True)
            closer.start()
            closer.join(timeout=30.0)
        assert not closer.is_alive(), "close() did not return"


class TestBackpressure:
    def test_past_the_bound_requests_reject_not_drop(self):
        """Flooding a tiny admission bound answers every request."""
        core = ServiceCore(two_runtime_pool(), BatcherConfig(
            # max_batch > bound: the queue can never size-flush, so a
            # fast flood must hit admission control.
            max_batch=100, max_delay_ms=100.0, max_queue_depth=5
        )).start()
        client = InProcClient(core)
        try:
            workload = make_workload(50)
            slots = [
                client.submit(1, query, reference)
                for _kid, query, reference in workload
            ]
            responses = [slot.result(timeout=60.0) for slot in slots]
            ok = sum(r.status is Status.OK for r in responses)
            rejected = sum(r.status is Status.REJECTED for r in responses)
            errors = sum(r.status is Status.ERROR for r in responses)
            assert ok + rejected + errors == 50  # answered, never dropped
            assert errors == 0
            assert rejected > 0
            assert ok >= 5  # the admitted head of the flood completes
            for response in responses:
                if response.status is Status.REJECTED:
                    assert "queue is full" in response.error
            counters = core.metrics.snapshot()["counters"]
            assert counters["rejected_total"] == rejected
            assert counters["aligned_total"] == ok
        finally:
            core.stop()


class TestInProc:
    def test_context_manager_lifecycle(self):
        with ServiceCore(two_runtime_pool()) as core:
            client = InProcClient(core)
            response = client.align(1, (0, 1, 2, 3), (0, 1, 2, 3))
            assert response.ok and response.cigar == "4M"
        # After stop, new traffic is refused (answered as rejected).
        late = client.submit(1, (0, 1), (0, 1)).result(timeout=5.0)
        assert late.status is Status.REJECTED

    def test_shutdown_resolves_residual_queue(self):
        """stop() must answer entries still lingering in the batcher."""
        core = ServiceCore(two_runtime_pool(), BatcherConfig(
            max_batch=64, max_delay_ms=60_000.0  # only shutdown can flush
        )).start()
        client = InProcClient(core)
        slots = [client.submit(1, (0, 1, 2), (0, 1, 2)) for _ in range(3)]
        done = threading.Event()

        def stopper():
            core.stop()
            done.set()

        threading.Thread(target=stopper).start()
        responses = [slot.result(timeout=60.0) for slot in slots]
        assert done.wait(timeout=60.0)
        assert all(r.status is Status.OK for r in responses)

    def test_concurrent_submitters_all_resolve(self):
        """Many client threads hammering one core: every slot resolves."""
        with ServiceCore(two_runtime_pool(), BatcherConfig(
            max_batch=4, max_delay_ms=10.0, max_queue_depth=512
        )) as core:
            client = InProcClient(core)
            workload = make_workload(40)
            results = []
            lock = threading.Lock()

            def worker(chunk):
                for kernel_id, query, reference in chunk:
                    response = client.align(
                        kernel_id, query, reference, timeout=60.0
                    )
                    with lock:
                        results.append(response)

            threads = [
                threading.Thread(target=worker, args=(workload[k::4],))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 40
            assert all(r.status is Status.OK for r in results)
