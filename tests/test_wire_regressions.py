"""Named regression cases for the wire: every line gets exactly one answer.

Provenance: malformed, non-finite and oversized request lines sent by
hand to both serving tiers — the single-process server over a
``ServiceCore`` and the sharded front door.  Before the two tiers shared
one protocol handler, a deeply nested line raised ``RecursionError``
instead of ``ProtocolError``, ``NaN``/``Infinity`` deadlines and
``true`` kernel ids passed validation, and the front door closed the
connection on any request line over asyncio's 64 KiB reader limit and
on a decodable request too deeply nested to fingerprint.

Each case is one line followed, on the same connection, by a ``ping``:
the line must get exactly one answer and the ``ping`` must still be
answered, because no line may close its connection.
"""

import json
import random
import socket

import pytest

from repro import api
from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.service import AlignResponse, Status
from repro.service.protocol import (
    AlignRequest,
    ProtocolError,
    line_limit,
    response_from_result,
)
from repro.shard import Deployment, ShardServer

#: Kernel 14 (sdtw, score only) takes 8-bit signal samples, so a request
#: with a 20,000-sample reference is an ~80 KB line: past asyncio's
#: default reader limit, inside the deployed maxima.
DEPLOYMENT = Deployment(
    kernel_ids=(14,), max_len=20_000, n_pe=256, n_b=1, backend="compiled",
)
PING = b'{"type":"ping","id":"after"}'


@pytest.fixture(scope="module", params=["single-process", "front-door"])
def address(request):
    """Both serving tiers, each serving the same deployment."""
    if request.param == "single-process":
        server = api.serve(DEPLOYMENT)
    else:
        server = ShardServer(("127.0.0.1", 0), DEPLOYMENT, n_shards=1).start()
    yield server.address
    server.close()


def exchange(address, line):
    """Send ``line`` then a ping; check the pong, return the line's answer."""
    with socket.create_connection(address, timeout=60.0) as sock:
        sock.sendall(line + b"\n" + PING + b"\n")
        reader = sock.makefile("rb")
        answers = [json.loads(reader.readline()) for _ in range(2)]
    pongs = [a for a in answers if a["type"] == "pong"]
    results = [a for a in answers if a["type"] != "pong"]
    assert pongs == [{"type": "pong", "id": "after"}], answers
    assert len(results) == 1, answers
    return results[0]


def align_line(**fields):
    payload = {"type": "align", "id": "r", "kernel": 14,
               "query": [100, 101], "reference": [100, 101, 102]}
    payload.update(fields)
    return json.dumps(payload).encode()


MALFORMED = {
    "nested-100k-deep": (b"[" * 100_000 + b"]" * 100_000, None,
                         "nested too deeply"),
    "not-json": (b"{not json", None, "undecodable"),
    "not-an-object": (b"[1, 2]", None, "must be a JSON object"),
    "invalid-utf8": (b"\xff\xfe", None, "undecodable"),
    "unknown-type": (b'{"type":"bogus","id":"u"}', "u",
                     "unknown message type"),
    "nan-deadline": (align_line().replace(b"}", b', "deadline_ms": NaN}'),
                     None, "NaN is not a finite number"),
    "infinite-deadline": (
        align_line().replace(b"}", b', "deadline_ms": Infinity}'),
        None, "Infinity is not a finite number",
    ),
    "overflowing-deadline": (
        align_line().replace(b"}", b', "deadline_ms": 1e999}'),
        None, "1e999 is not a finite number",
    ),
    "bool-kernel": (align_line(kernel=True), "r",
                    "kernel must be an integer id"),
    "bool-priority": (align_line(priority=True), "r",
                      "priority must be an integer"),
    "bool-deadline": (align_line(deadline_ms=True), "r",
                      "deadline_ms must be a positive number"),
    # Decodable, but too deep for the front door's fingerprinting (an
    # internal error there) and no symbol to the backend (an error).
    "nested-900-deep-symbol": (
        align_line().replace(b"[100, 101]",
                             b"[" * 900 + b"0" + b"]" * 900),
        "r", "",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_line_is_answered_and_the_connection_survives(
    address, case
):
    line, request_id, error = MALFORMED[case]
    answer = exchange(address, line)
    assert answer["type"] == "result"
    assert answer["status"] == "error"
    assert answer["id"] == request_id
    assert error in answer["error"]


def test_line_past_64k_within_the_maxima_is_served(address):
    rng = random.Random(14)
    query = tuple(rng.randrange(100, 200) for _ in range(64))
    reference = tuple(rng.randrange(100, 200) for _ in range(20_000))
    request = AlignRequest("big", 14, query, reference)
    line = request.to_line().rstrip(b"\n")
    assert 2 ** 16 < len(line) < line_limit(2 * DEPLOYMENT.max_len)

    answer = AlignResponse.from_dict(exchange(address, line))
    assert answer.status is Status.OK, answer.error
    local = DeviceRuntime(
        get_kernel(14), DEPLOYMENT.launch_config(), backend="compiled"
    ).run([(query, reference)]).results[0]
    assert answer.to_line(with_latency=False) == response_from_result(
        "big", local
    ).to_line(with_latency=False)


def test_line_past_the_deployed_limit_is_answered(address):
    limit = line_limit(2 * DEPLOYMENT.max_len)
    prefix = b'{"type":"ping","id":"'
    line = prefix + b"x" * (limit + 1 - len(prefix) - 2) + b'"}'
    assert len(line) == limit + 1
    answer = exchange(address, line)
    assert answer["status"] == "error"
    assert answer["id"] is None
    assert f"exceeds {limit} bytes" in answer["error"]


class TestAlignRequestFromDict:
    """The dict path (in-process callers) validates like the wire."""

    BASE = {"type": "align", "id": "d", "kernel": 14,
            "query": [1], "reference": [1]}

    @pytest.mark.parametrize("deadline", [
        float("nan"), float("inf"), float("-inf"), True, 0, -1.0, 10 ** 400,
    ])
    def test_rejects_non_finite_or_non_positive_deadlines(self, deadline):
        with pytest.raises(ProtocolError, match="deadline_ms"):
            AlignRequest.from_dict({**self.BASE, "deadline_ms": deadline})

    @pytest.mark.parametrize("field", ["kernel", "priority"])
    def test_rejects_bool_integers(self, field):
        with pytest.raises(ProtocolError, match=field):
            AlignRequest.from_dict({**self.BASE, field: True})

    def test_accepts_int_and_float_deadlines(self):
        for deadline in (5, 2.5):
            request = AlignRequest.from_dict(
                {**self.BASE, "deadline_ms": deadline}
            )
            assert request.deadline_ms == float(deadline)
