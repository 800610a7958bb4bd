"""Traced stand-in for ``repro serve``: the same stack, with span wrappers.

Builds what ``cmd_serve`` builds for one process -- ``Deployment``,
``build_cache``, ``build_core``, ``AlignmentServer`` -- from the same
public constructors and the settings in ``serving.SERVER``, after
wrapping each layer's entry points (see ``spans.py``).  Spans stay in
memory and are written to ``--spans-out`` when SIGTERM stops the
server.

    python3 perfbench/serve_traced.py --cache-dir DIR --spans-out FILE
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from serving import SERVER  # noqa: E402
from spans import (  # noqa: E402
    SpanLog,
    install_backend,
    install_cache,
    install_protocol,
    install_service,
)


def _stop(signum, frame) -> None:
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop)

    log = SpanLog()
    install_backend(log)
    install_cache(log)
    install_protocol(log)
    install_service(log)

    from repro.service import AlignmentServer
    from repro.shard import Deployment

    deployment = Deployment(cache_dir=args.cache_dir, **SERVER)
    core = deployment.build_core(cache=deployment.build_cache()).start()
    server = AlignmentServer(("127.0.0.1", 0), core)
    host, port = server.server_address
    print(f"serving kernels {list(deployment.kernel_ids)} on {host}:{port}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        log.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
