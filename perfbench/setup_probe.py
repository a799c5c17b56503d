"""What a user pays per process before the first useful request.

Run by ``run.py`` as a fresh interpreter, several times per run: starts
sampling the host's speed into PROBE_DIR (``hostspeed.py``; the pool
workers it forks sample too), imports the framework, loads the C kernel
from its warm on-disk cache, spawns the warm pool (and, for
``service``, starts the HTTP server and spawns the service's pool),
prints ``ready``, then waits for its stdin to close and shuts
everything down.

Usage: ``python3 setup_probe.py {grid,service} WORKERS WORKDIR PROBE_DIR``
"""

import os
import sys

import hostspeed


def tiny_payloads(preset, count):
    spec = preset("crossover-hibernus").with_overrides(
        {"kernel": "fast", "duration": 0.001}
    )
    return [{"spec": spec.to_dict()}] * count


def main():
    kind, workers, workdir, probe_dir = (
        sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    )
    # A denser tick than the benchmark's: a set-up lasts a few tenths of
    # a second of CPU time.
    probe = hostspeed.Probe(probe_dir, tick_s=0.02)
    probe.start()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    # Imported here, after the probe starts: their cost is set-up.
    from repro.sim import _ckernel
    from repro.spec import preset
    from repro.spec.runner import WarmPool

    _ckernel.load()
    server = None
    if kind == "service":
        import threading

        from repro.serve import create_server

        server = create_server(
            port=0, store_path=os.path.join(workdir, "probe.jsonl"),
            max_workers=workers,
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        pool = server.service.pool
    else:
        pool = WarmPool(max_workers=workers)
    pool.run(tiny_payloads(preset, workers))
    print("ready", flush=True)
    sys.stdin.read()
    if server is not None:
        server.shutdown()
        thread.join(10)
        server.service.close()
        server.server_close()
    else:
        pool.close()
    probe.stop()


if __name__ == "__main__":
    main()
