"""Server-subprocess launcher for the ``serve_mixed`` workload.

Run as a program it stands up the full stack — ``PersistentManager`` →
``SynopsisService`` → ``ServiceHTTPServer`` — on an ephemeral port,
prints one JSON line ``{"port": ...}``, serves until its
stdin closes, then prints one JSON line with its ``ru_maxrss`` and
removes its working directory.  :func:`launch` is the client side: it
starts that program, reads the port, and stops it by closing stdin.

The launcher is benchmark code: it materialises the workload from the
seed to get the schemas and the preload; the stack it builds only ever
sees ops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from typing import Optional

if __name__ == "__main__":
    # script mode: make `benchmarks.layers` and `repro` importable
    _root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.path[:0] = [os.path.join(_root, "src"), _root]


class ServerHandle:
    """A running server subprocess; ``stop()`` returns its exit report."""

    def __init__(self, proc: subprocess.Popen, port: int):
        self.proc = proc
        self.port = port
        self.report: Optional[dict] = None

    def stop(self) -> dict:
        if self.report is None:
            self.proc.stdin.close()
            line = self.proc.stdout.readline()
            self.proc.stdout.close()
            code = self.proc.wait(timeout=60)
            if code != 0 or not line:
                raise RuntimeError(f"server subprocess exited with {code}")
            self.report = json.loads(line)
        return self.report

    def kill(self) -> None:
        """Last-resort teardown when the run is failing anyway."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def launch(workload: str, seed: int, workdir: str, *, tiny: bool = False,
           obs: bool = False) -> ServerHandle:
    """Start the server subprocess and wait until it listens."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(seed),
           "--workdir", workdir]
    if tiny:
        cmd.append("--tiny")
    if obs:
        cmd.append("--obs")
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise RuntimeError(
            f"server subprocess died during set-up (exit {proc.returncode})")
    return ServerHandle(proc, json.loads(line)["port"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--obs", action="store_true")
    args = parser.parse_args(argv)

    from repro.obs import MetricsRegistry
    from repro.persist import PersistentManager
    from repro.service import (ServiceConfig, ServiceHTTPServer,
                               SynopsisService)

    from benchmarks.layers import rungs, stream as streams

    stream = streams.materialise(streams.BY_NAME[args.workload], args.seed,
                                 tiny=args.tiny)
    obs = MetricsRegistry() if args.obs else None
    os.makedirs(args.workdir)
    try:
        persistent = PersistentManager(
            rungs.build_manager(stream, warm=stream.http_start()),
            args.workdir, sync="batch", obs=obs)
        service = SynopsisService(persistent, ServiceConfig(obs=obs))
        server = ServiceHTTPServer(service, port=0).start()
        print(json.dumps({"port": server.address[1]}), flush=True)
        sys.stdin.read()          # serve until the launcher closes stdin
        server.stop()
        service.close()
        persistent.close()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"ru_maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
