"""The server under test: ``repro serve`` in its own process."""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, BenchError, child_env, cpu_seconds, vm_hwm_mb
from loadgen import get_json

_BANNER = re.compile(rb"serving on http://[^:]+:(\d+)")


class ServerProcess:
    """``python -m repro serve --snapshot-dir STORE --port 0`` (CLI defaults)."""

    def __init__(self, store: Path, log: Path) -> None:
        self.store = store
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 120.0) -> float:
        """Spawn the server; seconds from spawn to the first 200 reply."""
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--snapshot-dir", str(self.store), "--port", "0",
                ],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=log,
            )
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise BenchError(f"server exited before serving; see {self.log}")
            match = _BANNER.search(line)
            if match:
                self.port = int(match.group(1))
                break
        while True:
            try:
                status, _ = get_json(self.port, "/healthz")
                if status == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() - t0 > timeout:
                self.stop()
                raise BenchError("server never answered /healthz with 200")
            time.sleep(0.002)

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def rss_mb(self) -> float:
        return vm_hwm_mb(self.pid)

    def cpu_s(self) -> float:
        return cpu_seconds(self.pid)

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        else:
            proc.communicate()
        self.proc = None
