"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

1. A tiny-size run of each of the four workloads emits every metric of
   BENCHMARK.json with its unit, untraced and traced, with zero failures.
2. A tampered snapshot is counted as a failed build.
3. A stub frontend that sleeps 40 ms before writing each reply shows up
   as the dominant ``http.residual_p50_ms`` — the layer table would have
   caught the Nagle stall — while the same stub without the sleep does not.
4. Without the program next to it, the benchmark exits non-zero and
   prints no result.

Exits 0 when every check passes. Takes a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from common import BENCH_DIR, ROOT, WORK_ROOT, require_program
from loadgen import Connection
from server import ServerProcess

TINY = {
    "build-querylog": {"scale": 0.001},
    "build-scale": {"n_items": 600, "n_sets": 60},
    "serve-storefront": {"scale": 0.001},
    "serve-catalog": {"n_items": 3_000, "n_sets": 200},
}
SEED = 1
SECONDS = 2.0


def expect(condition, *info) -> None:
    """A check that also holds under ``python -O``."""
    if not condition:
        raise SystemExit(f"selftest FAILED: {info}")


class StallProxy:
    """A stub frontend: forwards each request to a real ``repro serve`` on a
    fresh connection, then sleeps ``delay_s`` before writing the reply back
    in one write. Same interface as :class:`server.ServerProcess`."""

    def __init__(self, store: Path, log: Path, delay_s: float) -> None:
        self.backend = ServerProcess(store, log)
        self.delay_s = delay_s
        self.proxy: ThreadingHTTPServer | None = None
        self.thread: threading.Thread | None = None
        self.port = 0

    def start(self) -> float:
        seconds = self.backend.start()
        backend_port, delay_s = self.backend.port, self.delay_s

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args) -> None:
                pass

            def _forward(self) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                conn = Connection(backend_port)
                try:
                    status, headers, payload = conn.request(
                        self.command, self.path, body, close=True
                    )
                finally:
                    conn.close()
                time.sleep(delay_s)
                head = [f"HTTP/1.1 {status} OK", "Content-Type: application/json",
                        f"Content-Length: {len(payload)}"]
                for name in ("x-repro-generation", "x-repro-snapshot"):
                    if name in headers:
                        head.append(f"{name}: {headers[name]}")
                self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)

            do_GET = do_POST = _forward

        self.proxy = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.proxy.daemon_threads = True
        self.port = self.proxy.server_address[1]
        self.thread = threading.Thread(target=self.proxy.serve_forever, daemon=True)
        self.thread.start()
        return seconds

    def cpu_s(self) -> float:
        return self.backend.cpu_s()

    def rss_mb(self) -> float:
        return self.backend.rss_mb()

    def stop(self) -> None:
        if self.proxy is not None:
            self.proxy.shutdown()
            self.proxy.server_close()
            self.thread.join(10)
            self.proxy = None
        self.backend.stop()


def _tiny(name: str):
    from workloads import WORKLOADS

    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def _run(workload, trace: bool, label: str, server_factory=None) -> dict:
    from run import run

    work = WORK_ROOT / f"selftest-{label}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(workload, SEED, SECONDS, trace, work, server_factory)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_tiny_runs(spec: dict) -> None:
    from run import result_line

    for name in TINY:
        result = _run(_tiny(name), True, name)
        expect(result["failed"] == 0, (name, result["failures"][:5]))
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            line = result_line(result, spec, trace)
            json.dumps(line)  # serialisable
            for metric in spec[group]:
                got = line["metrics"][metric["name"]]
                expect(got["unit"] == metric["unit"], (name, metric))
                expect(isinstance(got["value"], (int, float)), (name, metric))
        for metric in spec["end_to_end"]:
            expect(result["end_to_end"][metric["name"]] > 0, (name, metric["name"]))
        print(f"ok  tiny {name}: every metric present with its unit, 0 failed")


def check_tampered_snapshot() -> None:
    from workloads import generate

    work = WORK_ROOT / "selftest-tamper"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs.pkl"
        with open(inputs, "wb") as f:
            pickle.dump(generate(_tiny("serve-storefront"), SEED), f)
        from run import run_child

        first = run_child(inputs, work / "store", work / "r1.json", False, None)
        expect(not first["failures"], first["failures"])
        tree_file = work / "store" / first["snapshot_id"] / "tree.json"
        payload = json.loads(tree_file.read_text())
        payload["root"]["children"][0]["label"] += " (edited)"
        tree_file.write_text(json.dumps(payload))
        # Saving identical content again reuses the stored (tampered) files.
        second = run_child(inputs, work / "store", work / "r2.json", False, None)
        expect(second["failures"], "tampered snapshot passed the checks")
        expect(any("digest" in f for f in second["failures"]), second["failures"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("ok  tampered snapshot counted as a failed build:", second["failures"][0])


def check_stall_shows() -> None:
    workload = _tiny("serve-storefront")
    residual = {}
    for delay_s in (0.0, 0.040):
        result = _run(
            workload, True, f"stall-{delay_s}",
            lambda store, log, d=delay_s: StallProxy(store, log, d),
        )
        expect(result["failed"] == 0, result["failures"][:5])
        layers, e2e = result["per_layer"], result["end_to_end"]
        residual[delay_s] = layers["http.residual_p50_ms"]
        share = layers["http.residual_p50_ms"] / e2e["p50_ms"]
        print(f"    stub delay {delay_s * 1e3:.0f} ms: p50 {e2e['p50_ms']:.2f} ms, "
              f"residual p50 {residual[delay_s]:.2f} ms ({share:.0%})")
        if delay_s:
            expect(residual[delay_s] >= 40.0, residual)
            expect(share >= 0.8, share)
    expect(residual[0.040] - residual[0.0] >= 35.0, residual)
    print("ok  a 40 ms write stall is the dominant http.residual_p50_ms")


def check_missing_program() -> None:
    bare = WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
             "serve-storefront", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, proc.returncode)
    expect('"correct"' not in proc.stdout, proc.stdout)
    print(f"ok  without the program: exit {proc.returncode}, no result printed")


def main() -> int:
    require_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_missing_program()
    check_tampered_snapshot()
    check_stall_shows()
    check_tiny_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
