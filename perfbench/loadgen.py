"""The benchmark's own HTTP load generator.

It imports nothing from the program, so a change to the program cannot
move the yardstick. Two shapes of load:

* :func:`closed_loop` — ``conns`` keep-alive connections, each sending
  its next request only after the previous reply; latency is send to
  reply. Connection 0 can post hot swaps while the others read.
* :func:`open_ladder` — a fixed, ascending grid of arrival rates. Each
  request is due at a scheduled time and goes out on its own connection
  (independent users); latency is measured from the due time, so a stall
  also charges the requests queued behind it. A rung fails once more than
  1% of its requests miss the latency limit (a failed request misses;
  one miss is tolerated on rungs too short for a 99th percentile), a
  failing rung is confirmed by running it again, and a climb stops at
  its first confirmed failure.

Threads and connections are capped at the host's CPU count.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field

from common import BenchError, median, nproc, pct

HOST = "127.0.0.1"


@dataclass
class Sample:
    """One request as the client saw it."""

    index: int  # position in the request stream; -1 for swaps
    kind: str  # "read" or "swap"
    conn: int
    due: float  # scheduled send time (closed loop: actual send time)
    sent: float
    done: float
    status: int = 0
    generation: int = -1
    snapshot: str = ""
    body: bytes = b""
    error: str = ""
    target: str = ""  # swap target snapshot id

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error


class Connection:
    """A minimal HTTP/1.1 client connection (keep-alive by default)."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=timeout)
        self.rfile = self.sock.makefile("rb")

    def request(
        self, method: str, target: str, body: bytes = b"", close: bool = False
    ) -> tuple[int, dict[str, str], bytes]:
        head = f"{method} {target} HTTP/1.1\r\nHost: {HOST}\r\n"
        if body or method == "POST":
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        if close:
            head += "Connection: close\r\n"
        self.sock.sendall(head.encode("ascii") + b"\r\n" + body)
        status_line = self.rfile.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = self.rfile.read(length) if length else b""
        if len(payload) != length:
            raise ConnectionError("short response body")
        return status, headers, payload

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            self.sock.close()


def _fill(sample: Sample, status: int, headers: dict[str, str], body: bytes) -> None:
    sample.status = status
    sample.generation = int(headers.get("x-repro-generation", "-1"))
    sample.snapshot = headers.get("x-repro-snapshot", "")
    sample.body = body


def get_json(port: int, target: str) -> tuple[int, dict]:
    """One request on a fresh connection; the parsed JSON reply."""
    conn = Connection(port, timeout=10.0)
    try:
        status, _headers, body = conn.request("GET", target, close=True)
    finally:
        conn.close()
    return status, json.loads(body)


def check_concurrency(n: int) -> int:
    """Refuse more client threads/connections than the host has CPUs."""
    limit = nproc()
    if n > limit:
        raise BenchError(f"{n} client threads exceed nproc={limit}")
    return n


# -- closed loop ------------------------------------------------------------------


def closed_loop(
    port: int,
    stream,
    seconds: float,
    conns: int,
    swaps: list[str] | None = None,
    min_swaps: int = 3,
) -> list[Sample]:
    """Run ``conns`` keep-alive clients; every sample, in send order.

    Without ``swaps`` the loop lasts ``seconds``. With ``swaps`` (snapshot
    ids, used in turn), connection 0 posts ``/admin/swap`` back to back
    while the other connections keep reading, until it has swapped at
    least ``min_swaps`` times and for at least ``seconds``.
    """
    check_concurrency(conns)
    if swaps is not None and not swaps:
        raise ValueError("swaps must name at least one snapshot")
    samples: list[list[Sample]] = [[] for _ in range(conns)]
    start = time.perf_counter()
    swaps_done = threading.Event()
    errors: list[BaseException] = []

    def finished() -> bool:
        if swaps is not None:
            return swaps_done.is_set()
        return time.perf_counter() - start >= seconds

    def client(c: int) -> None:
        swapped = 0
        conn = Connection(port)
        try:
            while not finished():
                now = time.perf_counter()
                if c == 0 and swaps is not None:
                    target = swaps[swapped % len(swaps)]
                    body = json.dumps({"snapshot_id": target}).encode()
                    s = Sample(-1, "swap", c, now, now, now, target=target)
                    method, path = "POST", "/admin/swap"
                else:
                    index, request = stream.next()
                    s = Sample(index, "read", c, now, now, now)
                    method, path, body = "GET", request.target, b""
                try:
                    _fill(s, *conn.request(method, path, body))
                except (OSError, ValueError) as exc:
                    s.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = Connection(port)
                s.done = time.perf_counter()
                samples[c].append(s)
                if s.kind == "swap":
                    swapped += 1
                    if swapped >= min_swaps and s.done - start >= seconds:
                        swaps_done.set()
        except Exception as exc:  # re-raised on the calling thread below
            errors.append(exc)
            swaps_done.set()
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return sorted((s for per in samples for s in per), key=lambda s: s.sent)


# -- open-loop rate ladder -----------------------------------------------------------

# The rate grid (requests per second): 200 x 1.05^k, fixed so that every
# run and every commit climbs the same rungs. A coarse climb goes up the
# grid COARSE rungs at a time until a rung fails; then fine climbs, one
# rung at a time from FINE_BACK rungs below the last coarse pass, repeat
# until the time budget ends. The result is the median of the fine climbs.
GRID = tuple(round(200 * 1.05**k) for k in range(110))
COARSE = 8
FINE_BACK = 4
RUNG_S = 0.15  # rung length, stretched so that a rung sends >= MIN_REQUESTS
MIN_REQUESTS = 30


@dataclass
class Rung:
    rate: float
    planned: int
    sent: int = 0
    completed: int = 0
    misses: int = 0
    passed: bool = False
    p99_ms: float = 0.0
    samples: list[Sample] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "planned": self.planned,
            "sent": self.sent,
            "completed": self.completed,
            "misses": self.misses,
            "passed": self.passed,
            "p99_ms": self.p99_ms,
        }


def _run_rung(port: int, stream, rate: float, threads: int, limit_s: float) -> Rung:
    planned = max(MIN_REQUESTS, round(rate * RUNG_S))
    # p99 within the limit: at most 1% of the rung may miss (one miss
    # when the rung is too short for a 99th percentile).
    allowed = max(1, planned // 100)
    rung = Rung(rate=rate, planned=planned)
    lock = threading.Lock()
    state = {"next": 0, "misses": 0, "abort": False}
    per_thread: list[list[Sample]] = [[] for _ in range(threads)]
    t0 = time.perf_counter() + 0.005

    def sender(w: int) -> None:
        while True:
            with lock:
                j = state["next"]
                if state["abort"] or j >= planned:
                    return
                state["next"] = j + 1
                index, request = stream.next()
            due = t0 + j / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            s = Sample(index, "read", w, due, time.perf_counter(), 0.0)
            try:
                conn = Connection(port, timeout=10.0)
                try:
                    _fill(s, *conn.request("GET", request.target, close=True))
                finally:
                    conn.close()
            except (OSError, ValueError) as exc:
                s.error = f"{type(exc).__name__}: {exc}"
            s.done = time.perf_counter()
            per_thread[w].append(s)
            if not s.ok or s.latency_s > limit_s:
                with lock:
                    state["misses"] += 1
                    if state["misses"] > allowed:
                        state["abort"] = True

    workers = [threading.Thread(target=sender, args=(w,)) for w in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    rung.samples = sorted((s for per in per_thread for s in per), key=lambda s: s.due)
    rung.sent = len(rung.samples)
    rung.completed = sum(1 for s in rung.samples if s.ok)
    rung.misses = state["misses"]
    rung.passed = not state["abort"] and rung.sent == planned
    if rung.samples:
        rung.p99_ms = pct([s.latency_s for s in rung.samples], 0.99) * 1e3
    return rung


def open_ladder(
    port: int, stream, budget_s: float, threads: int, limit_ms: float = 25.0
) -> tuple[list[list[Rung]], float]:
    """Climb the rate grid until the time budget ends.

    Returns every climb's rungs (the coarse climb first) and ``rate_ok``:
    the median over the fine climbs that finished of the highest rung
    whose p99 stayed within ``limit_ms`` (when none finished, the best
    rung any climb passed). A failing rung is run once more and fails only
    if that run fails too, so one transient stall on the host does not end
    a climb.
    """
    check_concurrency(threads)
    end = time.perf_counter() + budget_s
    climbs: list[list[Rung]] = []

    def passes(k: int) -> bool | None:
        """Rung k passed (on either of two tries); None when out of time."""
        for _attempt in range(2):
            if time.perf_counter() + RUNG_S > end:
                return None
            rung = _run_rung(port, stream, GRID[k], threads, limit_ms / 1e3)
            climbs[-1].append(rung)
            if rung.passed:
                return True
        return False

    climbs.append([])
    coarse = -1  # grid index of the last passing coarse rung
    for k in range(0, len(GRID), COARSE):
        verdict = passes(k)
        if not verdict:
            break
        coarse = k
    finished, partial = [], [GRID[coarse] if coarse >= 0 else 0.0]
    # A fine climb that fails its first rung reads the coarse pass below it.
    floor = GRID[coarse - COARSE] if coarse >= COARSE else 0.0
    while time.perf_counter() + RUNG_S <= end:
        climbs.append([])
        reached, k = floor, max(0, coarse - FINE_BACK)
        while k < len(GRID):
            verdict = passes(k)
            if not verdict:
                break
            reached, k = GRID[k], k + 1
        (finished if verdict is False else partial).append(reached)
    return climbs, median(finished) if finished else max(partial)
