"""The serve workload's outside view: server subprocess and clients.

The server is a real ``python -m repro serve`` subprocess; the clients
are keep-alive ``http.client`` connections, one thread each, that keep
exactly one request in flight (closed loop).  A 429 is honoured with
its ``Retry-After`` and the wait counts in the request's latency.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import hostref

__all__ = ["Client", "Reply", "Server", "drive", "histogram_quantile",
           "scrape"]

SRC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "src"
)
READY_TIMEOUT = 60.0
MAX_RETRIES = 5


class Server:
    """``repro serve`` as a child process, reaped on every exit path.

    The server is pinned to the last CPU this process may use and the
    clients to the others (when there are others): the vCPUs of a
    shared host slow down independently, so the host reference between
    blocks of queries has to run where the engine lane runs
    (:meth:`reference`), not wherever the scheduler put the idle client.
    """

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        self.cpus = sorted(os.sched_getaffinity(0))

    def reference(self) -> float:
        """The host reference, taken on the server's CPU."""
        os.sched_setaffinity(0, {self.cpus[-1]})
        try:
            return hostref.reference()
        finally:
            os.sched_setaffinity(0, set(self.cpus[:-1]) or set(self.cpus))

    def start(self) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--graph",
             f"bench={self.spec}", "--port", str(self.port)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        os.sched_setaffinity(self.proc.pid, {self.cpus[-1]})
        os.sched_setaffinity(0, set(self.cpus[:-1]) or set(self.cpus))
        deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}"
                )
            try:
                status, _ = get(self.port, "/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("repro serve was not ready in time")
            time.sleep(0.02)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always reaped."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        os.sched_setaffinity(0, set(self.cpus))
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()


def get(port: int, path: str) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@dataclass
class Reply:
    """One answered (or given-up) query as the client saw it."""

    ok: bool
    seconds: float
    payload: Dict[str, Any]
    rejections: int = 0
    status: int = 200


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def query(self, body: Dict[str, Any]) -> Reply:
        data = json.dumps(body)
        rejections = 0
        t0 = time.perf_counter()
        while True:
            self.conn.request(
                "POST", "/query", body=data,
                headers={"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            raw = response.read()
            if response.status == 429 and rejections < MAX_RETRIES:
                rejections += 1
                time.sleep(float(response.getheader("Retry-After") or 1))
                continue
            seconds = time.perf_counter() - t0
            payload = json.loads(raw) if raw else {}
            return Reply(response.status == 200, seconds, payload,
                         rejections, response.status)

    def close(self) -> None:
        self.conn.close()


def drive(
    clients: List[Client], plans: List[List[Dict[str, Any]]]
) -> Tuple[List[Reply], float]:
    """Each client works through its plan; returns replies and elapsed."""
    results: List[List[Reply]] = [[] for _ in clients]
    errors: List[BaseException] = []

    def work(client: Client, plan, out: List[Reply]) -> None:
        try:
            for body in plan:
                out.append(client.query(body))
        except (OSError, http.client.HTTPException, ValueError) as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(c, p, r), daemon=True)
        for c, p, r in zip(clients, plans, results)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise RuntimeError(f"client failed: {errors[0]!r}")
    return [reply for out in results for reply in out], elapsed


# -- what the server reports about itself ----------------------------------

_SAMPLE = re.compile(r"^(\w+)(?:\{(.*)\})?\s+(\S+)$")


def scrape(port: int) -> Dict[str, Any]:
    """``/stats`` numbers plus the two ``/metrics`` histograms."""
    _, raw = get(port, "/stats")
    stats = json.loads(raw)
    _, text = get(port, "/metrics")
    histograms: Dict[str, Dict[float, float]] = {}
    for line in text.decode("utf-8").splitlines():
        match = _SAMPLE.match(line)
        if match is None or not match.group(1).endswith("_bucket"):
            continue
        name = match.group(1)[: -len("_bucket")]
        le = re.search(r'le="([^"]+)"', match.group(2) or "")
        if le is None:
            continue
        edge = float("inf") if le.group(1) == "+Inf" else float(le.group(1))
        histograms.setdefault(name, {})[edge] = float(match.group(3))
    stats["histograms"] = histograms
    return stats


def histogram_quantile(
    before: Dict[float, float], after: Dict[float, float], q: float
) -> float:
    """Quantile of the observations between two cumulative scrapes.

    Linear interpolation inside the bucket, as Prometheus does; the
    answer is only as fine as the server's fixed bucket edges.
    """
    edges = sorted(after)
    counts = [after[e] - before.get(e, 0.0) for e in edges]
    total = counts[-1] if counts else 0.0
    if total <= 0:
        return 0.0
    rank = q * total
    lower_edge, lower_count = 0.0, 0.0
    for edge, count in zip(edges, counts):
        if count >= rank:
            if edge == float("inf") or count == lower_count:
                return lower_edge
            share = (rank - lower_count) / (count - lower_count)
            return lower_edge + (edge - lower_edge) * share
        lower_edge, lower_count = edge, count
    return lower_edge
