"""One benchmark pass: a fresh process (and, for serve, two clients).

Every pass gets its own fresh temporary directory as working
directory, result cache and serve work dir, so nothing a pass writes
(fault ``checkpoints/``, ``.repro-cache``, the in-process trace memo)
can serve the next one.  Peak RSS comes from ``wait4`` on the child.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
#: The CPU every measured process runs on, so that the reference loop
#: of calib.py times the same core as the work it rescales.
BENCH_CPU = max(os.sched_getaffinity(0))
#: Status polling of an unfinished served job: first delay, then
#: doubling up to the cap.
POLL_FIRST_S = 0.001
POLL_CAP_S = 0.016


class PassError(RuntimeError):
    """A pass could not run at all (the child did not start or hung)."""


def _env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _spawn(cmd: List[str], root: str, cwd: str) -> Tuple[subprocess.Popen, float]:
    with open(os.path.join(cwd, "stderr.txt"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=cwd,
            env=_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
        )
    try:
        os.sched_setaffinity(proc.pid, {BENCH_CPU})
    except ProcessLookupError:
        pass  # it already exited; the caller reports how
    return proc, start


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The child's next stdout line, or '' on exit or timeout."""
    ready, _, _ = select.select([proc.stdout], [], [], max(timeout, 0.0))
    if not ready:
        return ""
    return proc.stdout.readline()


def _reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for the child (killing it after ``timeout``); (status, rss MB)."""
    deadline = time.monotonic() + max(timeout, 0.0)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _stderr_tail(cwd: str) -> str:
    try:
        with open(os.path.join(cwd, "stderr.txt"), errors="replace") as handle:
            return handle.read()[-800:]
    except OSError:
        return ""


def worker_pass(
    root: str,
    scratch: str,
    ops: List[Dict[str, Any]],
    traced: bool,
    setup_only: bool,
    timeout: float,
) -> Dict[str, Any]:
    """Run ``worker.py`` once in a fresh directory; returns its record."""
    cwd = tempfile.mkdtemp(dir=scratch)
    ops_path = os.path.join(cwd, "ops.json")
    out_path = os.path.join(cwd, "out.json")
    with open(ops_path, "w") as handle:
        json.dump(ops, handle)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--ops", ops_path, "--out", out_path]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc, start = _spawn(cmd, root, cwd)
    try:
        line = _read_line(proc, timeout)
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise PassError("worker did not start: " + _stderr_tail(cwd))
        code, rss_mb = _reap(proc, timeout - setup_s)
    finally:
        if proc.returncode is None:
            proc.kill()
            _reap(proc, 10)
    if code != 0 or not os.path.exists(out_path):
        raise PassError(f"worker exited {code}: " + _stderr_tail(cwd))
    with open(out_path) as handle:
        record = json.load(handle)
    record.update(
        setup_s=setup_s,
        norm_setup_s=calib.rescale(setup_s, record["loop_s"]),
        peak_rss_mb=rss_mb,
        traced=traced,
    )
    return record


# -- serve-mixed ----------------------------------------------------------


class _Client:
    """Blocking HTTP calls against one server (one connection each)."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def json(self, method: str, path: str, body: Any = None) -> Dict[str, Any]:
        status, data = self.call(method, path, body)
        if status >= 400:
            raise PassError(f"HTTP {status} on {method} {path}: {data[:200]!r}")
        return json.loads(data)


def _run_job(client: _Client, op: Dict[str, Any]) -> Dict[str, Any]:
    """POST one job and fetch its result; the closed-loop unit of work."""
    entry: Dict[str, Any] = {"name": op["name"], "dup_of": op["dup_of"]}
    start = time.perf_counter()
    try:
        submitted = client.json("POST", "/jobs", op["plan"])
        job_id = submitted["job"]["id"]
        entry["deduplicated"] = bool(submitted["deduplicated"])
        state = submitted["job"]["state"]
        delay = POLL_FIRST_S
        while state in ("queued", "running"):
            # Poll with exponential backoff, capped, like a client that
            # only wants the result.
            time.sleep(delay)
            delay = min(delay * 2, POLL_CAP_S)
            state = client.json("GET", f"/jobs/{job_id}")["state"]
        result = client.json("GET", f"/jobs/{job_id}/result")
        entry["latency_s"] = time.perf_counter() - start
        entry["end"] = time.perf_counter()
        status = client.json("GET", f"/jobs/{job_id}")
    except (PassError, OSError, ValueError, KeyError) as error:
        entry.update(ok=False, error=f"{type(error).__name__}: {error}",
                     http_error=isinstance(error, PassError))
        entry.setdefault("latency_s", time.perf_counter() - start)
        entry.setdefault("end", time.perf_counter())
        entry["start"] = start
        return entry
    entry.update(
        ok=status["state"] == "done",
        digest=result["digest"],
        start=start,
        queue_wait_s=status["started_at"] - status["created_at"],
        run_s=status["finished_at"] - status["started_at"],
        events=status["events"],
    )
    return entry


def _closed_loop(port: int, ops: List[Dict[str, Any]], clients: int, timeout: float):
    """``clients`` threads take the next operation as each reply arrives."""
    done = {op["name"]: threading.Event() for op in ops}
    results: List[Optional[Dict[str, Any]]] = [None] * len(ops)
    cursor = iter(range(len(ops)))
    lock = threading.Lock()

    def client_loop() -> None:
        # Keep the clients off the server's CPU when there is another.
        others = os.sched_getaffinity(0) - {BENCH_CPU}
        if others:
            os.sched_setaffinity(0, others)
        client = _Client(port)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            op = ops[index]
            if op["dup_of"] is not None:
                done[op["dup_of"]].wait(timeout)
            results[index] = _run_job(client, op)
            done[op["name"]].set()

    threads = [
        threading.Thread(target=client_loop, daemon=True) for _ in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    if any(thread.is_alive() for thread in threads):
        raise PassError("serve clients did not finish in time")
    return results


def _start_server(root: str, cwd: str, traced: bool, timeout: float):
    argv = ["serve", "--port", "0", "--concurrency", "2", "--jobs", "1",
            "--cache-dir", os.path.join(cwd, "cache"),
            "--work-dir", os.path.join(cwd, "work")]
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "serve_host.py"),
               os.path.join(cwd, "spans.json")] + argv
    else:
        cmd = [sys.executable, "-m", "repro"] + argv
    proc, start = _spawn(cmd, root, cwd)
    try:
        line = _read_line(proc, timeout)
        setup_s = time.perf_counter() - start
        if "listening on http://" not in line:
            raise PassError("server did not start: " + _stderr_tail(cwd))
    except BaseException:
        proc.kill()
        _reap(proc, 10)
        raise
    port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
    # Drain anything else the server prints so its pipe never fills.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    return proc, port, setup_s


def _server_core_loop_time() -> float:
    """The reference loop timed on the server's CPU (this thread only)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {BENCH_CPU})
    try:
        return calib.loop_time()
    finally:
        os.sched_setaffinity(0, allowed)


def _stop_server(proc: subprocess.Popen, timeout: float) -> float:
    """SIGTERM the server and reap it; its peak RSS in MB.

    SIGTERM, not SIGINT: a process started in the background inherits
    SIGINT ignored, and Python then leaves it ignored.
    """
    try:
        proc.terminate()
    finally:
        _, rss_mb = _reap(proc, timeout)
    return rss_mb


def serve_pass(
    root: str,
    scratch: str,
    ops: List[Dict[str, Any]],
    traced: bool,
    setup_only: bool,
    timeout: float,
) -> Dict[str, Any]:
    """Start a fresh server, drive the job list with 2 clients, stop it.

    The server's CPU is calibrated (calib.py) while no server runs:
    before the start, which rescales set-up, and after the stop, which
    with the first rescales the pass.
    """
    cwd = tempfile.mkdtemp(dir=scratch)
    before = _server_core_loop_time()
    proc, port, setup_s = _start_server(root, cwd, traced, timeout)
    record = {"setup_s": setup_s, "norm_setup_s": calib.rescale(setup_s, before)}
    try:
        if setup_only:
            return record
        jobs = _closed_loop(port, ops, clients=2, timeout=timeout - setup_s)
    finally:
        rss_mb = _stop_server(proc, 20)
    after = _server_core_loop_time()
    start = min(job["start"] for job in jobs)
    end = max(job["end"] for job in jobs)
    record.update({
        "peak_rss_mb": rss_mb,
        "wall_s": end - start,
        "norm_wall_s": calib.rescale(end - start, before, after),
        "ops": jobs,
        "traced": traced,
    })
    if traced:
        with open(os.path.join(cwd, "spans.json")) as handle:
            record["spans"] = json.load(handle)
    return record
