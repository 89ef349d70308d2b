"""The deployment under test: one ``repro serve`` front end and two
``repro shard-serve`` processes, started only through the CLI.

The roadmap plans to delete ``--async-http`` / ``--async-transport`` /
``--async`` once the async path is the only one, so each flag is passed
only while the command's ``--help`` still lists it.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
HOST = "127.0.0.1"
SHARDS = 2
START_TIMEOUT = 60.0


def server_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # str hashes seed set/dict iteration order in the servers; pinning
    # them makes two runs of one seed take identical code paths
    env["PYTHONHASHSEED"] = "0"
    return env


def optional_flags() -> Dict[str, List[str]]:
    """The async flags each command's ``--help`` still lists."""
    wanted = {"serve": ["--async-http", "--async-transport"],
              "shard-serve": ["--async"]}
    helps = {
        command: subprocess.Popen(
            [sys.executable, "-m", "repro", command, "--help"],
            env=server_env(), cwd=REPO, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        for command in wanted
    }
    out = {}
    try:
        for command, proc in helps.items():
            text, _ = proc.communicate(timeout=START_TIMEOUT)
            if proc.returncode != 0:
                raise RuntimeError(f"`repro {command} --help` failed "
                                   f"with code {proc.returncode}")
            words = text.replace("[", " ").replace("]", " ").split()
            out[command] = [f for f in wanted[command] if f in words]
    finally:
        for proc in helps.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return out


def free_ports(count: int) -> List[int]:
    """Ports the kernel just handed out; held open together so the
    same port is not returned twice."""
    socks = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((HOST, 0))
            socks.append(sock)
        return [s.getsockname()[1] for s in socks]
    finally:
        for sock in socks:
            sock.close()


def http_get(port: int, path: str, timeout: float = 5.0) -> Dict:
    with urllib.request.urlopen(f"http://{HOST}:{port}{path}",
                                timeout=timeout) as resp:
        return json.loads(resp.read())


def _accepts(port: int) -> bool:
    try:
        with socket.create_connection((HOST, port), timeout=0.2):
            return True
    except OSError:
        return False


class Stack:
    """Three server processes.  :meth:`start` reaps what it spawned if
    the stack does not come up; after that the caller owns a running
    stack and calls :meth:`stop` in a ``finally``, so the children are
    reaped on any exit, ``KeyboardInterrupt`` and assertion failures
    included."""

    def __init__(self, flags: Dict[str, List[str]]) -> None:
        self.flags = flags  # what optional_flags() found
        self.procs: List[subprocess.Popen] = []
        self.port = 0
        self.shard_ports: List[int] = []
        self.started_at = 0.0

    def start(self) -> "Stack":
        ports = free_ports(1 + SHARDS)
        self.port, self.shard_ports = ports[0], ports[1:]
        env = server_env()
        self.started_at = time.perf_counter()
        try:
            for port in self.shard_ports:
                self._spawn(["shard-serve", "--host", HOST, "--port",
                             str(port)] + self.flags["shard-serve"], env)
            front = ["serve", "--host", HOST, "--port", str(self.port),
                     "--shards", "0"] + self.flags["serve"]
            for port in self.shard_ports:
                front += ["--shard", f"{HOST}:{port}"]
            self._spawn(front, env)
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        return self

    def _spawn(self, args: List[str], env: Dict[str, str]) -> None:
        self.procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro"] + args, env=env, cwd=REPO,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ))

    def _wait_ready(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT
        pending = list(self.shard_ports)
        while True:
            for proc in self.procs:
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited with code {proc.returncode} "
                        f"during start-up: {' '.join(proc.args)}")
            pending = [p for p in pending if not _accepts(p)]
            if not pending:
                try:
                    if http_get(self.port, "/healthz", timeout=1.0).get("ok"):
                        return
                except (OSError, urllib.error.URLError, ValueError):
                    pass
            if time.perf_counter() > deadline:
                raise RuntimeError("stack did not come up in "
                                   f"{START_TIMEOUT:.0f}s")
            time.sleep(0.02)

    @property
    def pids(self) -> List[int]:
        return [proc.pid for proc in self.procs]

    def metrics(self) -> Dict:
        return http_get(self.port, "/metrics", timeout=30.0)

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


# ----------------------------------------------------------------------
# /proc readers (Linux): CPU seconds and peak resident memory
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids: List[int]) -> float:
    """user+sys CPU of the processes, all threads, from /proc/<pid>/stat."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            # the command name may hold spaces; fields resume after ')'
            fields = handle.read().rsplit(b")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICK


def rss_peak_mb(pids: List[int]) -> float:
    """Sum of the processes' VmHWM."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
