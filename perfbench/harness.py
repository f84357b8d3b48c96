"""Processes and connections: the real `treesketch serve` process,
line-protocol connections over its Unix socket, the closed-loop load
generators, and data-directory sampling."""

import os
import signal
import socket
import subprocess
import threading
import time

clock = time.perf_counter


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children(pid):
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out += [int(c) for c in f.read().split()]
    except OSError:
        pass
    return out


class Conn:
    """One client connection speaking the line protocol.  A transport
    failure reconnects once and, for reads only, resends (counted in
    `retries`); a mutation is never resent."""

    def __init__(self, path, timeout=30.0):
        self.path = path
        self.timeout = timeout
        self.retries = 0
        self.sock = None
        self.file = None

    def connect(self):
        self.close()
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(self.timeout)
        s.connect(self.path)
        self.sock = s
        self.file = s.makefile("rwb")

    def close(self):
        if self.sock is not None:
            try:
                self.file.close()
                self.sock.close()
            except OSError:
                pass
        self.sock = self.file = None

    def _roundtrip(self, line):
        if self.sock is None:
            self.connect()
        self.file.write(line.encode() + b"\n")
        self.file.flush()
        resp = self.file.readline()
        if not resp.endswith(b"\n"):
            raise ConnectionError("connection closed mid-response")
        return resp[:-1].decode()

    def request(self, line):
        """The response line, or an 'error transport ...' line of our own."""
        try:
            return self._roundtrip(line)
        except OSError as e:
            self.close()
            if line.split(" ", 1)[0] not in ("QUERY", "ANSWER", "PING", "STAT", "HEALTH", "JOBS"):
                return f"error transport {e}"
            self.retries += 1
            try:
                return self._roundtrip(line)
            except OSError as e2:
                self.close()
                return f"error transport {e2}"


class Server:
    """`treesketch serve --workers 2` on a Unix socket under the run
    directory; start() returns once the first PING is answered."""

    def __init__(self, ts, catalog, sock, log, max_answer_nodes):
        self.argv = [ts, "serve", "--catalog", catalog, "--socket", sock, "--workers", "2",
                     "--max-answer-nodes", str(max_answer_nodes)]
        self.sock = sock
        self.log = log
        self.proc = None

    def start(self, timeout=60.0):
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        t0 = clock()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(self.argv, stdout=subprocess.DEVNULL, stderr=log)
        c = Conn(self.sock, timeout=5.0)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if clock() - t0 > timeout:
                raise RuntimeError("server did not answer PING")
            try:
                c.connect()
                if c._roundtrip("PING") == "pong":
                    break
            except OSError:
                time.sleep(0.002)
        c.close()
        return clock() - t0

    def rss_kb(self):
        """Peak resident memory of the server plus its children (pool
        workers and any build or compaction job alive now)."""
        pid = self.proc.pid
        return vm_hwm_kb(pid) + sum(vm_hwm_kb(c) for c in children(pid))

    def stop(self):
        """SIGTERM (a graceful drain), then wait; SIGKILL after 30 s."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def dir_bytes(path):
    total = 0
    for f in os.listdir(path):
        try:
            total += os.path.getsize(os.path.join(path, f))
        except OSError:  # deleted between listing and stat
            pass
    return total


class DirSampler(threading.Thread):
    """Samples a directory's total file bytes every `period` seconds
    until stopped: `samples` holds (time, bytes)."""

    def __init__(self, path, period=0.05):
        super().__init__()
        self.path = path
        self.period = period
        self.samples = []
        self.halt = threading.Event()

    def run(self):
        while not self.halt.is_set():
            self.samples.append((clock(), dir_bytes(self.path)))
            self.halt.wait(self.period)

    def stop(self):
        self.halt.set()
        self.join()
        return self.samples


def run_side_by_side(plans):
    """Each (conn, lines) of `plans` in its own thread: every line is sent
    as soon as the previous response on that connection arrives.  Returns
    one [(sent, done, line, response)] list per plan."""
    results = [[] for _ in plans]

    def loop(conn, lines, out):
        for line in lines:
            sent = clock()
            resp = conn.request(line)
            out.append((sent, clock(), line, resp))

    threads = [threading.Thread(target=loop, args=(c, lines, out)) for (c, lines), out in zip(plans, results)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def run_closed_loop(conns, lines, seconds):
    """Each connection sends its next line as soon as the previous
    response arrives, until `seconds` pass or `lines` runs out.
    Returns (elapsed seconds, [(sent, done, line, response)])."""
    lock = threading.Lock()
    it = iter(lines)
    out = []
    t0 = clock()
    stop = t0 + seconds

    def loop(conn):
        while clock() < stop:
            with lock:
                line = next(it, None)
            if line is None:
                return
            sent = clock()
            resp = conn.request(line)
            done = clock()
            with lock:
                out.append((sent, done, line, resp))

    threads = [threading.Thread(target=loop, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return clock() - t0, out
