"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload {read,mixed} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  It builds `treesketch` and the
benchmark's probe from source (dune), makes the workload's inputs from
the seed, drives the real `treesketch build` / `treesketch serve`
processes in closed loops from this one process, checks their outputs,
and prints as its last line one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 a separate traced replay adds the per-layer ones.
Exit code 0 iff every output check passed.  Settings and the per-layer -> end-to-end mapping are in
perfbench/spec.json; everything the run writes goes under .perfbench/.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402

TREESKETCH = "_build/default/bin/treesketch.exe"
PROBE = "_build/default/perfbench/probe/probe.exe"
TARGET = "xmark_x4"  # the synopsis both workloads' write phases mutate

READ_RE = re.compile(
    r"^ok (query|answer) degraded=(\S+)(?: tier=\S+ budget=\d+)?"
    r"(?: levels=(\d+) staleness=([0-9.]+))?"
    r"(?: est=(\S+) classes=(\d+) empty=(yes|no)"
    r"| empty=yes| truncated=(yes|no) nodes=(\d+) tree=<.*>)$")
WRITE_RE = re.compile(r"^ok (ingest|delete|update) name=\S+ seq=(\d+) wal=\d+(?: backpressure=(\d+))?$")
STAT_RE = re.compile(r"^ok stat name=\S+ .*levels=(\d+) level_records=(\d+) flushed=(\d+) wal=(\d+) ")


class CheckFailed(Exception):
    pass


def build_program():
    """Build the CLI and the probe from source (dune, or dune through
    opam when dune is not on PATH); False on failure."""
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    if not shutil.which(dune[0]):
        sys.stderr.write("perfbench: neither dune nor opam is on PATH\n")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(dune + ["build", "--root", ".", "./bin/treesketch.exe",
                               "./perfbench/probe/probe.exe"],
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0 or not (os.path.exists(TREESKETCH) and os.path.exists(PROBE)):
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        return False
    return True


def probe(*args):
    r = subprocess.run([PROBE, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise CheckFailed(f"probe {args[0]} failed: {r.stderr.decode(errors='replace')[-2000:]}")
    return [line.split("\t") for line in r.stdout.decode().splitlines() if line]


def read_tsv(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def read_lines(path):
    with open(path) as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def fragment_bytes(line):
    """Bytes of the XML fragment a mutation line carries (0 for DELETE)."""
    verb = line.split(" ", 1)[0]
    return 0 if verb == "DELETE" else len(line.split(" ", 3 if verb == "UPDATE" else 2)[-1])


class Run:
    def __init__(self, args, spec):
        self.w = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.spec = spec
        self.dir = os.path.join(".perfbench", f"{self.w}-{self.seed}-{os.getpid()}")
        self.inp = os.path.join(self.dir, "in")
        self.cat = os.path.join(self.dir, "catalog")
        self.sock = os.path.join(self.dir, "s.sock")
        self.attempted = 0
        self.failed = 0
        self.servers = []
        self.m = {}        # end-to-end metric values
        self.notes = []    # human-readable lines: sample counts, percentiles
        self.log = []      # (request, response) of base-snapshot reads, for `probe check`
        self.ext = {}      # per-layer values measured by the end-to-end phases

    # ------------------------------------------------------------ phases

    def count(self, resp, write=False):
        """Tally one operation; True iff it failed (error line, shed,
        refused connection, degraded or truncated answer)."""
        self.attempted += 1
        if write:
            m = WRITE_RE.match(resp)
            bad = m is None
        else:
            m = READ_RE.match(resp)
            bad = m is None or m.group(2) != "no" or m.group(8) == "yes"
        if resp.startswith("error "):
            bad = True
        elif m is None:
            raise CheckFailed(f"unparseable response: {resp[:200]!r}")
        if bad:
            self.failed += 1
        return bad

    def gen(self, reads, writes):
        probe("gen", "--workload", self.w, "--seed", str(self.seed), "--dir", self.inp,
              "--reads", str(reads), "--writes", str(writes))
        self.docs = read_tsv(os.path.join(self.inp, "docs.tsv"))

    def build_all(self):
        """`treesketch build` of every document, one at a time: wall seconds."""
        os.makedirs(self.cat, exist_ok=True)
        wall = 0.0
        for name, xml, *_ in self.docs:
            t0 = harness.clock()
            rc = subprocess.run([TREESKETCH, "build", xml, "--budget", "16KB",
                                 "-o", os.path.join(self.cat, name + ".ts")],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            wall += harness.clock() - t0
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                raise CheckFailed(f"treesketch build {name} exited {rc}")
        return wall

    def start_server(self):
        s = harness.Server(TREESKETCH, self.cat, self.sock, os.path.join(self.dir, "server.log"),
                           self.spec["max_answer_nodes"])
        self.servers.append(s)
        return s, s.start()

    def stop_servers(self):
        for s in self.servers:
            s.stop()

    def setup(self):
        """One set-up round: the catalog's `treesketch build` runs plus
        server start until the first PING.  Returns the running server."""
        shutil.rmtree(self.cat, ignore_errors=True)
        wall = self.build_all()
        srv, up = self.start_server()
        self.setup_times.append(wall + up)
        self.build_times.append(wall)
        return srv

    def reads(self, results, stale=False):
        """Latencies (ms) of reads, each timed from send to response.
        With `stale`, level-stack QUERYs (reads that ran while writes
        flowed) also feed write.staleness_s."""
        lat = []  # a failed read is charged an infinite latency
        for sent, done, line, resp in results:
            lat.append(stats.charged_latency(done - sent, self.count(resp)) * 1e3)
            if "levels=" not in resp:
                self.log.append((line, resp))
            if resp.startswith("ok answer") and "tree=" in resp:
                self.answer_bytes.append(len(resp))
            m = READ_RE.match(resp)
            if stale and m and m.group(1) == "query" and m.group(3) is not None:
                self.stale.append(float(m.group(4)))
            self.served.append((line, resp))
        return lat

    def write_results(self, results):
        """Latencies (ms) of mutations, a failed one charged an infinite
        latency; records the acked ones."""
        lat = []
        for sent, done, line, resp in results:
            lat.append(stats.charged_latency(done - sent, self.count(resp, write=True)) * 1e3)
            m = WRITE_RE.match(resp)
            if m:
                self.acked.append((int(m.group(2)), line, done))
                if m.group(3) is not None:
                    self.paced += 1
            elif "ingest-deferred" in resp:
                self.shed += 1
        return lat

    def quiesce(self, conn, target):
        """Wait (bounded) until no compaction is pending, then STAT."""
        deadline = time.time() + 20.0
        while True:
            st = conn.request(f"STAT {target}")
            m = STAT_RE.match(st)
            if m is None:
                raise CheckFailed(f"unexpected STAT response: {st[:200]!r}")
            if int(m.group(1)) < self.spec["flush_policy"]["compact_levels"] or time.time() > deadline:
                return int(m.group(2)), int(m.group(3)), int(m.group(4))
            time.sleep(0.05)

    # ------------------------------------------------------------- run

    def run(self):
        os.makedirs(self.inp, exist_ok=True)
        ph, size = self.spec["phases"][self.w], self.spec["sizing"]
        S = float(self.seconds)
        t_closed = ph["closed"] * S
        n_warm = int(size["closed_reads_per_s"][self.w] * self.spec["warmup_s"])
        n_closed = int(size["closed_reads_per_s"][self.w] * t_closed) + n_warm
        # a fixed count of mutations, so every run makes the same level
        # stack whatever the machine's speed; sized to fill the phase on
        # the reference box
        n_writes = int(size["writes_per_s"] * ph["write"] * S)
        self.answer_bytes, self.served, self.acked, self.stale = [], [], [], []
        self.paced = self.shed = 0
        self.gen(n_closed, n_writes)
        reads = read_lines(os.path.join(self.inp, "reads.tsv"))
        hot = read_lines(os.path.join(self.inp, "hot.tsv"))
        # set-up rounds before and after the measured phases, so one slow
        # stretch of the machine does not decide their median
        self.setup_times, self.build_times = [], []
        before, after = (1, 0) if self.trace else (ph["setup_before"], ph["setup_after"])
        for _ in range(before - 1):
            self.setup().stop()
        srv = self.setup()

        spans = None
        if self.trace:
            work = os.path.join(self.dir, "trace")
            os.makedirs(work)
            probe("trace", "--dir", self.inp, "--catalog", self.cat, "--socket", self.sock,
                  "--work", work, "--reads", str(self.spec["trace_reads"][self.w]),
                  "--max-answer-nodes", str(self.spec["max_answer_nodes"]))
            spans = os.path.join(work, "spans.tsv")

        conns = [harness.Conn(self.sock) for _ in range(2)]
        writes = read_lines(os.path.join(self.inp, "writes.tsv"))[:n_writes]
        hot = hot[:n_writes]
        # warm-up on both connections, from the end of the list: the pool
        # workers load the snapshots and grow their heaps before any timing
        self.reads(harness.run_closed_loop(conns, reads[len(reads) - n_warm:], self.spec["warmup_s"])[1])
        # reads on the base snapshots, then the writes; a compaction the
        # writes start cannot run into the read phase
        elapsed, res = harness.run_closed_loop(conns, reads[:len(reads) - n_warm], t_closed)
        read_lat = self.reads(res)
        window = self.spec["rps_window_s"]
        self.m["read_rps"] = stats.median_rate(min(r[0] for r in res), [r[1] for r in res], window)
        self.notes.append(f"read_rps: median of the {window} s windows of the closed loop "
                          f"({len(res)} reads, {len(res) / elapsed:.0f}/s overall)")
        self.read_share([line for line, _ in self.served])
        self.base_bytes = harness.dir_bytes(self.cat)
        sampler = harness.DirSampler(self.cat)
        sampler.start()
        if ph["hot_reads"] == "after_each":
            res = harness.run_side_by_side([(conns[0], [line for pair in zip(writes, hot) for line in pair])])[0]
            wres, rres = res[0::2], res[1::2]
        else:  # "beside": on the other connection at the same time
            wres, rres = harness.run_side_by_side([(conns[0], writes), (conns[1], hot)])
        self.samples = sampler.stop()
        wlat, hot_lat = self.write_results(wres), self.reads(rres, stale=True)
        if self.w == "mixed":  # the hot QUERYs over the growing level stack
            read_lat = hot_lat

        # end state of the writes: lost acks, space, accuracy
        level_records, flushed, depth = self.quiesce(conns[0], TARGET)
        self.checks_writes(level_records, depth)
        self.ext["write.space_amp"] = self.space_amp(self.samples, self.base_bytes)
        if self.w == "mixed":
            self.m["sel_err"] = self.mixed_sel_err(conns[0], flushed)
        self.m["rss_mb"] = srv.rss_kb() / 1024.0
        for c in conns:
            c.close()
        self.stop_servers()

        self.metric_summaries(read_lat, wlat)
        if self.w == "read":
            self.m["sel_err"] = self.served_sel_err()
        self.check_served()
        with open(os.path.join(self.dir, "server.log"), errors="replace") as f:
            crashes = sum(1 for line in f if line.startswith("event=job-crash name=.compact-"))
        for _ in range(after):
            self.setup().stop()
        self.m["setup_s"] = statistics.median(self.setup_times)
        self.notes.append(f"setup_s: median of {len(self.setup_times)} set-ups "
                          f"({before} before, {after} after the measured phases) "
                          f"{['%.3f' % t for t in self.setup_times]}")
        self.ext.update({
            "client.retries": float(sum(c.retries for c in conns)),
            "write_pressure.paced": float(self.paced),
            "write_pressure.shed": float(self.shed),
            "ingest.compact_crashes": float(crashes),
            "build.cli_s": statistics.median(self.build_times),
        })
        if crashes:
            self.notes.append(f"compaction jobs that crashed and were retried: {crashes}")
        metrics = self.m
        if spans:
            metrics = layers.per_layer(spans, self.ext)
            parts, (untraced, _) = metrics["_breakdown"], metrics["_untraced"]
            self.notes += layers.describe(metrics)
            problems = stats.breakdown_problems(parts, untraced, self.spec["trace_slack"],
                                                self.spec["trace_negative_slack"])
            if problems:
                raise CheckFailed("read breakdown: " + "; ".join(problems))
        undefined = [k for k, v in metrics.items() if not math.isfinite(v)]
        if undefined:
            raise CheckFailed(f"{', '.join(sorted(undefined))} undefined: failed operations "
                              f"reach the percentile")
        return metrics

    # ------------------------------------------------------------ checks

    def metric_summaries(self, read_lat, wlat):
        p50, tail, p, n = stats.summary(read_lat)
        self.m["read_p50_ms"], self.ext["read.p99_ms"] = p50, tail
        self.notes.append(f"read latency: {n} samples, tail = p{p}")
        p50, tail, p, n = stats.summary(wlat)
        self.m["write_p50_ms"], self.ext["write.p99_ms"] = p50, tail
        self.notes.append(f"write latency: {n} samples, tail = p{p}")
        _, tail, p, n = stats.summary(self.stale)
        self.ext["write.staleness_s"] = tail
        self.notes.append(f"staleness: {n} level-stack QUERYs during writes, tail = p{p}")
        if self.answer_bytes:
            ab = sorted(self.answer_bytes)
            self.notes.append(f"ANSWER response bytes: p50 {statistics.median(ab):.0f}, max {ab[-1]}")

    def read_share(self, lines):
        """Distinct-request share of the reads before the write phase."""
        share = len(set(lines)) / max(1, len(lines))
        self.notes.append(f"distinct request share: {share:.3f} of {len(lines)} reads before the writes")

    def space_amp(self, samples, base_bytes):
        """Data-directory growth per byte of acknowledged fragments: the
        median over the samples of the write phase's second half, so the
        level count a snapshot happens to catch (0-3 uncompacted levels)
        does not decide it."""
        acks = sorted((done, fragment_bytes(line)) for _, line, done in self.acked)
        ratios, acked, i = [], 0, 0
        half = samples[len(samples) // 2][0]
        for t, size in samples:
            while i < len(acks) and acks[i][0] <= t:
                acked += acks[i][1]
                i += 1
            if t >= half and acked:
                ratios.append((size - base_bytes) / acked)
        self.notes.append(f"space_amp: median of {len(ratios)} directory samples")
        return statistics.median(ratios)

    def checks_writes(self, level_records, depth):
        """Zero lost acks: every acknowledged mutation is in a level or
        the memtable (the engine counts DELETEs as records too)."""
        if level_records + depth != len(self.acked):
            raise CheckFailed(f"lost acks: STAT level_records {level_records} + wal {depth} "
                              f"!= {len(self.acked)} acknowledged mutations")
        self.notes.append(f"acked mutations: {len(self.acked)} = level_records {level_records} + memtable {depth}")

    def served_sel_err(self):
        exact = {(n, q): float(v) for n, q, v in read_tsv(os.path.join(self.inp, "exact.tsv"))}
        pairs, seen = [], set()
        for line, resp in self.served:
            verb, name, q = line.split(" ", 2)
            m = READ_RE.match(resp)
            if verb == "QUERY" and (name, q) in exact and line not in seen and m and m.group(2) == "no":
                seen.add(line)
                pairs.append((exact[(name, q)], float(m.group(5))))
        self.notes.append(f"sel_err: {len(pairs)} served QUERYs scored against Twig.Eval")
        return stats.sel_err(pairs)

    def mixed_sel_err(self, conn, flushed):
        """Served estimates on the write target against exact counts on a
        reference model of its document plus the flushed mutations."""
        path = os.path.join(self.dir, "acked.tsv")
        with open(path, "w") as f:
            for seq, line, _ in sorted(self.acked):
                if seq <= flushed:
                    f.write(f"{seq}\t{line}\n")
        exact = probe("refexact", "--dir", self.inp, "--name", TARGET, "--acked", path)
        pairs = []
        for q, v in exact:
            resp = conn.request(f"QUERY {TARGET} {q}")
            if self.count(resp):
                continue
            pairs.append((float(v), float(READ_RE.match(resp).group(5))))
        self.notes.append(f"sel_err: {len(pairs)} QUERYs after the run against a reference "
                          f"model of {flushed} flushed mutations")
        return stats.sel_err(pairs)

    def check_served(self):
        """Served QUERY/ANSWER on base snapshots == in-process answers."""
        path = os.path.join(self.dir, "served.tsv")
        with open(path, "w") as f:
            for line, resp in self.log:
                f.write(f"{line}\t{resp}\n")
        out = dict((r[0], r[1:]) for r in probe("check", "--catalog", self.cat, "--log", path,
                                                  "--limit", str(self.spec["check_limit"]),
                                                  "--max-answer-nodes", str(self.spec["max_answer_nodes"]))
                   if r[0] != "mismatch")
        checked, bad = int(out["checked"][0]), int(out["mismatches"][0])
        self.notes.append(f"in-process check: {checked} distinct served reads compared, {bad} mismatches")
        if bad:
            raise CheckFailed(f"{bad} served responses differ from the in-process answer")
        if checked == 0:
            raise CheckFailed("no served response could be compared in-process")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["read", "mixed"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.seed is None:
        args.seed = spec["seeds"]["default"]
    if not build_program():
        print("perfbench: building treesketch and the probe failed", file=sys.stderr)
        return 2
    run = Run(args, spec)
    correct, metrics = True, {}
    try:
        measured = run.run()
        if set(measured) != set(units):
            raise CheckFailed(f"metrics differ from BENCHMARK.json: missing "
                              f"{sorted(set(units) - set(measured))}, "
                              f"undeclared {sorted(set(measured) - set(units))}")
        metrics = measured
    except CheckFailed as e:
        correct = False
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        correct = False
        print(f"perfbench: RUN FAILED: {type(e).__name__}: {e}", file=sys.stderr)
    finally:
        run.stop_servers()
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:  # other runs' directories are still there
            pass
    for line in run.notes:
        print(line)
    print(f"failed operations: {run.failed} of {run.attempted} "
          f"({100.0 * run.failed / max(1, run.attempted):.2f}%)")
    for k in sorted(metrics):
        print(f"{k}: {metrics[k]:.6g} {units[k]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
