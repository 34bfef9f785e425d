#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bgla RSM and GWTS stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rsm-mixed --seed 1 --seconds 45 --trace 0

It builds the repo's libraries, bgla_node, bgla_trace and the perfbench
driver under $CARGO_TARGET_DIR (default .bench_build), runs one workload,
checks the program's outputs, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and the metric-to-layer map.
"""

import argparse
import json
import math
import os
import queue
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
T_START = time.monotonic()
DEADLINE_S = 170.0  # every run ends well inside 180 s

# The cluster shape (replicas, faults, clients) and the sim's commands per
# instance are constants of the perfbench driver (perfbench/common.h); the
# runner reads the shape from the driver's CLUSTER line.
#
# A live run is a sequence of fresh clusters, one per LIVE_SECONDS_PER_CLUSTER
# of --seconds, each doing LIVE_CLUSTER_OPS measured ops; the runner pools
# their ops. The op count is fixed (not a wall-clock window), so every run
# attempts the same operations and per-op cost, which grows with history,
# is compared at equal history. One cluster's throughput swings by a tenth
# to a sixth with the length of its persist stalls; pooling several short
# clusters evens that out, and keeps each replica's memory small.
LIVE_CLUSTER_OPS = 320
LIVE_SECONDS_PER_CLUSTER = 9
# The sim runs whole cluster instances, SIM_INSTANCES_PER_S of them per
# second of --seconds.
SIM_INSTANCES_PER_S = 0.3
IDLE_S = 2.0  # idle interval sampled before load in traced live runs

E2E = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "op_p90_ms": "ms",
    "rsm.update_p50_ms": "ms",
    "rsm.read_p50_ms": "ms",
    "la.decide_p50_ms": "ms",
    "la.decide_p99_ms": "ms",
    "la.rounds_per_op": "1/op",
    "la.idle_rounds_per_s": "1/s",
    "la.refinements_per_op": "1/op",
    "la.batch_size_mean": "values",
    "la.handler_ms_per_op": "ms",
    "la.msgs_per_op": "1/op",
    "net.frames_sent_per_op": "1/op",
    "net.retransmits_per_op": "1/op",
    "net.frame_rtt_p50_us": "us",
    "net.write_syscalls_per_op": "1/op",
    "net.threads_per_node": "threads",
    "net.delta_encode_us_per_msg": "us",
    "net.delta_unwrap_us_per_msg": "us",
    "net.wire_bytes_per_op": "B/op",
    "store.persists_per_op": "1/op",
    "store.persist_p50_us": "us",
    "store.persist_p99_us": "us",
    "store.write_bytes_per_op": "B/op",
    "store.wal_append_sync_us": "us",
    "crypto.macs_per_op": "1/op",
    "crypto.sha256_mb_per_s": "MB/s",
    "crypto.hmac_us": "us",
    "lattice.join_us": "us",
    "lattice.leq_us": "us",
    "lattice.digest_us": "us",
    "lattice.cost_growth": "ratio",
    "bgla_node.idle_cpu_cores": "cores",
    "sim.event_loop_ms_per_op": "ms",
    "obs.tap_coverage_pct": "%",
    "obs.span_enqueue_p50_ms": "ms",
    "obs.span_enqueue_p99_ms": "ms",
    "obs.span_round_p50_ms": "ms",
    "obs.span_round_p99_ms": "ms",
    "obs.span_quorum_p50_ms": "ms",
    "obs.span_quorum_p99_ms": "ms",
    "obs.span_apply_p50_ms": "ms",
    "obs.span_apply_p99_ms": "ms",
    "obs.trace_overhead_pct": "%",
}


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def remaining():
    return DEADLINE_S - (time.monotonic() - T_START)


# ---------------------------------------------------------------- build

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no bgla sources next to perfbench/ (src/ missing)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    t_build = time.time()
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "bgla_node", "bgla_trace", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    # A build leaves its outputs dirty in the page cache. Their writeback,
    # seconds later, can stall the replicas' fsyncs in the first runs, so
    # the new outputs are flushed here, before anything is timed.
    for parent, _, files in os.walk(bdir):
        for name in files:
            path = os.path.join(parent, name)
            if os.stat(path).st_mtime >= t_build - 1:
                fsync_path(path)
    return {
        "perfbench": os.path.join(bdir, "perfbench"),
        "node": os.path.join(bdir, "tools", "bgla_node"),
        "trace": os.path.join(bdir, "tools", "bgla_trace"),
        "runs": os.path.join(ROOT, target, "runs"),
    }


def fsync_path(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ------------------------------------------------------ process helpers

class Procs:
    """Every child process of a run; stop_all kills and reaps them."""

    def __init__(self):
        self.children = []

    def spawn(self, argv, **kw):
        p = subprocess.Popen(argv, **kw)
        self.children.append(p)
        return p

    def stop(self, procs):
        for p in procs:
            if p.poll() is None:
                p.kill()
        for p in procs:
            p.wait()

    def stop_all(self):
        self.stop(self.children)


class Driver:
    """The perfbench driver process and its line protocol."""

    def __init__(self, procs, argv):
        self.p = procs.spawn(argv, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, bufsize=1)
        self.lines = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self):
        for line in self.p.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, want):
        line = self.read()
        if line != want:
            raise BenchError("driver said %r, expected %r" % (line, want))

    def read(self):
        try:
            line = self.lines.get(timeout=max(1.0, remaining()))
        except queue.Empty:
            raise BenchError("driver timed out")
        if line is None:
            raise BenchError("driver exited early (code %s)" % self.p.wait())
        return line

    def send(self, line):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()

    def result(self):
        res = json.loads(self.read())
        self.p.wait(timeout=max(1.0, remaining()))
        return res


def wait_listening(ports, procs):
    """Polls /proc/net/tcp until every port is in LISTEN state."""
    want = {"0100007F:%04X" % p for p in ports}
    while True:
        with open("/proc/net/tcp") as fh:
            listening = {f[1] for f in (line.split() for line in fh)
                         if len(f) > 3 and f[3] == "0A"}
        if want <= listening:
            return
        if any(p.poll() is not None for p in procs) or remaining() < 0:
            raise BenchError("replicas never listened")
        time.sleep(0.001)


def free_ports(k):
    socks = []
    for _ in range(k):
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_sample(pids):
    """CPU seconds, VmHWM MB, threads, write syscalls and write bytes."""
    out = []
    for pid in pids:
        with open("/proc/%d/stat" % pid) as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        cpu = (int(fields[11]) + int(fields[12])) / CLK_TCK
        status = {}
        with open("/proc/%d/status" % pid) as fh:
            for line in fh:
                k, _, v = line.partition(":")
                status[k] = v.split()
        io = {}
        with open("/proc/%d/io" % pid) as fh:
            for line in fh:
                k, _, v = line.partition(":")
                io[k] = int(v)
        out.append({"cpu": cpu, "hwm_mb": int(status["VmHWM"][0]) / 1024.0,
                    "threads": int(status["Threads"][0]),
                    "syscw": io["syscw"], "write_bytes": io["write_bytes"]})
    return out


def scrape(ports):
    """One {series: value} dict per replica from its /metrics page."""
    out = []
    for port in ports:
        url = "http://127.0.0.1:%d/metrics" % port
        with urllib.request.urlopen(url, timeout=5) as resp:
            text = resp.read().decode()
        series = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                series[name] = float(value)
        out.append(series)
    return out


def msum(scrapes, base):
    """Sum over replicas and labels of one metric family."""
    return sum(v for s in scrapes for k, v in s.items()
               if k == base or k.startswith(base + "{"))


def mquant(scrapes, base, q):
    """Median over replicas (and label sets) of an exported quantile."""
    tag = 'quantile="%s"' % q
    vals = [v for s in scrapes for k, v in s.items()
            if k.startswith(base + "{") and tag in k]
    return statistics.median(vals) if vals else 0.0


# ------------------------------------------------------------ live RSM

def live_cluster(bins, rundir, seed, ops, mode):
    """One replica cluster plus the load driver; returns figures, with
    the measured ops' latencies as lists under "lat_update"/"lat_read".

    mode "e2e" measures the end-to-end figures only. "layers" also serves
    /metrics, samples an idle interval and scrapes at window start and
    end. "traced" is "layers" plus --trace-file --trace-spans."""
    procs = Procs()
    try:
        return _live_cluster(procs, bins, rundir, seed, ops, mode)
    finally:
        procs.stop_all()
        shutil.rmtree(rundir, ignore_errors=True)
        # Commit the removal now (the filesystem may discard the freed
        # blocks in that commit), so the next cluster does not wait for it.
        fsync_path(os.path.dirname(rundir))


def _live_cluster(procs, bins, rundir, seed, ops, mode):
    os.makedirs(rundir)
    topo = os.path.join(rundir, "topology.txt")
    lat_path = os.path.join(rundir, "latencies.txt")
    scrape_layers = mode != "e2e"
    traced = mode == "traced"
    argv = [bins["perfbench"], "live", "--topology", topo, "--ops", str(ops),
            "--seed", str(seed), "--latencies", lat_path]
    if scrape_layers:  # the substrate replays
        argv += ["--state-dir", os.path.join(rundir, "node0"),
                 "--scratch", rundir]
    drv = Driver(procs, argv)
    word, n, f, clients = drv.read().split()
    if word != "CLUSTER":
        raise BenchError("driver said %r, expected CLUSTER" % word)
    n, f, clients = int(n), int(f), int(clients)
    ports = free_ports(n + clients + n)
    with open(topo, "w") as fh:
        for i in range(n + clients):
            fh.write("%d 127.0.0.1 %d\n" % (i, ports[i]))
    mports = ports[n + clients:]
    t_launch = time.monotonic()
    replicas = []
    for i in range(n):
        argv = [bins["node"], "--topology", topo, "--id", str(i),
                "--protocol", "rsm-replica", "--n", str(n), "--f", str(f),
                "--seed", str(seed), "--data-dir",
                os.path.join(rundir, "node%d" % i),
                "--run-ms", str(int(remaining() * 1000)), "--linger-ms", "0"]
        if scrape_layers:
            argv += ["--metrics-port", str(mports[i])]
        if traced:
            argv += ["--trace-file",
                     os.path.join(rundir, "node%d.trace.jsonl" % i),
                     "--trace-spans"]
        with open(os.path.join(rundir, "node%d.log" % i), "w") as out:
            replicas.append(procs.spawn(argv, stdout=out,
                                        stderr=subprocess.STDOUT))
    pids = [p.pid for p in replicas]
    # Clients dial only once every replica listens, so no client connect
    # falls into the transport's reconnect backoff.
    wait_listening(ports[:n], replicas)
    drv.send("START")
    drv.expect("WARM")
    fig = {"setup_s": time.monotonic() - t_launch}
    if scrape_layers:
        m0, s0 = scrape(mports), proc_sample(pids)
        time.sleep(IDLE_S)
        m1, s1 = scrape(mports), proc_sample(pids)
        fig["la.idle_rounds_per_s"] = (
            msum(m1, "bgla_proto_round_advances_total") -
            msum(m0, "bgla_proto_round_advances_total")) / n / IDLE_S
        fig["bgla_node.idle_cpu_cores"] = sum(
            b["cpu"] - a["cpu"] for a, b in zip(s0, s1)) / IDLE_S
        m_start = m1
    s_start = proc_sample(pids)
    drv.send("GO")
    drv.expect("Q1")
    cpu_q1 = sum(s["cpu"] for s in proc_sample(pids))
    drv.expect("Q3")
    cpu_q3 = sum(s["cpu"] for s in proc_sample(pids))
    drv.expect("DONE")
    s_end = proc_sample(pids)
    if scrape_layers:
        m_end = scrape(mports)
    if traced:
        time.sleep(0.5)  # let the trace writers drain their rings
    for p in replicas:
        if p.poll() is not None:
            raise BenchError("replica exited early (code %s)" % p.returncode)
    procs.stop(replicas)
    drv.send("END")
    res = drv.result()
    if not res.get("correct"):
        raise BenchError("check failed: %s" % res.get("why"))

    measured = int(res["attempted"])
    fig["lat_update"], fig["lat_read"] = [], []
    with open(lat_path) as fh:
        for line in fh:
            kind, ms = line.split()
            fig["lat_read" if kind == "R" else "lat_update"].append(float(ms))
    if len(fig["lat_update"]) + len(fig["lat_read"]) != measured:
        raise BenchError("driver wrote %s latencies for %d ops" % (
            len(fig["lat_update"]) + len(fig["lat_read"]), measured))
    cpu_start = sum(s["cpu"] for s in s_start)
    cpu_end = sum(s["cpu"] for s in s_end)
    fig.update({k: res[k] for k in res if isinstance(res[k], (int, float))})
    fig["cpu_ms_per_op"] = (cpu_end - cpu_start) * 1e3 / measured
    fig["replica_rss_mb"] = [s["hwm_mb"] for s in s_end]
    fig["lattice.cost_growth"] = (cpu_end - cpu_q3) / max(
        cpu_q1 - cpu_start, 1.0 / CLK_TCK)
    fig["net.threads_per_node"] = statistics.mean(
        s["threads"] for s in s_end)
    fig["net.write_syscalls_per_op"] = sum(
        b["syscw"] - a["syscw"] for a, b in zip(s_start, s_end)) / measured
    fig["store.write_bytes_per_op"] = sum(
        b["write_bytes"] - a["write_bytes"]
        for a, b in zip(s_start, s_end)) / measured
    if scrape_layers:
        def delta(base):
            return msum(m_end, base) - msum(m_start, base)
        frames = delta("bgla_net_frames_sent_total")
        # Every DATA frame is signed, and its ACK verified, by the sender;
        # every DATA frame received, fresh or duplicate, is verified and
        # its ACK signed by the receiver (src/net/socket_transport.cc).
        # bgla_crypto_macs_computed_total leaves these frame MACs out, so
        # the count is derived from the frame counters.
        macs = 2 * (frames + delta("bgla_net_frames_recv_total") +
                    delta("bgla_net_dups_suppressed_total"))
        batches = delta("bgla_proto_batch_size_count")
        fig.update({
            "la.rounds_per_op":
                delta("bgla_proto_round_advances_total") / n / measured,
            "la.refinements_per_op":
                delta("bgla_proto_refinements_total") / n / measured,
            "la.batch_size_mean":
                delta("bgla_proto_batch_size_sum") / batches
                if batches else 0.0,
            "la.decide_p50_ms":
                mquant(m_end, "bgla_proto_decide_latency_us", "0.5") / 1e3,
            "la.decide_p99_ms":
                mquant(m_end, "bgla_proto_decide_latency_us", "0.99") / 1e3,
            "la.msgs_per_op": delta("bgla_proto_msgs_sent_total") / measured,
            "net.frames_sent_per_op": frames / measured,
            "net.retransmits_per_op":
                delta("bgla_net_frames_retransmitted_total") / measured,
            "net.frame_rtt_p50_us":
                mquant(m_end, "bgla_net_frame_rtt_us", "0.5"),
            "store.persists_per_op":
                delta("bgla_store_persist_latency_us_count") / measured,
            "store.persist_p50_us":
                mquant(m_end, "bgla_store_persist_latency_us", "0.5"),
            "store.persist_p99_us":
                mquant(m_end, "bgla_store_persist_latency_us", "0.99"),
            "crypto.macs_per_op": macs / measured,
        })
    if traced:
        fig.update(critical_path(bins, rundir))
    log("perfbench: cluster %s: %.2f ops/s, %.2f ms CPU/op, replica VmHWM "
        "%s MB" % (os.path.basename(rundir), measured / fig["wall_s"],
                   fig["cpu_ms_per_op"],
                   " ".join("%.1f" % m for m in fig["replica_rss_mb"])))
    return fig


def critical_path(bins, rundir):
    out = os.path.join(rundir, "critical_path.json")
    subprocess.run([bins["trace"], "--input",
                    os.path.join(rundir, "node*.trace.jsonl"),
                    "--critical-path", "--json", out],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=max(1.0, remaining()))
    with open(out) as fh:
        phases = json.load(fh)["critical_path"]["phases"]
    fig = {}
    for ph in ("enqueue", "round", "quorum", "apply"):
        q = phases.get(ph, {})
        fig["obs.span_%s_p50_ms" % ph] = q.get("p50_us", 0) / 1e3
        fig["obs.span_%s_p99_ms" % ph] = q.get("p99_us", 0) / 1e3
    return fig


def percentile(values, q):
    """Nearest-rank percentile, as the driver's (perfbench/common.cc)."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, max(0, math.ceil(q * len(v)) - 1))]


def pool(figs):
    """One run's figures from its clusters: the first cluster's, with the
    end-to-end figures and latency percentiles taken over all of them.

    peak_rss_mb is the median over all replicas of their VmHWM: single
    replicas now and then peak 10-15 MB above the others, so the highest
    one spread 0.11-0.17 over seeds."""
    fig = dict(figs[0])
    ops = sum(int(f["attempted"]) for f in figs)
    upd = [ms for f in figs for ms in f["lat_update"]]
    rd = [ms for f in figs for ms in f["lat_read"]]
    fig.update({
        "attempted": ops,
        "ops_per_s": ops / sum(f["wall_s"] for f in figs),
        "cpu_ms_per_op": sum(f["cpu_ms_per_op"] * int(f["attempted"])
                             for f in figs) / ops,
        "peak_rss_mb": statistics.median(
            m for f in figs for m in f["replica_rss_mb"]),
        "op_p50_ms": percentile(upd + rd, 0.50),
        "op_p90_ms": percentile(upd + rd, 0.90),
        "rsm.update_p50_ms": percentile(upd, 0.50),
        "rsm.read_p50_ms": percentile(rd, 0.50),
    })
    return fig


def run_live(bins, rundir, seed, seconds, trace):
    if not trace:
        clusters = max(1, round(seconds / LIVE_SECONDS_PER_CLUSTER))
        figs = [live_cluster(bins, os.path.join(rundir, "e%d" % i), seed + i,
                             LIVE_CLUSTER_OPS, "e2e")
                for i in range(clusters)]
        fig = pool(figs)
        return fig["attempted"], fig
    # Two clusters with the same flags, idle interval and scrapes; only
    # the second traces. The layer figures come from the first.
    fig = pool([live_cluster(bins, os.path.join(rundir, "a"), seed,
                             LIVE_CLUSTER_OPS, "layers")])
    traced = pool([live_cluster(bins, os.path.join(rundir, "b"), seed,
                                LIVE_CLUSTER_OPS, "traced")])
    fig.update({k: v for k, v in traced.items() if k.startswith("obs.")})
    fig["obs.trace_overhead_pct"] = 100.0 * (
        fig["ops_per_s"] / traced["ops_per_s"] - 1.0)
    log("perfbench: obs.trace_overhead_pct %.1f%% comes from one pair of "
        "runs; it is unresolved unless it exceeds the run-to-run spread of "
        "ops_per_s (perfbench/README.md)" % fig["obs.trace_overhead_pct"])
    return fig["attempted"] + traced["attempted"], fig


# ------------------------------------------------------------- sim GWTS

def sim_once(bins, seed, instances, taps):
    procs = Procs()
    try:
        argv = [bins["perfbench"], "sim", "--seed", str(seed),
                "--instances", str(instances)]
        if taps:
            argv.append("--taps")
        p = procs.spawn(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                        text=True)
        out, _ = p.communicate(timeout=max(1.0, remaining()))
    finally:
        procs.stop_all()
    res = json.loads(out.strip().splitlines()[-1])
    if not res.get("correct"):
        raise BenchError("check failed: %s" % res.get("why"))
    return res


def run_sim(bins, seed, seconds, trace):
    instances = max(1, round(SIM_INSTANCES_PER_S * seconds))
    fig = sim_once(bins, seed, instances, False)
    attempted = int(fig["attempted"])
    if trace:
        tapped = sim_once(bins, seed, instances, True)
        attempted += int(tapped["attempted"])
        wall = fig["wall_s"]
        tapped["op_p90_ms"] = fig["op_p90_ms"]  # untapped, as end to end
        fig = tapped
        fig["obs.trace_overhead_pct"] = 100.0 * (tapped["wall_s"] / wall - 1)
    return attempted, fig


# ----------------------------------------------------------------- main

WORKLOADS = ("rsm-mixed", "sim-gwts-delta")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = args.seed & 0xffffffffffff or 1

    bins = build()
    # A build is not part of any run's measured time or deadline.
    global T_START
    T_START = time.monotonic()
    rundir = os.path.join(bins["runs"], "%s-%d" % (args.workload,
                                                   os.getpid()))
    try:
        if args.workload == "sim-gwts-delta":
            attempted, fig = run_sim(bins, seed, args.seconds, args.trace)
        else:
            attempted, fig = run_live(bins, rundir, seed, args.seconds,
                                      args.trace)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        # Commit the removal now (the filesystem may discard the freed
        # blocks in that commit), so the next run does not wait for it.
        if os.path.isdir(bins["runs"]):
            fsync_path(bins["runs"])

    wanted = PER_LAYER if args.trace else E2E
    metrics = {k: {"value": float(fig.get(k, 0.0)), "unit": u}
               for k, u in wanted.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
