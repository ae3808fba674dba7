#!/usr/bin/env python3
"""Benchmark of the three pipelines: batch, serve-read and serve-write.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30        # every workload
    python3 perfbench/run.py --all --reverse --trace 1          # traced, reversed

One run builds the program (dune), generates the workload's inputs from
the seed, drives the program from outside through its public entry
points (the `guarded listen` server, and cold `pb job` processes that
call the library's public functions), checks every output, and prints
human-readable rows followed by one JSON line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/NOTES.md for the definitions). A wrong
answer fails the run: the JSON line then says "correct": false, has no
metrics, and the exit code is 1. Any other error exits non-zero without
a JSON line.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

PB = os.path.join("_build", "default", "perfbench", "pb.exe")
GUARDED = os.path.join("_build", "default", "bin", "guarded.exe")
WORK = ".bench_work"

WORKLOADS = ("batch", "serve-read", "serve-write")

# Inputs. Every workload uses the generated publication population of
# `pb gen`: one or two authors out of pubs/2 and one topic out of
# pubs/per_topic per publication.
BATCH = {"fg": 3, "pubs": 1500, "per_topic": 10}
SERVE = {"fg": 2, "pubs": 2000, "per_topic": 10}
LOAD = {"load_entities": 375, "load_rounds": 16}  # serve-write: one LOAD block per cycle
MIN_JOBS = 5  # batch: cold jobs per run, at least
SETUP_PROBES_PER_JOB = 2  # batch: extra cold spawns timed to the first layer call
SERVER_LAUNCHES = 9  # serve-*: server start-ups timed per run
PROBE_SECONDS = 3.0  # batch --trace 1: serving-layer session length

PIPELINE_LAYERS = [
    "core.parse_theory",
    "core.parse_db",
    "core.normalize",
    "core.classify",
    "translate.rew",
    "translate.dat",
    "datalog.eval",
    "datalog.answer",
]
PIPELINE_COUNTS = [
    "translate.rew_rules",
    "translate.rew_processed",
    "translate.closure_rules",
    "translate.resolutions",
    "translate.closure_yield",
    "translate.dat_rules",
    "datalog.idb_facts",
]
SERVING_PROBES = [
    ("incr.lookup_eval_us", "us"),
    ("incr.scan_eval_us", "us"),
    ("incr.cq_eval_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("codec.decode_us_per_kfact", "us"),
    ("incr.load_apply_ms", "ms"),
    ("incr.apply_ms", "ms"),
    ("incr.delta_parse_us", "us"),
    ("state.commit_ms", "ms"),
    ("incr.added", "count"),
    ("incr.removed", "count"),
    ("incr.fallback_strata", "count"),
]

CHILDREN = []


class BenchError(Exception):
    pass


class WrongAnswer(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------
# Processes


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise BenchError("not the root of a checkout of the repository (no dune-project, lib/ or bin/)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        raise BenchError("neither dune nor opam is on PATH")
    p = subprocess.run(
        dune + ["build", "--root", ".", "./bin/guarded.exe", "./perfbench/pb.exe"],
        capture_output=True,
        text=True,
        timeout=900,
    )
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stderr[-3000:])


def pb(args, timeout=170):
    p = subprocess.run([PB] + args, capture_output=True, text=True, timeout=timeout)
    if p.returncode != 0:
        raise BenchError("pb %s failed (exit %d): %s" % (args[0], p.returncode, p.stderr[-2000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def population_args(seed, spec):
    return ["--seed", str(seed), "--pubs", str(spec["pubs"]), "--per-topic", str(spec["per_topic"])]


def frame(payload):
    data = payload.encode()
    return struct.pack(">I", len(data)) + data


def read_frame(sock):
    def exactly(n):
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise BenchError("server closed the connection")
            buf += chunk
        return buf

    (n,) = struct.unpack(">I", exactly(4))
    return exactly(n).decode()


def launch_server(wdir, tag, expected_scan):
    """Start `guarded listen` with default settings; return the process
    and the seconds from launch to its first answered request."""
    sock_path = os.path.join(wdir, tag + ".sock")
    if os.path.exists(sock_path):
        os.remove(sock_path)
    logf = open(os.path.join(wdir, tag + ".log"), "w")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [GUARDED, "listen", os.path.join(wdir, "theory.rules"), os.path.join(wdir, "data.db"), "--socket", sock_path],
        stdout=logf,
        stderr=subprocess.STDOUT,
    )
    logf.close()
    CHILDREN.append(proc)
    while True:
        if proc.poll() is not None:
            raise BenchError("server exited during start-up (exit %d)" % proc.returncode)
        if time.monotonic() - t0 > 150:
            raise BenchError("server did not answer within 150 s")
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(sock_path)
        except (FileNotFoundError, ConnectionRefusedError):
            s.close()
            time.sleep(0.002)
            continue
        try:
            s.sendall(frame("? q"))
            reply = read_frame(s)
            t1 = time.monotonic()
            s.sendall(frame("QUIT"))
        finally:
            s.close()
        head = reply.split("\n", 1)[0]
        if head != "ANSWERS %d" % expected_scan:
            raise WrongAnswer("first reply %r, expected ANSWERS %d" % (head, expected_scan))
        return proc, sock_path, t1 - t0


def vm_hwm_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM for pid %d" % pid)


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def stop_all():
    for proc in CHILDREN:
        stop(proc)


# --------------------------------------------------------------------
# Statistics


def quantile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    v = sorted(values)
    if not v:
        raise BenchError("no samples")
    r = q * (len(v) - 1)
    lo = int(r)
    hi = min(len(v) - 1, lo + 1)
    return v[lo] + (v[hi] - v[lo]) * (r - lo)


def read_trace(path):
    spans, counts = [], {}
    with open(path) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "S":
                spans.append(
                    {
                        "id": int(parts[1]),
                        "parent": int(parts[2]),
                        "req": int(parts[3]),
                        "name": parts[4],
                        "start": float(parts[5]),
                        "end": float(parts[6]),
                    }
                )
            elif parts[0] == "C":
                counts[parts[1]] = float(parts[2])
    return spans, counts


def self_times(spans):
    """Per layer (the name's first dotted component): summed duration
    minus the time its child spans cover."""
    child = {}
    for s in spans:
        child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end"] - s["start"])
    out = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child.get(s["id"], 0.0)
    return out


# --------------------------------------------------------------------
# Output


class Report:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.metrics = {}

    def row(self, name, value, unit, n=None, note=""):
        count = "" if n is None else "n=%d" % n
        print("%-12s %-34s %16.6g %-6s %-9s %s" % (self.workload, name, value, unit, count, note))

    def metric(self, name, value, unit, n=None):
        self.metrics[name] = {"value": value, "unit": unit}
        self.row(name, value, unit, n, "*")

    def result(self):
        return {"correct": True, "attempted": self.attempted, "failed": self.failed, "metrics": self.metrics}


# --------------------------------------------------------------------
# Workloads


def gen(wdir, seed, spec):
    pb(["gen", "--dir", wdir, "--fg", str(spec["fg"])] + population_args(seed, spec))


def certain_q(wdir):
    """q's certain answers in closed form, independent of the program:
    every publication gets a null topic K1, so shared(K1) holds and q(A)
    holds for every author A of a publication (or of a paper with a
    topic). Returns the count and the digest `pb` computes."""
    pubs, authors = set(), {}
    with open(os.path.join(wdir, "data.db")) as f:
        for line in f:
            rel, _, args = line.strip().rstrip(".").rstrip(")").partition("(")
            terms = [t.strip() for t in args.split(",")]
            if rel in ("publication", "hasTopic"):
                pubs.add(terms[0])
            elif rel == "hasAuthor":
                authors.setdefault(terms[0], set()).add(terms[1])
    q = sorted({"(%s)" % a for x in pubs for a in authors.get(x, ())})
    return len(q), hashlib.md5("\n".join(q).encode()).hexdigest()


def mirror(wdir, seed, spec, probe=None, pipeline=True):
    args = ["mirror", "--dir", wdir, "--expected", os.path.join(wdir, "expected.txt")] + population_args(seed, spec)
    if probe:
        args += ["--probe", probe, "--pipeline", "1" if pipeline else "0"]
    pb(args)
    with open(os.path.join(wdir, "expected.txt")) as f:
        for line in f:
            if line.startswith("S "):
                return int(line.split()[2])
    raise BenchError("mirror wrote no scan expectation")


def loadgen(wdir, seed, spec, sock, mix, seconds, trace=None):
    args = ["loadgen", "--socket", sock, "--mix", mix, "--seconds", str(seconds)]
    args += ["--expected", os.path.join(wdir, "expected.txt")] + population_args(seed, spec)
    args += ["--load-entities", str(LOAD["load_entities"]), "--load-rounds", str(LOAD["load_rounds"])]
    if trace:
        args += ["--trace", trace]
    return pb(args, timeout=seconds + 120)


def check_loadgen(rep, lg):
    rep.attempted += lg["attempted"]
    rep.failed += lg["failed"]
    if lg["mismatched"]:
        raise WrongAnswer("%d replies had a different answer count than the mirror" % lg["mismatched"])


def cold_job(wdir, extra=()):
    t0 = time.monotonic()
    p = subprocess.run([PB, "job", "--dir", wdir] + list(extra), capture_output=True, text=True, timeout=170)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        return None, wall, t0
    return json.loads(p.stdout.strip().splitlines()[-1]), wall, t0


def run_batch(rep, wdir, seed, seconds, trace):
    gen(wdir, seed, BATCH)
    oracle = pb(["oracle", "--dir", wdir])
    if (oracle["answers"], oracle["digest"]) != certain_q(wdir):
        raise WrongAnswer("Pipeline.answer gave %d answers, the closed form %d" % (oracle["answers"], certain_q(wdir)[0]))
    walls, traced_walls, setups, hwm, samples = [], [], [], [], {}
    t_end = time.monotonic() + seconds
    i = 0
    while i < MIN_JOBS * (2 if trace else 1) or time.monotonic() < t_end:
        # The traced run alternates traced and untraced jobs, so the
        # same run gives the tracing overhead.
        traced = trace and i % 2 == 1
        spans_path = os.path.join(wdir, "job%d.tsv" % i)
        out, wall, t0 = cold_job(wdir, ["--trace", spans_path] if traced else [])
        i += 1
        rep.attempted += 1
        if out is None:
            rep.failed += 1
            continue
        if (out["answers"], out["digest"]) != (oracle["answers"], oracle["digest"]):
            raise WrongAnswer("job answered %d tuples (digest %s), Pipeline.answer %d (%s)"
                              % (out["answers"], out["digest"], oracle["answers"], oracle["digest"]))
        setups.append(out["t_first"] - t0)
        hwm.append(out["hwm_kb"] / 1024.0)
        if traced:
            traced_walls.append(wall)
            add_pipeline_samples(samples, *read_trace(spans_path))
        else:
            walls.append(wall)
        # Set-up probes between the jobs, so they sample the whole run.
        for _ in range(SETUP_PROBES_PER_JOB):
            out, _, t0 = cold_job(wdir, ["--setup-only", "1"])
            if out is None:
                raise BenchError("set-up probe failed")
            setups.append(out["t_first"] - t0)
    answer_s = statistics.median(walls)
    rep.row("answer_s", answer_s, "s", len(walls))
    rep.row("fail_frac", rep.failed / rep.attempted, "ratio", rep.attempted)
    if not trace:
        rep.metric("setup_s", statistics.median(setups), "s", len(setups))
        rep.metric("peak_rss_mb", statistics.median(hwm), "MB", len(hwm))
        rep.metric("p50_ms", answer_s * 1000.0, "ms", len(walls))
        rep.row("p90_ms", quantile(walls, 0.9) * 1000.0, "ms", len(walls))
        rep.metric("throughput_per_s", len(walls) / sum(walls), "1/s", len(walls))
        return
    report_pipeline(rep, samples)
    total = sum(statistics.median(samples[name + "_ms"]) for name in PIPELINE_LAYERS)
    share = total / (answer_s * 1000.0)
    rep.row("layer_sum/answer_s", share, "ratio", note="within 10%" if abs(share - 1) <= 0.1 else "OFF BY MORE THAN 10%")
    overhead = statistics.median(traced_walls) - answer_s
    rep.row("trace.overhead_ms", overhead * 1000.0, "ms", len(traced_walls), "traced minus untraced job")
    # The serving layers on the same inputs: an in-process mirror and a
    # short session against a server, so the traced run reports every
    # per-layer metric on every workload.
    probe = os.path.join(wdir, "probe.tsv")
    expected_scan = mirror(wdir, seed, BATCH, probe=probe, pipeline=False)
    report_probes(rep, read_trace(probe)[1])
    proc, sock, _ = launch_server(wdir, "probe", expected_scan)
    lg_trace = os.path.join(wdir, "loadgen.tsv")
    lg = loadgen(wdir, seed, BATCH, sock, "read", PROBE_SECONDS, trace=lg_trace)
    stop(proc)
    check_loadgen(rep, lg)
    report_requests(rep, lg, lg_trace, read_trace(probe)[1])


def add_pipeline_samples(samples, spans, counts):
    """Collect one traced pipeline's layer times, counts and self times."""
    for s in spans:
        samples.setdefault(s["name"] + "_ms", []).append((s["end"] - s["start"]) * 1000.0)
    for k, v in counts.items():
        samples.setdefault(k, []).append(v)
    for layer, t in self_times(spans).items():
        samples.setdefault("self." + layer + "_ms", []).append(t * 1000.0)


def report_pipeline(rep, samples):
    """The pipeline's per-layer metrics: medians over the traced runs."""
    for name in PIPELINE_LAYERS:
        rep.metric(name + "_ms", statistics.median(samples[name + "_ms"]), "ms", len(samples[name + "_ms"]))
    for name in PIPELINE_LAYERS:
        rep.metric(name + "_alloc_mb", statistics.median(samples[name + "_alloc_mb"]), "MB")
    for name in PIPELINE_COUNTS:
        rep.metric(name, statistics.median(samples[name]), "ratio" if name.endswith("yield") else "count")
    for name in sorted(k for k in samples if k.startswith("self.")):
        rep.row(name, statistics.median(samples[name]), "ms", note="self time")


def report_probes(rep, counts):
    for name, unit in SERVING_PROBES:
        rep.metric(name, counts[name], unit)


def report_requests(rep, lg, trace_path, probe_counts):
    """Client-side spans of the traced loadgen run, the server's own
    STATS, and the derived per-request overhead."""
    spans, _ = read_trace(trace_path)
    kind = {s["id"]: s["name"] for s in spans if s["name"].startswith("request.")}
    send = [s["end"] - s["start"] for s in spans if s["name"] == "client.send" and kind.get(s["parent"]) == "request.lookup"]
    wait = [s["end"] - s["start"] for s in spans if s["name"] == "client.wait" and kind.get(s["parent"]) == "request.lookup"]
    rep.metric("client.send_us", statistics.median(send) * 1e6, "us", len(send))
    rep.metric("client.wait_us", statistics.median(wait) * 1e6, "us", len(wait))
    rtt = lg["traced_lookup"]["p50"]
    inside = probe_counts["incr.lookup_eval_us"] + probe_counts["wire.lookup_encode_us"] + probe_counts["wire.lookup_decode_us"]
    rep.row("lookup_rtt_traced_us", rtt, "us", lg["traced_lookup"]["n"])
    rep.row("eval+encode+decode_us", inside, "us", note="mirror, per lookup")
    rep.metric("server.overhead_us", rtt - inside, "us", lg["traced_lookup"]["n"])
    st = lg["stats"]
    rep.row("stats.query_p50_us", st["query_p50_us"], "us", note="server STATS")
    rep.metric("stats.storage_bytes", st["storage_bytes"], "bytes")
    rep.metric("stats.index_runs", st["index_runs"], "count")
    over = lg["traced_lookup"]["p50"] - lg["untraced_lookup"]["p50"]
    rep.row("trace.overhead_us", over, "us", lg["traced_lookup"]["n"], "traced minus untraced lookup p50")
    # A lookup's round trip by layer: client send, server residual,
    # backend eval, wire encode + decode.
    rep.row("self.client_us", statistics.median(send) * 1e6, "us", note="lookup self time")
    rep.row("self.server_us", rtt - inside - statistics.median(send) * 1e6, "us", note="lookup self time")
    rep.row("self.incr_us", probe_counts["incr.lookup_eval_us"], "us", note="lookup self time")
    rep.row("self.wire_us", probe_counts["wire.lookup_encode_us"] + probe_counts["wire.lookup_decode_us"], "us",
            note="lookup self time")


def run_serve(rep, wdir, seed, seconds, trace, mix):
    gen(wdir, seed, SERVE)
    probe = os.path.join(wdir, "probe.tsv") if trace else None
    expected_scan = mirror(wdir, seed, SERVE, probe=probe)
    if expected_scan != certain_q(wdir)[0]:
        raise WrongAnswer("the mirror has %d answers to q, the closed form %d" % (expected_scan, certain_q(wdir)[0]))
    proc, sock, setup = launch_server(wdir, "server", expected_scan)
    setups = [setup]
    lg_trace = os.path.join(wdir, "loadgen.tsv") if trace else None
    lg = loadgen(wdir, seed, SERVE, sock, mix, seconds, trace=lg_trace)
    hwm = vm_hwm_kb(proc.pid) / 1024.0
    stop(proc)
    check_loadgen(rep, lg)
    # More start-ups after the load, so the set-up time is sampled at
    # both ends of the run.
    for k in range(0 if trace else SERVER_LAUNCHES - 1):
        proc, _, setup = launch_server(wdir, "setup%d" % k, expected_scan)
        setups.append(setup)
        stop(proc)
    kinds = lg["kinds"]
    if mix == "write":
        replay = pb(["replay", "--dir", wdir, "--batches", ",".join(map(str, lg["batches"]))]
                    + population_args(seed, SERVE)
                    + ["--load-entities", str(LOAD["load_entities"]), "--load-rounds", str(LOAD["load_rounds"])])
        if replay["final"] != lg["final"]:
            raise WrongAnswer("served state after batches %s differs from the sequential replay: %s vs %s"
                              % (lg["batches"], lg["final"], replay["final"]))
    lookup = kinds["lookup"]
    rep.row("setup_s", statistics.median(setups), "s", len(setups))
    rep.row("peak_rss_mb", hwm, "MB", 1)
    rep.row("fail_frac", rep.failed / rep.attempted, "ratio", rep.attempted)
    rep.row("lookup_p50_us", lookup["p50"], "us", lookup["n"])
    rep.row("lookup_p99_us", lookup["p99"], "us", lookup["n"])
    if mix == "read":
        rps = lg["attempted"] / lg["elapsed"]
        rep.row("scan_p50_us", kinds["scan"]["p50"], "us", kinds["scan"]["n"])
        rep.row("cq_p50_us", kinds["cq"]["p50"], "us", kinds["cq"]["n"])
        rep.row("stats_p50_us", kinds["stats"]["p50"], "us", kinds["stats"]["n"])
        rep.row("read_rps", rps, "1/s", lg["attempted"], "mean over the run")
        win = lg["window_rps"]
        rep.row("window_rps_p25", win["p25"], "1/s", win["n"], "0.1 s slices")
        rep.row("window_rps_p75", win["p75"], "1/s", win["n"], "0.1 s slices")
        main, rate, rate_n = lookup, win["p50"], win["n"]
    else:
        rate = lg["ingest_facts_per_s_p50"]
        commit = kinds["commit"]
        rep.row("commit_p50_ms", commit["p50"] / 1000.0, "ms", commit["n"])
        rep.row("commit_p90_ms", commit["p90"] / 1000.0, "ms", commit["n"])
        busy = kinds["commit_busy"]
        rep.row("commit_busy_p50_ms", busy["p50"] / 1000.0, "ms", busy["n"], "beside lookups")
        rep.row("ingest_facts_per_s", lg["ingest_facts_per_s"], "1/s", LOAD["load_rounds"], "all LOAD blocks")
        rep.row("ingest_facts_per_s_p50", rate, "1/s", LOAD["load_rounds"], "median LOAD block")
        quiet = lg["quiet_lookup"]
        rep.row("lock_wait_p50_us", lookup["p50"] - quiet["p50"], "us", lookup["n"], "lookup p50 under commits minus quiet")
        rep.row("lock_wait_p99_us", lookup["p99"] - quiet["p99"], "us", lookup["n"], "lookup p99 under commits minus quiet")
        main, rate_n = commit, LOAD["load_rounds"]
    if not trace:
        rep.metric("setup_s", statistics.median(setups), "s", len(setups))
        rep.metric("peak_rss_mb", hwm, "MB", 1)
        rep.metric("p50_ms", main["p50"] / 1000.0, "ms", main["n"])
        rep.metric("throughput_per_s", rate, "1/s", rate_n)
        return
    spans, counts = read_trace(probe)
    samples = {}
    add_pipeline_samples(samples, spans, counts)
    report_pipeline(rep, samples)
    report_probes(rep, counts)
    report_requests(rep, lg, lg_trace, counts)


def run_workload(rep, workload, seed, seconds, trace):
    build()
    wdir = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(wdir, exist_ok=True)
    try:
        if workload == "batch":
            run_batch(rep, wdir, seed, seconds, trace)
        else:
            run_serve(rep, wdir, seed, seconds, trace, "read" if workload == "serve-read" else "write")
    finally:
        stop_all()
        shutil.rmtree(wdir, ignore_errors=True)
    # The result line carries exactly the metrics BENCHMARK.json names.
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    for m in declared:
        got = rep.metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError("metric %s (%s) not produced as declared" % (m["name"], m["unit"]))
    rep.metrics = {m["name"]: rep.metrics[m["name"]] for m in declared}


def run_all(args):
    order = list(reversed(WORKLOADS)) if args.reverse else list(WORKLOADS)
    summary = []
    for w in order:
        cmd = [sys.executable, sys.argv[0], "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if p.returncode != 0 or not lines:
            sys.stderr.write(p.stderr)
            return p.returncode or 1
        summary.append((w, json.loads(lines[-1])))
    print()
    for w, res in summary:
        for name, m in res["metrics"].items():
            print("%-12s %-34s %16.6g %s" % (w, name, m["value"], m["unit"]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, each in fresh processes")
    ap.add_argument("--reverse", action="store_true", help="with --all: reverse the workload order")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.all:
        sys.exit(run_all(args))
    if args.workload is None:
        ap.error("give --workload or --all")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    rep = Report(args.workload)
    try:
        run_workload(rep, args.workload, args.seed, args.seconds, args.trace == 1)
    except WrongAnswer as e:
        log("WRONG ANSWER: %s" % e)
        print(json.dumps({"correct": False, "attempted": max(1, rep.attempted), "failed": rep.failed, "metrics": {}}))
        sys.exit(1)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("benchmark error: %s" % e)
        sys.exit(2)
    print(json.dumps(rep.result()))


if __name__ == "__main__":
    main()
