#!/usr/bin/env python3
"""The qopt serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds ``qopt`` and the in-process replay tool from source, starts the real
``qopt serve`` (or ``qopt fleet``) as its own process on a Unix socket in
``perfbench/_out``, drives it from this single client process in a closed
loop, checks every reply, and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics (see README.md).
"""

import argparse
import gc
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import wire  # noqa: E402
import workloads as W  # noqa: E402

QOPT = os.path.join(ROOT, "_build", "default", "bin", "qopt.exe")
REPLAY = os.path.join(ROOT, "_build", "default", "perfbench", "replay",
                      "replay.exe")
SOCKET = "s.sock"
SETUPS = 5  # set-ups per run; setup_s is their median
HIT_CHECKS = 30  # plan-cache hits re-optimized from scratch per run

GIANT_BUDGET = {"max_memo_entries": W.GIANT_MAX_MEMO_ENTRIES,
                "max_kept_plans": W.GIANT_MAX_KEPT_PLANS}

WORKLOADS = {
    "adhoc-cold": {
        "gen": W.adhoc_cold,
        "argv": ["serve", "--workers", "1", "--plan-cache"],
        "plan_cache": True, "budget": None,
    },
    "hot-templates": {
        "gen": W.hot_templates,
        "argv": ["serve", "--workers", "1", "--plan-cache"],
        "plan_cache": True, "budget": None,
    },
    "giant-joins": {
        "gen": W.giant_joins,
        "argv": ["serve", "--workers", "1",
                 "--max-memo-entries", str(W.GIANT_MAX_MEMO_ENTRIES),
                 "--max-kept-plans", str(W.GIANT_MAX_KEPT_PLANS)],
        "plan_cache": False, "budget": GIANT_BUDGET,
    },
    # --latency-tier 2 puts both backends in both tiers, so the backend a
    # template lands on is decided by the rendezvous hash alone and not by
    # a measured time near the tier threshold.
    "fleet-mixed": {
        "gen": W.fleet_mixed,
        "argv": ["fleet", "--backends", "2", "--affinity", "--plan-cache",
                 "--latency-tier", "2"],
        "plan_cache": True, "budget": None, "fleet": True,
    },
}

PLAN_LEAF = re.compile(r"Q(\d+)")
PLAN_JOIN = re.compile(r"NLJN|MGJN|HSJN")
FAILED_OPS = ("error", "rejected", "cancelled")


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no qopt source tree at %s (missing %s)"
                             % (ROOT, need))
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/qopt.exe",
         "./perfbench/replay/replay.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout[-4000:])


# ---------------------------------------------------------------------------
# Serving processes
# ---------------------------------------------------------------------------

def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of the whole line.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class Server:
    def __init__(self, spec, nconns):
        self.log = open("serve.log", "ab")
        self.proc = subprocess.Popen([QOPT] + spec["argv"] + ["-s", SOCKET],
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.backend_pids = []
        try:
            self.conns = [wire.wait_for_socket(SOCKET, self.proc)
                          for _ in range(nconns)]
            if spec.get("fleet"):
                self.backend_pids = [b["pid"] for b in self.stats()["backends"]
                                     if b.get("pid")]
        except Exception:
            self.kill()
            raise

    def pids(self):
        return [self.proc.pid] + self.backend_pids

    def stats(self):
        reply = self.conns[0].rpc({"op": "stats"})
        if reply.get("op") != "stats":
            raise BenchError("stats request failed: %r" % reply)
        return reply["stats"]

    def stop(self):
        try:
            self.conns[0].rpc({"op": "shutdown"})
        except (OSError, ValueError, ConnectionError):
            pass
        for c in self.conns:
            c.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            log("server did not exit after shutdown; killing it")
        self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pid in self.backend_pids:
            deadline = time.monotonic() + 10
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.log.close()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def streams_for(conn_ops, salt):
    """Requests of one pass, per connection, each tagged with
    ``(conn, op, stmt, pos)``."""
    return [[({"op": op, "sql": stmt.render(salt if salted else 0),
               "schema": stmt.schema}, (c, op, stmt, pos))
             for pos, (op, stmt, salted) in enumerate(ops)]
            for c, ops in enumerate(conn_ops)]


class Record:
    __slots__ = ("pass_no", "conn", "op", "stmt", "pos", "latency", "reply")

    def __init__(self, pass_no, conn, op, stmt, pos, latency, reply):
        self.pass_no = pass_no
        self.conn = conn
        self.op = op
        self.stmt = stmt
        self.pos = pos
        self.latency = latency
        self.reply = reply


def drive(server, conn_ops, salt, pass_no, records):
    streams = streams_for(conn_ops, salt)

    def on_reply(tag, reply, seconds):
        c, op, stmt, pos = tag
        records.append(Record(pass_no, c, op, stmt, pos, seconds, reply))

    t0 = time.perf_counter()
    wire.run_pass(server.conns, streams, on_reply)
    return time.perf_counter() - t0


def setup(spec, conn_ops, problems):
    """Launch the serving process and run the warm-up pass."""
    t0 = time.perf_counter()
    server = Server(spec, len(conn_ops))
    try:
        warm = []
        drive(server, conn_ops, 0, 0, warm)
    except Exception:
        server.kill()
        raise
    elapsed = time.perf_counter() - t0
    problems += check_replies(warm)[0]
    return server, elapsed


def timed_passes(server, conn_ops, seconds):
    """Whole passes until ``seconds`` have passed and at least 100 compiles
    were timed (so the 90th percentile has 10 samples beyond it), with each
    pass's wall time and the serving processes' CPU seconds during it."""
    compiles = sum(op == "compile" for ops in conn_ops for op, _, _ in ops)
    records = []
    walls = []
    cpus = []
    stats0 = server.stats()
    start = time.perf_counter()
    salt = 1
    while True:
        cpu0 = sum(proc_cpu_s(p) for p in server.pids())
        walls.append(drive(server, conn_ops, salt, salt, records))
        cpus.append(sum(proc_cpu_s(p) for p in server.pids()) - cpu0)
        if (time.perf_counter() - start >= seconds
                and len(walls) * compiles >= 100):
            break
        salt += 1
    stats1 = server.stats()
    rss = sum(proc_hwm_mb(p) for p in server.pids())
    return {"records": records, "walls": walls, "cpus": cpus,
            "passes": len(walls), "rss_mb": rss, "stats0": stats0,
            "stats1": stats1}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def join_disagreements(records):
    """Estimates whose DP compile, sent right after them on the same
    connection, reports other join or entry counts: the reused enumerator
    should enumerate exactly the same joins."""
    by_pos = {(r.pass_no, r.conn, r.pos): r for r in records}
    out = []
    for r in records:
        if r.reply.get("op") != "estimate":
            continue
        c = by_pos.get((r.pass_no, r.conn, r.pos + 1))
        if (c is not None and c.reply.get("op") == "compile"
                and c.reply["regime"] == "dp"
                and (r.reply["joins"], r.reply["entries"])
                != (c.reply["joins"], c.reply["entries"])):
            out.append(r)
    return out


def check_replies(records):
    """Checks made on each reply apart from the program: a plan covers every
    table of the statement's top block exactly once, with n-1 joins, and a
    DP compile agrees with the estimate of its statement.  Returns the
    problems found and the number of failed operations; only the two named
    faults may fail an operation without being a problem."""
    problems = []
    failed = 0
    for r in records:
        got = r.reply.get("op")
        if got in FAILED_OPS:
            failed += 1
            if not W.expected_estimate_failure(r.op, r.stmt):
                problems.append("%s %s failed: %s" % (r.op, r.stmt.key,
                                                      r.reply))
        elif got != r.op:
            problems.append("%s %s answered %r" % (r.op, r.stmt.key, got))
        elif got == "compile":
            n = len(r.stmt.tables)
            plan = r.reply.get("plan") or ""
            leaves = sorted(int(q) for q in PLAN_LEAF.findall(plan))
            if leaves != list(range(n)):
                problems.append("plan of %s does not scan its %d tables "
                                "once: %s" % (r.stmt.key, n, plan))
            joins = len(PLAN_JOIN.findall(plan))
            if joins != n - 1:
                problems.append("plan of %s has %d joins for %d tables"
                                % (r.stmt.key, joins, n))
    for r in join_disagreements(records):
        failed += 1
        if not W.expected_join_mismatch(r.stmt):
            problems.append("estimate of %s reports %d joins and %d entries, "
                            "its compile other counts"
                            % (r.stmt.key, r.reply["joins"],
                               r.reply["entries"]))
    return problems, failed


def check_passes_agree(records):
    """The same statement gets the same plan in every timed pass."""
    first = {}
    problems = []
    for r in records:
        if r.reply.get("op") != "compile":
            continue
        key = (r.conn, r.pos)
        plan = r.reply.get("plan")
        if first.setdefault(key, plan) != plan:
            problems.append("%s got plan %s in pass %d but %s before"
                            % (r.stmt.key, plan, r.pass_no, first[key]))
    return problems


def check_hits(records, passes):
    """Sampled plan-cache hits must equal a fresh in-process optimization
    of the same statement."""
    hits = [r for r in records
            if r.pass_no == passes and r.reply.get("plan_cached")]
    if not hits:
        return []
    step = max(1, len(hits) // HIT_CHECKS)
    sample = hits[::step][:HIT_CHECKS]
    checks = [{"sql": r.stmt.render(0), "schema": r.stmt.schema,
               "plan": r.reply["plan"]} for r in sample]
    with open("check-in.json", "w") as f:
        json.dump({"checks": checks}, f)
    subprocess.run([REPLAY, "check", "check-in.json", "check-out.json"],
                   check=True, timeout=120)
    with open("check-out.json") as f:
        bad = json.load(f)["mismatches"]
    return ["plan-cache hit differs from a fresh optimization: %r" % b
            for b in bad]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def latency_ms(records, q, passes):
    """The q-quantile of the records' latencies.  When every pass holds at
    least 100 of them, it is taken within each pass and the median over the
    passes is reported, so a burst of load from outside that slows a few
    passes does not move the run; otherwise it is taken over the whole
    run."""
    by_pass = {}
    for r in records:
        by_pass.setdefault(r.pass_no, []).append(r.latency)
    if len(records) >= 100 * passes:
        return statistics.median(percentile(v, q)
                                 for v in by_pass.values()) * 1e3
    return percentile([r.latency for r in records], q) * 1e3


def end_to_end(run, setups):
    recs = run["records"]
    passes = run["passes"]
    compiles = [r for r in recs if r.op == "compile"]
    estimates = [r for r in recs if r.op == "estimate"]
    costs = [r.reply["cost"] for r in compiles
             if r.reply.get("op") == "compile" and r.reply["cost"] > 0]
    # Rates are medians over the passes: a pass is the unit of work that
    # repeats, and the median keeps one disturbed pass from moving a run.
    per_pass = len(compiles) / passes
    return {
        "throughput_qps": (statistics.median(per_pass / w
                                             for w in run["walls"]), "1/s"),
        "latency_p50_ms": (latency_ms(compiles, 0.5, passes), "ms"),
        "latency_p90_ms": (latency_ms(compiles, 0.9, passes), "ms"),
        "estimate_p50_ms": (latency_ms(estimates, 0.5, passes), "ms"),
        "plan_cost_geomean": (math.exp(statistics.fmean(
            math.log(c) for c in costs)), "cost"),
        "server_cpu_ms_per_req": (statistics.median(run["cpus"]) * 1e3
                                  * passes / len(recs), "ms"),
        "rss_peak_mb": (run["rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def processes(stats, fleet):
    """Stats documents of every serving process."""
    if not fleet:
        return [stats]
    return [stats] + [b["stats"] for b in stats["backends"] if b["stats"]]


def summed(stats, fleet, kind):
    out = {}
    for doc in processes(stats, fleet):
        for k, v in doc["metrics"][kind].items():
            out[k] = out.get(k, 0.0) + (v or 0.0)
    return out


def per_layer(spec, run, replay):
    fleet = bool(spec.get("fleet"))
    passes = run["passes"]
    c0 = summed(run["stats0"], fleet, "counters")
    c1 = summed(run["stats1"], fleet, "counters")
    g1 = summed(run["stats1"], fleet, "gauges")

    def delta(name):
        return c1.get(name, 0.0) - c0.get(name, 0.0)

    def per_pass(name):
        return delta(name) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    recs = run["records"]
    compiles = [r for r in recs if r.op == "compile"
                and r.reply.get("op") == "compile"]
    ran = [r for r in compiles if not r.reply["plan_cached"]]
    dp = [r for r in ran if r.reply["regime"] == "dp"
          and r.reply["elapsed_s"] > 0]
    front = [r.latency - r.reply["elapsed_s"] - r.reply["queue_s"]
             for r in compiles]
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    # The stats request that closes the window is counted by every server.
    backends = len(run["stats1"]["backends"]) if fleet else 1
    requests = delta("server.requests") - backends
    locks = sum(delta(k) for k in c1
                if k.startswith("lock.") and k.endswith(".acquisitions"))
    probes = (delta("plan_cache.hits") + delta("plan_cache.misses")
              + delta("plan_cache.invalidations"))
    stmt_probes = delta("stmt_cache.hits") + delta("stmt_cache.misses")
    e2e_p50_ms = percentile([r.latency for r in recs if r.op == "compile"],
                            0.5) * 1e3
    m = {
        "sqlfront.parse_us": (replay["sqlfront.parse_us"], "us"),
        "sqlfront.template_us": (replay["sqlfront.template_us"], "us"),
        "sqlfront.bind_us": (replay["sqlfront.bind_us"], "us"),
        "server.decode_us": (replay["server.decode_us"], "us"),
        "server.encode_us": (replay["server.encode_us"], "us"),
        "server.front_door_us": (med(front) * 1e6, "us"),
        "server.queue_wait_us": (med([r.reply["queue_s"] for r in ran]) * 1e6,
                                 "us"),
        "server.requests": (requests / passes, "count/pass"),
        "server.errors": (per_pass("server.errors"), "count/pass"),
        "plan_cache.lookup_us": (replay["plan_cache.lookup_us"], "us"),
        "plan_cache.hit_ratio": (ratio(delta("plan_cache.hits"), probes),
                                 "ratio"),
        "plan_cache.invalidations": (per_pass("plan_cache.invalidations"),
                                     "count/pass"),
        "plan_cache.evictions": (per_pass("plan_cache.evictions"),
                                 "count/pass"),
        "plan_cache.size": (g1.get("plan_cache.size", 0.0), "count"),
        "stmt_cache.size": (g1.get("stmt_cache.size", 0.0), "count"),
        "stmt_cache.hit_ratio": (ratio(delta("stmt_cache.hits"), stmt_probes),
                                 "ratio"),
        "lock.acquisitions_per_req": (ratio(locks, requests), "count/req"),
        "cote.estimate_ms": (replay["cote.estimate_ms"], "ms"),
        "cote.overhead_pct": (replay["cote.overhead_pct"], "%"),
        "cote.budget_abort_ms": (replay["cote.budget_abort_ms"], "ms"),
        "cote.plan_count_ratio": (replay["cote.plan_count_ratio"], "ratio"),
        "cote.time_error_pct": (
            med([abs(r.reply["predicted_s"] - r.reply["elapsed_s"])
                 / r.reply["elapsed_s"] for r in dp]) * 100, "%"),
        "regime.dp": (per_pass("regime.dp"), "count/pass"),
        "regime.greedy": (per_pass("regime.greedy"), "count/pass"),
        "regime.fallbacks": (per_pass("regime.fallbacks"), "count/pass"),
        "optimizer.compile_ms": (replay["optimizer.compile_ms"], "ms"),
    }
    for b in ("nljn", "mgjn", "hsjn", "save", "card", "scan", "other"):
        m["optimizer.%s_ms" % b] = (replay["optimizer.%s_ms" % b], "ms/pass")
    for name in ("enumerator.pairs_considered", "enumerator.joins_feasible",
                 "memo.entries", "memo.plans_inserted", "memo.plans_pruned",
                 "plan_gen.cost_calls"):
        m[name] = (per_pass(name), "count/pass")
    m["memo.kept_ratio"] = (replay["memo.kept_ratio"], "ratio")
    m["plan_gen.alloc_bytes"] = (per_pass("plan_gen.alloc_bytes"), "B/pass")
    m["budget.aborts"] = (replay["budget.aborts"], "count/pass")
    m["spanning_tree.compile_ms"] = (replay["spanning_tree.compile_ms"], "ms")
    hop = med(front) * 1e6 if fleet else 0.0
    m["fleet.hop_us"] = (hop, "us")
    m["fleet.affinity_hit_ratio"] = (
        ratio(delta("fleet.affinity_hits"), delta("fleet.affinity_total")),
        "ratio")
    for name in ("fleet.routed_latency_tier", "fleet.routed_throughput_tier",
                 "fleet.retries", "fleet.failovers"):
        m[name] = (per_pass(name), "count/pass")
    m["bench.unattributed_pct"] = (
        (e2e_p50_ms - replay["stage_median_sum_ms"]) / e2e_p50_ms * 100, "%")
    m["bench.trace_overhead_pct"] = (
        (replay["traced_pass_s"] - replay["plain_pass_s"])
        / replay["plain_pass_s"] * 100, "%")
    return m


def replay_trace(spec, conn_ops, name, seed):
    def requests(salt):
        return [{"text": json.dumps(req, separators=(",", ":"))}
                for stream in streams_for(conn_ops, salt)
                for req, _ in stream]

    doc = {"budget": spec["budget"], "plan_cache": spec["plan_cache"],
           "passes": [requests(0), requests(1), requests(2)],
           "spans": "spans-%s-%d.jsonl" % (name, seed)}
    with open("replay-in.json", "w") as f:
        json.dump(doc, f)
    subprocess.run([REPLAY, "trace", "replay-in.json", "replay-out.json"],
                   check=True, timeout=170)
    with open("replay-out.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run(name, seed, seconds, trace):
    # The client's records hold no reference cycles; a cyclic collection of
    # the growing record list would only add pauses to the latencies.
    gc.disable()
    spec = WORKLOADS[name]
    conn_ops = spec["gen"](seed)
    setups = []
    problems = []
    server = None
    try:
        for _ in range(1 if trace else SETUPS):
            if server is not None:
                server.stop()
                server = None
            server, s = setup(spec, conn_ops, problems)
            setups.append(s)
        result = timed_passes(server, conn_ops, seconds)
    finally:
        if server is not None:
            server.stop()
    recs = result["records"]
    found, failed = check_replies(recs)
    problems += found
    problems += check_passes_agree(recs)
    problems += check_hits(recs, result["passes"])
    for p in problems[:10]:
        log("check failed: " + p)
    log("%s seed %d: %d passes (%s s), %d operations, %d failed, "
        "%d check failures"
        % (name, seed, result["passes"],
           " ".join("%.3f" % w for w in result["walls"]), len(recs), failed,
           len(problems)))
    if trace:
        metrics = per_layer(spec, result, replay_trace(spec, conn_ops, name,
                                                       seed))
    else:
        metrics = end_to_end(result, setups)
    return {"correct": not problems, "attempted": len(recs), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def pin_to_one_cpu():
    """Runs this client and the serving processes it starts on one CPU.
    A closed loop hands each request from the client to the server and the
    reply back: across two CPUs every hand-off wakes an idle CPU, and on a
    shared virtual machine that wake-up waits for the host, which made whole
    runs of hot-templates two to three times slower than others."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still shuts its servers down (the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        pin_to_one_cpu()
        out = os.path.join(HERE, "_out")
        work = os.path.join(out, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
        os.makedirs(work, exist_ok=True)
        os.chdir(work)
        try:
            result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
            if args.trace:
                spans = "spans-%s-%d.jsonl" % (args.workload, args.seed)
                os.replace(spans, os.path.join(out, spans))
        finally:
            os.chdir(out)
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
