#!/usr/bin/env python3
"""Benchmark of the rdse design-space explorer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the rdse library, the `rdse` binary and the perfbench binary from
the checkout's sources into .bench_build/, runs one workload in its own
process(es) under .bench_run/, checks every output, prints a table of the
metrics and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for the definitions.
"""

import argparse
import ctypes
import itertools
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ["paper-motion", "large-graph", "replica-exchange", "serve-mix"]

# serve-mix daemon: 2 workers, a cache that never evicts, persistence and
# the write-ahead journal on disk. A run holds as many sessions (daemon
# lifetimes on the preloaded cache, each of the same fixed size) as fit in
# --seconds, and at least MIN_SESSIONS. makespan_ms averages the anneal
# requests of the first MIN_SESSIONS sessions, so that it depends on the
# seed alone.
SERVE_WORKERS = "2"
SERVE_CACHE = "1000000"
MIN_SESSIONS = 10
STEP_TIMEOUT_S = 170.0


class BenchError(Exception):
    """A failure that ends the run with one error line and no result."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BenchError(message)


def parse_args(argv):
    p = Parser(prog="perfbench/run.py", add_help=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True)
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        raise BenchError("unknown workload '%s' (known: %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    for name in ("seed", "seconds", "trace"):
        text = getattr(args, name)
        if not text.isdigit():
            raise BenchError("--%s: not a whole number: '%s'" % (name, text))
        setattr(args, name, int(text))
    if not 1 <= args.seconds <= 600:
        raise BenchError("--seconds: must be between 1 and 600")
    if args.trace not in (0, 1):
        raise BenchError("--trace: must be 0 or 1")
    return args


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build(root):
    """Configure and build into .bench_build/; returns the binary dir."""
    src = os.path.join(root, "src")
    cli = os.path.join(root, "tools", "rdse.cpp")
    if not os.path.isdir(src) or not os.path.isfile(cli):
        raise BenchError("rdse sources not found (expected src/ and "
                         "tools/rdse.cpp beside perfbench/)")
    if shutil.which("cmake") is None:
        raise BenchError("'cmake' not found on PATH")
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(root, ".bench_build", "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(logfile, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                raise BenchError("build failed; see " + logfile)
    for binary in ("rdse", "perfbench"):
        if not os.access(os.path.join(out, binary), os.X_OK):
            raise BenchError("build produced no '%s' binary" % binary)
    return out


# -------------------------------------------------------------- processes

def die_with_parent():
    """Child-side: get SIGKILL when run.py dies, however it dies."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Children:
    """Every process this run starts; all are stopped before exit."""

    def __init__(self):
        self.procs = []

    def start(self, cmd, cwd):
        p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                             stderr=sys.stderr, preexec_fn=die_with_parent)
        self.procs.append(p)
        return p

    def wait(self, p, timeout=STEP_TIMEOUT_S):
        """Wait for `p`; returns (exit code, its resource usage)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(p.pid, os.WNOHANG)
            if pid == p.pid:
                p.returncode = os.waitstatus_to_exitcode(status)
                self.procs.remove(p)
                return p.returncode, usage
            if time.monotonic() > deadline:
                raise BenchError("%s did not finish within %.0f s"
                                 % (os.path.basename(p.args[0]), timeout))
            time.sleep(0.02)

    def stop_all(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        self.procs = []


def peak_mb(usage):
    return usage.ru_maxrss / 1024.0  # Linux reports kilobytes


RESULT_IDS = itertools.count(1)


def run_perfbench(children, bindir, run_dir, args):
    """Run one perfbench invocation; returns (result document, usage)."""
    out = os.path.join(run_dir, "result-%d.json" % next(RESULT_IDS))
    cmd = [os.path.join(bindir, "perfbench")] + args + [
        "--run-dir", ".", "--out", out]
    code, usage = children.wait(children.start(cmd, run_dir))
    if code != 0:
        raise BenchError("perfbench %s exited with code %d" % (args[0], code))
    with open(out) as f:
        return json.load(f), usage


# -------------------------------------------------------------- serve-mix

def request(sock_path, doc, timeout=30.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall((json.dumps(doc) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise OSError("connection closed")
            buf += chunk
    return json.loads(buf)


class Daemon:
    """One `rdse serve` process on the run directory's cache files."""

    SOCKET = "s.sock"

    def __init__(self, children, bindir, run_dir):
        self.children = children
        self.run_dir = run_dir
        self.sock = os.path.join(os.path.relpath(run_dir), self.SOCKET)
        cmd = [os.path.join(bindir, "rdse"), "serve", "--socket", self.SOCKET,
               "--workers", SERVE_WORKERS, "--cache", SERVE_CACHE,
               "--persist", "cache.db", "--journal", "work.journal",
               "--quiet"]
        self.t0 = time.perf_counter()
        self.proc = children.start(cmd, run_dir)

    def wait_ready(self):
        """Seconds from launch to the first answered ping."""
        deadline = time.monotonic() + 30.0
        while True:
            try:
                if request(self.sock, {"op": "ping"}).get("ok") is True:
                    return time.perf_counter() - self.t0
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("rdse serve did not become ready")
            time.sleep(0.0005)

    def shutdown(self):
        """Graceful drain; returns the daemon's resource usage."""
        request(self.sock, {"op": "shutdown"})
        code, usage = self.children.wait(self.proc)
        if code != 0:
            raise BenchError("rdse serve exited with code %d" % code)
        return usage


def restore(run_dir):
    """Put the preparation session's cache database and journal back."""
    if os.path.exists(os.path.join(run_dir, Daemon.SOCKET)):
        os.unlink(os.path.join(run_dir, Daemon.SOCKET))
    for name in ("cache.db", "work.journal"):
        shutil.copyfile(os.path.join(run_dir, "pristine-" + name),
                        os.path.join(run_dir, name))


def serve_sessions(children, bindir, run_dir, args, trace, seconds=None,
                   count=None):
    """Run sessions 0, 1, ... for `seconds` (at least MIN_SESSIONS), or
    exactly `count` of them: restore the preloaded cache, launch the daemon
    (timed to its first answered ping), drive the session's stream, drain.
    Returns (result documents, set-up seconds, daemon peak MBs)."""
    docs, setups, rss = [], [], []
    start = time.monotonic()
    for k in itertools.count():
        if count is not None and k >= count:
            break
        if count is None and k >= MIN_SESSIONS and \
                time.monotonic() - start >= seconds:
            break
        restore(run_dir)
        daemon = Daemon(children, bindir, run_dir)
        setups.append(daemon.wait_ready())
        doc, _ = run_perfbench(children, bindir, run_dir, [
            "serve-client", "--phase", "session", "--session", str(k),
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--socket", Daemon.SOCKET])
        usage = daemon.shutdown()
        rss.append(peak_mb(usage))
        doc["notes"]["daemon_cpu_s"] = usage.ru_utime + usage.ru_stime
        docs.append(doc)
    return docs, setups, rss


def pooled(docs, setups=None):
    """End-to-end serve metrics over every request of every session. Each
    session's latencies are scaled by its wake-up factor, its CPU time and
    set-up by its host-speed factor (see README); raw figures go to the
    log."""
    scaled, raw, cold, hit, makespans = [], [], [], [], []
    answered, seconds, cpu_s, cpu_scaled = 0, 0.0, 0.0, 0.0
    for doc in docs:
        notes = doc["notes"]
        latencies = notes["cold_ms"] + notes["hit_ms"]
        scaled += [x * notes["wakeup_factor"] for x in latencies]
        raw += latencies
        cold += notes["cold_ms"]
        hit += notes["hit_ms"]
        answered += notes["answered"]
        seconds += notes["session_s"]
        cpu_s += notes["daemon_cpu_s"]
        cpu_scaled += notes["daemon_cpu_s"] * notes["host_speed"]
    for doc in docs[:MIN_SESSIONS]:
        makespans += doc["notes"]["makespan_ms"]
    log("serve-mix raw: request p50 %.4f ms; cold p50 %.3f ms p90 %.3f ms "
        "(%d); hit p50 %.4f ms p90 %.4f ms (%d); %d sessions %.2f s, "
        "%.1f req/s; daemon CPU %.4f ms/request; wake-up factor %.3f"
        % (statistics.median(raw), statistics.median(cold),
           statistics.quantiles(cold, n=10)[-1], len(cold),
           statistics.median(hit), statistics.quantiles(hit, n=10)[-1],
           len(hit), len(docs), seconds, answered / seconds,
           cpu_s * 1000 / answered,
           statistics.median(d["notes"]["wakeup_factor"] for d in docs)))
    metrics = {
        "op_ms_p50": {"value": statistics.median(scaled), "unit": "ms",
                      "samples": len(scaled)},
        "cpu_ms_per_op": {"value": cpu_scaled * 1000 / answered,
                          "unit": "ms", "samples": answered},
        "makespan_ms": {"value": statistics.mean(makespans), "unit": "ms",
                        "samples": len(makespans)},
    }
    if setups:
        speeds = [d["notes"]["host_speed"] for d in docs]
        log("serve-mix raw: setup %.6f s" % statistics.median(setups))
        metrics["setup_s"] = {
            "value": statistics.median(
                [t * v for t, v in zip(setups, speeds)]),
            "unit": "s", "samples": len(setups)}
    return metrics


def fs_type(path):
    """File-system type of `path`, from the longest /proc/mounts prefix."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def run_serve_mix(children, bindir, run_dir, args):
    log("serve-mix scratch directory file system: " + fs_type(run_dir))
    docs = []

    # Untimed preparation session: writes the persisted cache and journal
    # every timed session restarts on.
    daemon = Daemon(children, bindir, run_dir)
    daemon.wait_ready()
    prep, _ = run_perfbench(children, bindir, run_dir, [
        "serve-client", "--phase", "prep", "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
        "--socket", Daemon.SOCKET])
    daemon.shutdown()
    docs.append(prep)
    for name in ("cache.db", "work.journal"):
        shutil.copyfile(os.path.join(run_dir, name),
                        os.path.join(run_dir, "pristine-" + name))

    if not args.trace:
        runs, setups, rss = serve_sessions(children, bindir, run_dir, args, 0,
                                           seconds=args.seconds)
        metrics = pooled(runs, setups)
        metrics["peak_rss_mb"] = {"value": statistics.median(rss),
                                  "unit": "MB", "samples": len(rss)}
        return docs + runs, metrics

    # Traced run: sessions untraced for half the window and the same
    # sessions traced, the in-process serve layer probe on session 0's
    # stream, and the explore-side layers of the short motion anneals the
    # stream sends.
    plain, _, _ = serve_sessions(children, bindir, run_dir, args, 0,
                                 seconds=args.seconds / 2.0)
    traced, _, _ = serve_sessions(children, bindir, run_dir, args, 1,
                                  count=len(plain))
    probe, _ = run_perfbench(children, bindir, run_dir, [
        "serve-client", "--phase", "probe", "--session", "0",
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1"])
    layers, _ = run_perfbench(children, bindir, run_dir, [
        "explore", "--workload", "serve-mix", "--phase", "layers",
        "--seed", str(args.seed), "--seconds", str(max(1, args.seconds // 2)),
        "--trace", "1"])
    metrics = dict(layers["metrics"])
    metrics.update(probe["metrics"])
    base = pooled(plain)["op_ms_p50"]["value"]
    with_spans = pooled(traced)["op_ms_p50"]
    metrics["trace.overhead"] = {"value": with_spans["value"] / base - 1.0,
                                 "unit": "ratio",
                                 "samples": with_spans["samples"]}
    return docs + plain + traced + [probe, layers], metrics


# ------------------------------------------------------------------ main

def metric_lists(root):
    """(end-to-end, per-layer) (name, unit) lists from BENCHMARK.json."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                [(m["name"], m["unit"]) for m in spec["per_layer"]])
    except (OSError, ValueError, KeyError) as e:
        raise BenchError("cannot read the metric list from BENCHMARK.json: "
                         "%s" % e)


def run(args, root):
    end_to_end, per_layer = metric_lists(root)
    bindir = build(root)
    run_dir = os.path.join(root, ".bench_run", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    children = Children()
    try:
        if args.workload == "serve-mix":
            docs, metrics = run_serve_mix(children, bindir, run_dir, args)
        else:
            doc, usage = run_perfbench(children, bindir, run_dir, [
                "explore", "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)])
            docs = [doc]
            metrics = dict(doc["metrics"])
            notes = doc.get("notes", {})
            if "host_speed" in notes:
                log("%s raw: host speed %.3f; setup %.6f s, op p50 %.3f ms, "
                    "cpu %.3f ms/op"
                    % (args.workload, notes["host_speed"],
                       notes["raw_setup_s"], notes["raw_op_ms_p50"],
                       notes["raw_cpu_ms_per_op"]))
            if not args.trace:
                metrics["peak_rss_mb"] = {"value": peak_mb(usage),
                                          "unit": "MB", "samples": 1}
    finally:
        children.stop_all()

    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    for d in docs:
        for why in d.get("failures", [])[:5]:
            log("failure: " + why)
    wanted = per_layer if args.trace else end_to_end
    missing = [name for name, _ in wanted if name not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    table = []
    report = {}
    for name, unit in wanted:
        m = metrics[name]
        if m["unit"] != unit or not math.isfinite(m["value"]):
            raise BenchError("metric %s: bad value or unit" % name)
        report[name] = {"value": m["value"], "unit": unit}
        table.append("%-34s %16.6f %-6s samples=%d"
                     % (name, m["value"], unit, m.get("samples", 1)))
    print("workload %s seed %d seconds %d trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("\n".join(table))
    print("attempted %d failed %d" % (attempted, failed))
    result = {"correct": failed == 0, "attempted": int(attempted),
              "failed": int(failed), "metrics": report}
    print(json.dumps(result), flush=True)
    return 0


def interrupted(signum, _frame):
    raise BenchError("interrupted by signal %d" % signum)


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        args = parse_args(argv)
        return run(args, root)
    except BenchError as e:
        print("run.py: error: %s" % e, file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as e:
        print("run.py: error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
