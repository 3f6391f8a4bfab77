#!/usr/bin/env python3
"""qsynth benchmark: one run of one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the qsynth executable
and the benchmark's own probe (perfbench/pb.exe) with dune, generates
every input from the seed, measures for about S seconds, checks the
outputs, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  The line before it is the run's full
record: host fingerprint, seed, every measured figure and each
correctness gate.  Workloads, rates and limits are documented in
perfbench/workloads.json; perfbench/README.md explains the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench-work"  # relative: socket paths must stay short
QSYNTH = "_build/default/bin/qsynth.exe"
PB = "_build/default/perfbench/pb.exe"
LIBRARIES = ["paper18", "nct", "nft"]
# The load driver's connections (at most nproc) and the daemon launches
# each serve run times for setup_s.
CONNECTIONS = min(2, os.cpu_count() or 1)
SETUP_LAUNCHES = 25

# Published spectra the gates compare against: the paper's Table 2 (raw
# depth-7 census), the paper18 complete-index spectrum, Shende et al.'s
# NCT spectrum and Younes's NFT spectrum (arXiv:1304.5804).
TABLE2_ROW = [1, 6, 24, 51, 84, 156, 398, 540]
TABLE2_STATES = 689402
SPECTRA = {
    "paper18": [1, 6, 24, 51, 84, 156, 398, 540, 444, 1440, 552, 0, 1232, 112],
    "nct": [1, 12, 102, 625, 2780, 8921, 17049, 10253, 577],
    "nft": [1, 18, 184, 1318, 6474, 17695, 14134, 496],
}


def fail_setup(msg):
    """Stop before printing any result line: for a failed build, a missing
    checkout or a fault of the benchmark itself, never for a fault of the
    program under test."""
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def percentile(values, p):
    """Nearest-rank percentile, the rule pb.ml uses too."""
    if not values:
        return float("nan")
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 1)) - 1))
    return s[k]


def median(values):
    return statistics.median(values) if values else float("nan")


def number(x):
    """x, or None when it was not measured."""
    return None if x is None or x != x else x


# ---------------------------------------------------------------------------
# Processes


def run_timed(argv):
    """Run argv to completion: (seconds, exit code, stdout)."""
    t0 = time.perf_counter()
    p = subprocess.run(argv, capture_output=True, text=True)
    return time.perf_counter() - t0, p.returncode, p.stdout


def run_measured(argv, stdout_path):
    """(seconds, the child's own peak RSS in MB from wait4, exit code, stdout)."""
    with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as f:
        text = f.read()
    return dt, usage.ru_maxrss / 1024.0, p.returncode, text


def pb(*args, stdin=None, gates=None):
    """Run the probe and return its stdout.  The probe runs the library
    under test in process, so with gates a probe that fails is a failed
    gate ("probe.<subcommand>") and the result is None; without gates
    (request generation only) it is a set-up failure."""
    r = subprocess.run([PB, *args], input=stdin, capture_output=True, text=True)
    ok = r.returncode == 0
    if gates is None and not ok:
        fail_setup("pb %s failed: %s" % (args[0], r.stderr.strip()))
    if gates is not None:
        gates.check("probe." + args[0], ok, None if ok else r.stderr.strip()[-2000:])
    return r.stdout if ok else None


def pb_json(*args, gates):
    out = pb(*args, gates=gates)
    return json.loads(out.strip().splitlines()[-1]) if out is not None else None


# ---------------------------------------------------------------------------
# Set-up shared by every workload


def check_checkout():
    for path in ("dune-project", "bin/qsynth.ml", "lib", "BENCHMARK.json"):
        if not os.path.exists(path):
            fail_setup("not a qsynth checkout: %s is missing" % path)


def build():
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/qsynth.exe", "./perfbench/pb.exe"],
        env=env, capture_output=True, text=True)
    if r.returncode != 0:
        fail_setup("build failed:\n" + r.stderr[-4000:])


def source_digest():
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "ocaml": ocaml.stdout.strip() or "unknown",
        "git_rev": rev.stdout.strip() if rev.returncode == 0 else None,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def cpu_ticks():
    """(steal, total) CPU ticks of the whole host so far, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def index_census(lib):
    """The command that builds and writes lib's complete index."""
    return [QSYNTH, "census", "--library", lib, "-d", "13", "--quotient",
            "--emit-index", os.path.join(WORK, lib + ".idx")]


def emit_indexes(gates):
    """Complete indexes the daemon serves and the draws read costs from
    (set-up work, not measured)."""
    for lib in LIBRARIES:
        code = run_timed(index_census(lib))[1]
        gates.check("census.%s.emitted" % lib, code == 0, code)


# ---------------------------------------------------------------------------
# Gates


class Gates:
    """Named correctness checks; a failed gate fails the run."""

    def __init__(self):
        self.results = {}

    def check(self, name, ok, detail=None):
        prev = self.results.get(name)
        if prev is None or prev["ok"]:
            self.results[name] = {"ok": bool(ok), "detail": detail}
        return ok

    @property
    def failed(self):
        return sum(1 for r in self.results.values() if not r["ok"])


def trimmed(counts):
    """A cost histogram without its trailing empty levels."""
    counts = list(counts)
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def parse_row(text, label):
    for line in text.splitlines():
        if line.startswith(label):
            return [int(x) for x in line.split(":", 1)[1].split()]
    return []


def check_indexes(gates):
    facts = pb_json("indexes", "--index-dir", WORK, gates=gates)
    for lib in LIBRARIES if facts else []:
        f = facts[lib]
        gates.check("index.%s.full_verify" % lib, f["ok"], f.get("error"))
        if not f["ok"]:
            continue
        hist = trimmed(f["histogram"])
        gates.check("index.%s.spectrum" % lib, hist == SPECTRA[lib], hist)
        gates.check("index.%s.complete" % lib,
                    f["complete"] and f["coverage"] == 40320, f["coverage"])


# ---------------------------------------------------------------------------
# Workload: build


def oneshot_argv(req, trace=False):
    lib = req.get("library", "paper18")
    argv = [QSYNTH, "synth", "--json", "--library", lib, "--index",
            os.path.join(WORK, lib + ".idx"), "-d", str(req["max_depth"])]
    if trace:
        argv.append("--trace")
    return argv + [req["spec"]]


def oneshot_pairs(lines, gates):
    """Each request as a cold synth --json, untraced and then traced, back
    to back so drift on the host hits both alike: (traced / untraced time
    per request, untraced outputs, failures)."""
    ratios, outs, failed = [], [], 0
    for line in lines:
        req = json.loads(line)
        dt, code, out = run_timed(oneshot_argv(req))
        dt_traced, code_traced, _ = run_timed(oneshot_argv(req, trace=True))
        ratios.append(dt_traced / dt)
        outs.append(out.strip())
        failed += int(code != 0) + int(code_traced != 0)
    gates.check("oneshot.exit_codes", failed == 0, failed)
    return ratios, outs, failed


def check_oneshot(lines, outs, gates):
    want = pb("expect", "--index-dir", WORK, stdin="\n".join(lines) + "\n",
              gates=gates)
    want = want.splitlines() if want is not None else []
    wrong = sum(1 for a, b in zip(outs, want) if a != b) + abs(len(outs) - len(want))
    gates.check("oneshot.byte_identical", wrong == 0, wrong)
    return wrong


def build_cycle(gates, lines):
    """One pass of the cold-process paths.  Each library's one-shot
    queries run right after its index is rebuilt, which spreads them
    over the cycle."""
    c = {"rss": [], "oneshot_ms": [], "outs": [], "failed": 0, "build_s": 0.0}

    def measured(argv, name):
        dt, rss, code, out = run_measured(argv, os.path.join(WORK, name))
        c["rss"].append(rss)
        c["failed"] += int(code != 0)
        return dt, out

    c["table2_s"], out = measured([QSYNTH, "census"], "census.out")
    gates.check("table2.row", parse_row(out, "|G[k]|") == TABLE2_ROW,
                parse_row(out, "|G[k]|"))
    gates.check("table2.states", ("search states: %d;" % TABLE2_STATES) in out)
    for lib in LIBRARIES:
        dt, out = measured(index_census(lib), "census-%s.out" % lib)
        c["build_s"] += dt
        row = trimmed(parse_row(out, "|G[k]|" if lib == "paper18" else "|S8[k]|"))
        gates.check("census.%s.spectrum" % lib, row == SPECTRA[lib], row)
        for line in lines:
            req = json.loads(line)
            if req.get("library", "paper18") == lib:
                dt, out = measured(oneshot_argv(req), "oneshot.out")
                c["oneshot_ms"].append(1000.0 * dt)
                c["outs"].append((line, out.strip()))
    return c


# A build cycle asks 48 one-shot queries (16 per library).  A run makes at
# least 3 cycles, so its medians have three samples, and at most 20.
ONESHOT_PER_CYCLE, MIN_CYCLES, MAX_CYCLES = 48, 3, 20
# A traced build run times 60 one-shot queries, untraced and traced.
TRACED_ONESHOTS = 60


def workload_build(seed, seconds, gates):
    per = ONESHOT_PER_CYCLE
    lines = pb("gen", "--workload", "build", "--seed", str(seed), "--count",
               str(per * MAX_CYCLES), "--index-dir", WORK).splitlines()
    cycles = []
    deadline = time.perf_counter() + seconds
    while len(cycles) < MIN_CYCLES or (
            time.perf_counter() < deadline and len(cycles) < MAX_CYCLES):
        k = len(cycles)
        cycles.append(build_cycle(gates, lines[k * per:(k + 1) * per]))
    used = [line for c in cycles for line, _ in c["outs"]]
    outs = [out for c in cycles for _, out in c["outs"]]
    # gates that read the artifacts run after timing ends
    check_indexes(gates)
    wrong = check_oneshot(used, outs, gates)
    oneshot = [x for c in cycles for x in c["oneshot_ms"]]
    attempted = sum(4 + per for _ in cycles)
    failed = sum(c["failed"] for c in cycles) + wrong
    detail = {
        "cycles": len(cycles),
        "oneshot_samples": len(oneshot),
        "table2_s": median([c["table2_s"] for c in cycles]),
        "build_s": median([c["build_s"] for c in cycles]),
    }
    detail["latency_p90_ms"] = number(percentile(oneshot, 0.9))
    metrics = {
        "setup_s": median([c["table2_s"] + c["build_s"] for c in cycles]),
        "latency_p50_ms": percentile(oneshot, 0.5),
        "peak_rss_mb": median([max(c["rss"]) for c in cycles]),
    }
    return metrics, detail, attempted, failed


# ---------------------------------------------------------------------------
# Workloads: serve-hot and serve-mixed (and the traced daemon pass of build)


# What a serve run reports when the daemon never got to take load.
NOT_SERVED = {"setup_s": [], "setup_errors": ["probe failed"],
              "setup_before_sigterm_handler": 0, "sent": 0, "answered": 0,
              "send_errors": 0, "error_bodies": 0, "checked": 0, "wrong": 0,
              "clean_exit": False, "peak_rss_mb": None, "latency_ms": [],
              "lateness_p99_ms": None, "max_rps": None}


def serve(workload, cfg, seed, seconds, launches, gates, trace_file=None,
          ladder=False):
    """One daemon run through pb serve.  Each launch that exits during
    start-up, answers its first question wrongly or does not stop
    cleanly is a failed operation and fails the serve.setup gate."""
    args = ["serve", "--qsynth", QSYNTH, "--index-dir", WORK,
            "--workload", workload, "--seed", str(seed),
            "--launches", str(launches), "--socket", os.path.join(WORK, "d.sock"),
            "--log", os.path.join(WORK, "daemon.log"),
            "--conns", str(CONNECTIONS),
            "--rps", str(cfg["reference_rps"]), "--seconds", str(seconds),
            "--sample", str(cfg["check_sample"])]
    if trace_file:
        args += ["--trace-file", trace_file]
    if ladder:
        args += ["--ladder-limit-ms", str(cfg["p90_limit_ms"])]
    r = {**NOT_SERVED, **(pb_json(*args, gates=gates) or {})}
    gates.check("serve.setup", not r["setup_errors"], r["setup_errors"])
    failed = len(r["setup_errors"]) + (r["sent"] - r["answered"]) \
        + r["error_bodies"] + r["wrong"] + int(not r["clean_exit"])
    return r, r["latency_ms"], failed


def serve_summary(r, lat, gates):
    gates.check("serve.answered_all", r["answered"] == r["sent"],
                [r["answered"], r["sent"]])
    gates.check("serve.no_error_bodies", r["error_bodies"] == 0, r["error_bodies"])
    gates.check("serve.byte_identical", r["wrong"] == 0,
                {"checked": r["checked"], "wrong": r["wrong"]})
    gates.check("serve.clean_drain", r["clean_exit"])
    detail = {
        "requests": r["sent"],
        "answered": r["answered"],
        "checked_byte_identical": r["checked"],
        "setup_samples_s": r["setup_s"],
        # launches that answered before the daemon caught SIGTERM (see
        # await_sigterm_handler in pb.ml)
        "setup_before_sigterm_handler": r["setup_before_sigterm_handler"],
        "latency_p90_ms": number(percentile(lat, 0.9)),
        "latency_p99_ms": number(percentile(lat, 0.99)),
        "lateness_p99_ms": r["lateness_p99_ms"],
    }
    metrics = {
        "setup_s": median(r["setup_s"]),
        "latency_p50_ms": percentile(lat, 0.5),
        "peak_rss_mb": r["peak_rss_mb"],
    }
    return metrics, detail


def workload_serve(name, cfg, seed, seconds, gates):
    emit_indexes(gates)
    r, lat, failed = serve(name, cfg, seed, seconds, SETUP_LAUNCHES, gates)
    metrics, detail = serve_summary(r, lat, gates)
    return metrics, detail, r["sent"] + SETUP_LAUNCHES, failed


# ---------------------------------------------------------------------------
# Traced mode: per-layer figures, never mixed into the end-to-end metrics


def covered(parent, children):
    """Seconds of the parent span's interval that child spans cover."""
    lo, hi = parent["start_s"], parent["start_s"] + parent["dur_s"]
    ivs = sorted((max(lo, c["start_s"]), min(hi, c["start_s"] + c["dur_s"]))
                 for c in children)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in ivs:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_metrics(path):
    """Per-layer figures from the daemon's own --trace-file spans."""
    traces = defaultdict(list)
    if not os.path.exists(path):  # the traced daemon never started
        return {}
    with open(path) as f:
        for line in f:
            d = json.loads(line)
            tr = d.get("attrs", {}).get("trace")
            if d.get("type") == "span" and tr:
                traces[tr].append(d)
    queue, cache, coalesce, solve, write, self_t = [], [], [], [], [], []
    hits = 0
    for spans in traces.values():
        by = defaultdict(list)
        for s in spans:
            by[s["name"]].append(s)
        if not by["server.request"]:
            continue
        req = by["server.request"][0]
        kids = [s for s in spans if s is not req and s["name"] != "server.queue_wait"]
        self_t.append(req["dur_s"] - covered(req, kids))
        queue += [s["dur_s"] for s in by["server.queue_wait"]]
        cache += [s["dur_s"] for s in by["server.cache"]]
        coalesce.append(sum(s["dur_s"] for s in by["server.coalesce_wait"]))
        solve += [s["dur_s"] for s in by["mce.solve"]]
        write += [s["dur_s"] for s in by["server.write"]]
        if not by["mce.solve"] and not by["server.coalesce_wait"]:
            hits += 1
    n = max(1, len(self_t))
    return {
        "service.cache_hit_ratio": hits / n,
        "service.cache_us": 1e6 * median(cache),
        "service.coalesce_wait_us": 1e6 * statistics.fmean(coalesce or [0.0]),
        "service.solve_us": 1e6 * median(solve),
        "daemon.queue_wait_ms.p50": 1e3 * percentile(queue, 0.5),
        "daemon.queue_wait_ms.p90": 1e3 * percentile(queue, 0.9),
        "daemon.request_self_us": 1e6 * median(self_t),
        "daemon.write_us": 1e6 * median(write),
    }


def traced(name, cfg, seed, gates):
    """Untraced and traced passes of the same draw, then the layer probes.
    The daemon passes last traced_seconds: per-layer figures need no
    more, and a traced run also climbs the max_rps ladder."""
    layer = {}
    trace_file = os.path.join(WORK, "trace.jsonl")
    attempted = failed = 0
    emit_indexes(gates)
    if name == "build":
        lines = pb("gen", "--workload", "build", "--seed", str(seed), "--count",
                   str(TRACED_ONESHOTS), "--index-dir", WORK).splitlines()
        ratios, outs, f0 = oneshot_pairs(lines, gates)
        check_oneshot(lines, outs, gates)
        layer["tracing.overhead"] = median(ratios) - 1.0
        attempted += 2 * len(lines)
        failed += f0
        # the daemon layers, on the same draw through the shared command
        # line, at build's reference_rps
    seconds = cfg["traced_seconds"]
    r0, lat0, f0 = serve(name, cfg, seed, seconds, 1, gates, ladder=True)
    r, lat, f = serve(name, cfg, seed, seconds, 1, gates, trace_file)
    serve_summary(r0, lat0, gates)
    if name != "build":
        layer["tracing.overhead"] = percentile(lat, 0.5) / percentile(lat0, 0.5) - 1.0
    attempted += r0["sent"] + r["sent"]
    failed += f0 + f
    gates.check("traced.byte_identical", r["wrong"] == 0, r["wrong"])
    layer["daemon.latency_p90_ms"] = percentile(lat0, 0.9)
    layer["daemon.latency_p99_ms"] = percentile(lat0, 0.99)
    layer["daemon.max_rps"] = r0["max_rps"]
    layer["driver.lateness_ms"] = r0["lateness_p99_ms"]
    layer.update(span_metrics(trace_file))
    layer["process.start_ms"] = median(
        [1000.0 * run_timed([QSYNTH, "libraries"])[0] for _ in range(21)])
    layer.update(pb_json("layers", "--index-dir", WORK, "--seed", str(seed),
                         gates=gates) or {})
    return layer, attempted, failed


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    check_checkout()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    if a.workload not in spec["workloads"]:
        fail_setup("unknown workload %r (known: %s)"
                   % (a.workload, ", ".join(spec["workloads"])))
    cfg = spec["workloads"][a.workload]
    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.environ["TMPDIR"] = os.path.abspath(WORK)

    gates = Gates()
    ticks0 = cpu_ticks()
    if a.trace:
        values, attempted, failed = traced(a.workload, cfg, a.seed, gates)
        wanted, detail = bench["per_layer"], {}
    else:
        if a.workload == "build":
            values, detail, attempted, failed = workload_build(a.seed, a.seconds, gates)
        else:
            values, detail, attempted, failed = workload_serve(
                a.workload, cfg, a.seed, a.seconds, gates)
        wanted = bench["end_to_end"]
    failed += gates.failed
    attempted += len(gates.results)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and failed == 0:
        fail_setup("metrics not measured: %s" % ", ".join(missing))
    # a figure the failing program kept from being measured reads null
    metrics = {m["name"]: {"value": number(values.get(m["name"])), "unit": m["unit"]}
               for m in wanted}
    ticks1 = cpu_ticks()
    host = host_fingerprint(a.seed)
    # the share of CPU time the hypervisor gave to other guests during the
    # run: a run with a high share was slowed by its neighbours
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        host["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    record = {
        "workload": a.workload,
        "trace": a.trace,
        "seconds": a.seconds,
        "host": host,
        "metrics": metrics,
        "detail": detail,
        "gates": gates.results,
    }
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
