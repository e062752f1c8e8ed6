#!/usr/bin/env python3
"""The repository benchmark. Run from the repository root:

    python3 perfbench/run.py --workload W --seed 1 --seconds 8 --trace 0

where W is serve_repeat or serve_fresh (perfbench/workloads.py).

Builds the program from source (once per checkout, under .bench_build/),
generates the workload's inputs from the seed under .bench_work/, drives
the shipped `autotest` binary, checks its outputs against an in-process
reference, and prints one JSON object as the last line of standard
output. With --trace 1 it also runs the traced library run and prints the
per-layer table. See perfbench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import loadgen
import procs
import spans
import stats
import wire
from workloads import (BLOCKS, CHECK_COLUMNS, HOST_OF_RATES, OPEN_SHARE,
                       ROUNDS, SYNTHETIC_PERMILLE, TRACE_REQUESTS, TRAIN_ARGS,
                       WORKLOADS)

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
NPROC = len(os.sched_getaffinity(0))
# Connections the load generator keeps open at once. Each server worker
# fans a request out over a pool of NPROC threads, and the generator
# needs a core of its own: NPROC connections oversubscribe the CPUs and
# measure the scheduler.
CONNECTIONS = max(1, NPROC // 2)
# Cap on the load beyond --seconds; requests still unanswered then count
# as failed, so a much slower program still ends the run in time.
LOAD_SLACK_S = 15.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def _cmake(args, log_path):
    with open(log_path, "ab") as out:
        if subprocess.run(["cmake"] + args, stdout=out,
                          stderr=subprocess.STDOUT).returncode != 0:
            raise BenchError(f"cmake {' '.join(args)} failed; see {log_path}")


def ensure_built():
    """Builds `autotest` with the repository's own CMake project and the
    benchmark's helper against its libraries; incremental after the first
    run. Returns (autotest, perfbench_tool) paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no program source to build")
    program, tool = BUILD / "program", BUILD / "tool"
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    if not (program / "CMakeCache.txt").exists():
        _cmake(["-S", str(ROOT), "-B", str(program),
                "-DCMAKE_BUILD_TYPE=Release"], log_path)
    _cmake(["--build", str(program), "--target", "autotest_cli", "at_eval",
            "-j", str(NPROC)], log_path)
    if not (tool / "CMakeCache.txt").exists():
        _cmake(["-S", str(ROOT / "perfbench"), "-B", str(tool),
                "-DCMAKE_BUILD_TYPE=Release",
                f"-DAT_PROGRAM_BUILD={program}"], log_path)
    _cmake(["--build", str(tool), "-j", str(NPROC)], log_path)
    return program / "tools" / "autotest", tool / "perfbench_tool"


def _first_line(argv):
    """First line of a helper command's output; empty if it cannot run."""
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.splitlines()[0].strip() if out.stdout else ""


def host_facts():
    """Facts that make two results comparable: same host, same build."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        base = ROOT / top
        paths = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in paths:
            if p.is_file():
                digest.update(str(p.relative_to(ROOT)).encode() + b"\0")
                digest.update(p.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        commit = _first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cache = {}
    cmake_cache = BUILD / "program" / "CMakeCache.txt"
    for line in cmake_cache.read_text().splitlines():
        if line.startswith(("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:")):
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = _first_line([compiler, "--version"])
    return {
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "cpu_model": cpu,
        "kernel": platform.release(),
        "compiler": version or compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "rates_frozen_on": HOST_OF_RATES,
        "rate_constants": {name: {"rate_rps": w["rate_rps"],
                                  "closed_rps": w["closed_rps"]}
                           for name, w in WORKLOADS.items()},
    }


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class Ops:
    """Operations attempted and failed, for `failed` and ok_share."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def tool_json(argv):
    out = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv[:2]))} failed: "
                         f"{out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_reference(path):
    """{table path: [ "col\\trow\\tconf", ... ]} from the tool's ref file."""
    ref = {}
    current = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("table\t"):
            current = ref.setdefault(line.split("\t")[1], [])
        else:
            current.append(line)
    return ref


def response_ok(payload, expected):
    """True when a check response is OK and lists exactly the reference
    detections (column, row, confidence, in order)."""
    try:
        code, fields, body = wire.decode_response(payload)
    except ValueError:
        return False
    if code != "OK" or dict(fields).get("detections") != str(len(expected)):
        return False
    got = []
    for line in body.decode(errors="replace").splitlines():
        parts = line.split("\t")
        if len(parts) < 5:
            return False
        got.append(f"{parts[0]}\t{parts[1]}\t{parts[3]}")
    return got == expected


def serve_counts(port):
    code, _, body = wire.round_trip(port, wire.encode_request("metrics"))
    if code != "OK":
        raise BenchError(f"metrics verb answered {code}")
    values = {m["name"]: m.get("value") for m in json.loads(body)["metrics"]}
    keys = ("serve.requests", "serve.requests_shed", "serve.requests_error",
            "serve.budget_rejections", "serve.deadline_expirations")
    return {k: float(values[k]) for k in keys}


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    autotest, tool = ensure_built()
    # Only the latest run's files are kept, for inspection.
    shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)
    work = ROOT / ".bench_work" / f"{name}-{seed}"
    (work / "check").mkdir(parents=True)
    (work / "serve").mkdir()
    ops = Ops()
    phases = {}
    last = [time.perf_counter()]

    def lap(phase):
        now = time.perf_counter()
        phases[phase] = round(now - last[0], 3)
        last[0] = now

    # Inputs, all generated before any timing. Block k sends requests
    # [k * n_block, (k + 1) * n_block): n_open open-loop, then the rest
    # closed-loop.
    n_open = round(spec["rate_rps"] * seconds * OPEN_SHARE / BLOCKS)
    n_closed = round(spec["closed_rps"] * seconds * (1 - OPEN_SHARE)
                     / BLOCKS)
    n_block = n_open + n_closed
    n_requests = BLOCKS * n_block
    if (stats.tail_percentile(n_open) or 0) < 95.0 or n_closed < 1:
        raise BenchError(f"--seconds {seconds:g} leaves too few requests "
                         "per block for a p95")
    tool_json([tool, "gen", "--workload", name, "--seed", str(seed),
               "--requests", str(n_requests),
               "--check-columns", str(CHECK_COLUMNS),
               "--synthetic-permille", str(SYNTHETIC_PERMILLE),
               "--out", str(work),
               *(x for k, v in spec["tables"].items() for x in (f"--{k}",
                                                                  str(v)))])
    manifest = [line.split(" ", 1) for line in
                (work / "manifest.tsv").read_text().splitlines()]
    check_tables = [str(work / p) for kind, p in manifest if kind == "check"]
    serve_tables = [p for kind, p in manifest if kind == "serve"]
    warmup_tables = [p for kind, p in manifest if kind == "warmup"]
    bodies = {p: (work / p).read_bytes()
              for p in set(serve_tables + warmup_tables)}
    frames = [wire.encode_request("check", bodies[p], table=p)
              for p in (serve_tables[i % len(serve_tables)]
                        for i in range(n_requests))]
    lap("generate")

    # The load server is started once, right after the first training run,
    # and sent the load blocks between the other steps: ROUNDS rounds of
    # check (one part of the labeled set each), block, serve cold start,
    # train. Every metric's samples so come from moments spread over the
    # whole run, and a slow spell of the host moves a few samples of each
    # instead of all samples of some. A traced run trains once and makes
    # no extra cold starts.
    rules = work / "rules0.sdc"
    serve_argv = [autotest, "serve", "--rules", str(rules), "--port", "0"]
    trains, checks, starts = [], [], []

    def train():
        i = len(trains)
        out = work / f"rules{i}.sdc"
        t = procs.run_timed([autotest, "train", *TRAIN_ARGS, "--out",
                             str(out)], str(work / f"train{i}.out"))
        trains.append(t)
        ops.record(t.code == 0 and out.is_file()
                   and sha256_file(out) == sha256_file(rules),
                   f"train {i}: exit {t.code} or rules differ from run 0")

    train()
    rules_sha = sha256_file(rules)
    server = procs.Server(serve_argv)
    starts.append(server.start_s)
    schedule = loadgen.open_schedule(n_open, spec["rate_rps"])
    block_timeout_s = (seconds + LOAD_SLACK_S) / BLOCKS
    blocks = []  # (first request, open outcomes, closed start, closed)
    cpu_s = 0.0

    def block():
        nonlocal cpu_s
        base = len(blocks) * n_block
        gc.disable()  # no collector pauses inside the timed phases
        cpu0 = procs.proc_cpu_s(server.proc.pid)
        open_out = loadgen.drive(
            server.port, frames[base:base + n_open], CONNECTIONS,
            schedule=schedule, timeout_s=block_timeout_s)
        t_closed = time.perf_counter()
        closed_out = loadgen.drive(
            server.port, frames[base + n_open:base + n_block], CONNECTIONS,
            timeout_s=block_timeout_s)
        cpu_s += procs.proc_cpu_s(server.proc.pid) - cpu0
        gc.enable()
        blocks.append((base, open_out, t_closed, closed_out))

    try:
        # Warm-up (untimed): see perfbench_tool gen.
        warm = loadgen.drive(server.port, [wire.encode_request(
            "check", bodies[p], table=p) for p in warmup_tables],
            CONNECTIONS, timeout_s=LOAD_SLACK_S)
        for i in range(ROUNDS):
            t = procs.run_timed([autotest, "check", *check_tables[i::ROUNDS],
                                 "--rules", str(rules)],
                                str(work / f"check{i}.out"))
            checks.append(t)
            ops.record(t.code == 0, f"check {i}: exit {t.code}")
            block()
            if not trace:
                cold = procs.Server(serve_argv)
                starts.append(cold.start_s)
                ops.record(cold.stop() == 0, "serve exit code after SIGTERM")
            if not trace and i + 1 < ROUNDS:
                train()
        counts = serve_counts(server.port)
        hwm_mb = procs.proc_hwm_mb(server.proc.pid)
    finally:
        code = server.stop()
    ops.record(code == 0, f"serve exit code {code} after SIGTERM")
    lap("train_check_serve")

    # Reference predictions and quality (not timed).
    with open(work / "check.out", "wb") as report:
        for i in range(ROUNDS):
            report.write((work / f"check{i}.out").read_bytes())
    verify = tool_json([tool, "verify", "--dir", str(work), "--rules",
                        str(rules), "--check-report", str(work / "check.out"),
                        "--requests", str(n_requests),
                        "--out-ref", str(work / "ref.tsv")])
    ops.record(verify["check_mismatches"] == 0,
               f"{verify['check_mismatches']} check tables differ from the "
               "reference")
    reference = load_reference(work / "ref.tsv")
    for o in warm:
        ops.record(o.error is None and response_ok(
            o.response, reference[warmup_tables[o.index]]),
            "warm-up response missing, failed or wrong")
    lap("verify")

    def correct(o, offset):
        table = serve_tables[(offset + o.index) % len(serve_tables)]
        ok = o.error is None and response_ok(o.response, reference[table])
        ops.record(ok, "serve response missing, failed or wrong")
        return ok

    # Per block: open-loop latencies (a failure is +inf) and closed-loop
    # throughput.
    block_latencies, block_rates = [], []
    lateness = []
    served = 0
    for base, open_out, t_closed, closed_out in blocks:
        open_ok = [correct(o, base) for o in open_out]
        closed_ok = [correct(o, base + n_open) for o in closed_out]
        block_latencies.append([o.latency if ok else float("inf")
                                for o, ok in zip(open_out, open_ok)])
        block_rates.append(stats.closed_rate(
            t_closed, [o.done for o in closed_out], closed_ok))
        lateness += [max(0.0, o.lateness) for o in open_out]
        served += sum(open_ok) + sum(closed_ok)
    latencies = [x for b in block_latencies for x in b]
    lat = stats.latency_summary(latencies)
    # Reported, but not as end-to-end metrics: they move with the
    # hypervisor's steal far beyond any bound (README, "Latency and
    # throughput").
    load = {
        "p50_ms": stats.block_percentile(block_latencies, 50) * 1e3,
        "p95_ms": stats.block_percentile(block_latencies, 95) * 1e3,
        "throughput_rps": stats.median(block_rates),
    }
    lap("check_outputs")

    metrics = {
        "train_s": (stats.median([t.wall_s for t in trains]), "s"),
        "train_cpu_s": (stats.median([t.cpu_s for t in trains]), "s"),
        "check_s": (stats.median([t.wall_s for t in checks]), "s"),
        "pr_auc": (verify["pr_auc"], "ratio"),
        "f1_at_p08": (verify["f1_at_p08"], "ratio"),
        "setup_s": (stats.median(starts), "s"),
        "cpu_ms_per_req": (cpu_s * 1e3 / max(served, 1), "ms"),
        "peak_rss_mb": (hwm_mb, "MB"),
        "ok_share": (1.0 - len(ops.failures) / ops.attempted, "ratio"),
    }
    info = {
        "workload": name, "seed": seed, "seconds": seconds,
        "host": host_facts(),
        "inputs": {
            "requests": n_requests, "blocks": BLOCKS,
            "open_loop_requests_per_block": n_open,
            "closed_loop_requests_per_block": n_closed,
            "open_loop_rate_rps": spec["rate_rps"],
            "connections": CONNECTIONS,
            "distinct_request_tables": len(bodies),
            "rows_per_request": verify["rows_per_request"],
            "columns_per_request": verify["columns_per_request"],
            "bytes_per_request": sum(len(f) for f in frames) / n_requests,
            "seen_value_share": verify["seen_value_share"],
            "flagged_cell_share": verify["flagged_cell_share"],
            "check_tables": len(check_tables),
            "labeled_errors": verify["labeled_errors"],
        },
        "round_samples": {"train_s": [t.wall_s for t in trains],
                          "train_cpu_s": [t.cpu_s for t in trains],
                          "check_s": [t.wall_s for t in checks],
                          "setup_s": starts},
        "samples": {"train": len(trains), "check": len(checks),
                    "serve_start": len(starts),
                    "open_loop": lat["samples"],
                    "tail_percentile": lat["tail_percentile"],
                    "closed_loop": BLOCKS * n_closed},
        "open_loop_ms": {f"p{p:g}": stats.percentile(latencies, p) * 1e3
                         for p in (50, 90, 95, 98, 99, 100)},
        **load,
        "block_p95_ms": [stats.percentile(b, 95) * 1e3
                         for b in block_latencies],
        "block_rps": block_rates,
        "rules_sha256": rules_sha,
        "phase_wall_s": phases,
        "serve_counts": counts,
        "failures": ops.failures[:10],
    }
    if trace:
        layer = trace_run(tool, work, rules_sha, ops, trains[0].wall_s)
        lap("trace")
        layer["loadgen.p50_ms"] = (load["p50_ms"], "ms")
        layer["loadgen.p95_ms"] = (load["p95_ms"], "ms")
        layer["loadgen.throughput_rps"] = (load["throughput_rps"], "req/s")
        layer["loadgen.p99_ms"] = (lat["tail_ms"], "ms")
        layer["loadgen.late_p99_ms"] = (
            stats.percentile(lateness, lat["tail_percentile"]) * 1e3, "ms")
        layer["loadgen.seen_value_share"] = (verify["seen_value_share"],
                                             "ratio")
        layer["loadgen.flagged_cell_share"] = (verify["flagged_cell_share"],
                                               "ratio")
        for key, value in counts.items():
            layer[key] = (value, "count")
        metrics = layer
    return metrics, ops, info


UNITS = {"_s": "s", "_us": "us", "_ms": "ms"}


def trace_run(tool, work, rules_sha, ops, train_wall_s):
    """The traced library run: per-layer metrics plus the layer table."""
    out = work / "trace.json"
    traced_rules = work / "trace_rules.sdc"
    t = procs.run_timed([tool, "trace", "--dir", str(work), "--requests",
                         str(TRACE_REQUESTS), "--rules-out",
                         str(traced_rules), "--out", str(out)],
                        str(work / "trace.out"))
    if t.code != 0:
        raise BenchError("traced run failed: " +
                         Path(str(work / "trace.out") + ".err").read_text())
    ops.record(sha256_file(traced_rules) == rules_sha,
               "traced training produced different rules than autotest")
    doc = json.loads(out.read_text())
    span_list = doc["spans"]
    rows, uncovered, root = spans.layer_table(span_list,
                                              round(t.wall_s * 1e9))
    print(spans.format_table(f"per-layer self time ({work.name}, "
                             "traced library run)", rows, uncovered, root))

    def durations(name):
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in span_list
                if s["name"] == name]

    layer = {}
    for name in ("datagen.corpus", "typedet.evalset_build", "core.train",
                 "core.select", "core.rules_load"):
        layer[name + "_s"] = (stats.median(durations(name)), "s")
    counts = doc["counts"]
    for key, value in counts.items():
        if key.startswith("typedet.batch_ns_per_value."):
            layer[key] = (value, "ns/value")
        elif key.endswith("_s"):
            layer[key] = (value, "s")
        elif key == "parallel.utilization":
            layer[key] = (value, "ratio")
        else:
            layer[key] = (value, "count")
    layer["core.train.keep_ratio"] = (
        counts["core.train.kept"] / counts["core.train.enumerated"], "ratio")
    for key, values in doc["samples"].items():
        unit = next((u for suffix, u in UNITS.items() if key.endswith(suffix)),
                    "count")
        layer[key] = (stats.median(values), unit)
    layer["trace.uncovered_s"] = (uncovered, "s")
    # Tracing overhead: the traced composition of `train` against the
    # untraced `autotest train` process of the same run (which also pays
    # process spawn and exit).
    layer["trace.gap_s"] = (durations("cli.train")[0] - train_wall_s, "s")
    return layer


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminating signal unwinds like an error, so every child process
    # started so far is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        metrics, ops, info = run_workload(args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, RuntimeError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({"info": info}))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
