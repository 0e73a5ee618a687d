#!/usr/bin/env python3
"""Run the kernel micro-benchmarks and emit the BENCH_kernels.json baseline.

Runs ``bench_micro_ops`` (google-benchmark) once per requested CIP_THREADS
value with ``--benchmark_format=json``, extracts per-benchmark wall time and
throughput, computes the naive-vs-GEMM convolution speedups, and writes a
single merged JSON document. Fields are documented in docs/BENCHMARKS.md.

Usage:
    tools/bench_to_json.py --binary build/bench/bench_micro_ops \
        --output BENCH_kernels.json [--threads 1 4] [--filter REGEX]

The script has no dependencies beyond the standard library. It fails loudly
(non-zero exit) if the benchmark binary is missing, a run fails, or an
expected conv benchmark is absent from the output.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

SCHEMA = "cip-bench-kernels/v2"

# (fast benchmark, reference benchmark) pairs whose time ratio is recorded
# under "speedups". BM_Conv2dForward (vs the naive convolution) and
# BM_Matmul/64 (persistent pool vs spawn-per-call dispatch) are the
# acceptance-gated ones.
SPEEDUP_PAIRS = [
    ("BM_Conv2dForward", "BM_Conv2dForwardNaive"),
    ("BM_Conv2dBackward", "BM_Conv2dBackwardNaive"),
    ("BM_Matmul/64", "BM_MatmulSpawn/64"),
    ("BM_Matmul/32", "BM_MatmulSpawn/32"),
    ("BM_ParallelForDispatch", "BM_ParallelForDispatchSpawn"),
]

# Performance floors (docs/BENCHMARKS.md). Checked only for thread counts
# that were actually run; --no-gate skips them. The BM_Matmul/64 floor gates
# the worker pool's dispatch overhead against spawn-per-call threading.
SPEEDUP_GATES = [
    ("BM_Conv2dForwardNaive/BM_Conv2dForward", "threads=4", 3.0),
    ("BM_Conv2dForwardNaive/BM_Conv2dForward", "threads=1", 1.5),
    ("BM_MatmulSpawn/64/BM_Matmul/64", "threads=4", 1.3),
]

# Absolute throughput floors in GMAC/s, enforced only when the run bound a
# SIMD kernel (host.isa != "portable"): 21.1 is 3x the last portable-kernel
# BM_Matmul/256 single-thread baseline (7.039 GMAC/s), the acceptance floor
# for the ISA-dispatched microkernels; 9.0 is 2x the im2col-lowered
# BM_Conv2dForward single-thread baseline (4.5 GMAC/s), the floor for the
# implicit-GEMM convolution. Portable-forced runs skip these — the portable
# kernel is the 1x reference, not the thing being gated.
SIMD_GMACS_GATES = [
    ("BM_Matmul/256", "threads=1", 21.1),
    ("BM_Conv2dForward", "threads=1", 9.0),
]

# Acceptance gates for the committed BENCH_scale.json baseline
# (bench_scale: million-client ClientStore simulation). The RSS ceiling pins
# the O(hot budget + cohort) memory claim; the rounds/sec floor keeps the
# sampled round path from regressing into something unusably slow.
SCALE_SCHEMA = "cip-bench-scale/v1"
SCALE_MIN_REGISTERED = 1_000_000
SCALE_MIN_COHORT = 1000
SCALE_MIN_ROUNDS = 5
SCALE_MAX_PEAK_RSS_BYTES = 512 << 20
SCALE_MIN_ROUNDS_PER_SECOND = 0.05

# Acceptance gates for the committed BENCH_server.json baseline
# (bench_server: 1k concurrent loopback connections through the socket
# server). The shape gates pin what the run must have exercised — a quorum
# strictly below the fleet (the asynchronous close path), stragglers folded
# across round boundaries, and admission overflow answered with kBusy — and
# the wire run must stay bit-identical to the direct engine feed.
SERVER_SCHEMA = "cip-bench-server/v1"
SERVER_MIN_CLIENTS = 1000
SERVER_MIN_ROUNDS = 20
SERVER_MAX_PEAK_RSS_BYTES = 256 << 20
SERVER_MIN_ROUNDS_PER_SECOND = 1.0


def check_server(path: pathlib.Path) -> int:
    """Validate a committed BENCH_server.json against the load-bench gates."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read server baseline {path}: {exc}")

    failures = []

    def need(cond: bool, msg: str) -> None:
        if not cond:
            failures.append(msg)

    need(doc.get("schema") == SERVER_SCHEMA,
         f"schema {doc.get('schema')!r} != {SERVER_SCHEMA!r}")
    build = doc.get("host", {}).get("cip_build_type")
    need(build == "release",
         f"cip_build_type {build!r} != 'release' — regenerate via "
         "scripts/bench_baseline.sh")
    setup = doc.get("setup", {})
    need(setup.get("clients", 0) >= SERVER_MIN_CLIENTS,
         f"clients {setup.get('clients')} < {SERVER_MIN_CLIENTS}")
    need(0 < setup.get("quorum", 0) < setup.get("clients", 0),
         f"quorum {setup.get('quorum')} not in (0, clients) — the async "
         "close path was never exercised")
    need(setup.get("rounds", 0) >= SERVER_MIN_ROUNDS,
         f"rounds {setup.get('rounds')} < {SERVER_MIN_ROUNDS}")
    need(doc.get("determinism", {}).get("bit_identical") is True,
         "determinism.bit_identical is not true")
    server = doc.get("server", {})
    stats = server.get("stats", {})
    need(stats.get("rounds_completed") == setup.get("rounds"),
         f"rounds_completed {stats.get('rounds_completed')} != configured "
         f"rounds {setup.get('rounds')}")
    need(stats.get("protocol_errors", 1) == 0,
         f"protocol_errors {stats.get('protocol_errors')} != 0 on a clean run")
    need(stats.get("busy_rejections", 0) > 0,
         "busy_rejections == 0 — admission control was never exercised")
    need(stats.get("folded_stragglers", 0) > 0,
         "folded_stragglers == 0 — no update ever crossed a round boundary")
    need(server.get("rounds_per_second", 0.0) >= SERVER_MIN_ROUNDS_PER_SECOND,
         f"rounds_per_second {server.get('rounds_per_second')} < "
         f"{SERVER_MIN_ROUNDS_PER_SECOND}")
    p50 = server.get("round_latency_p50_ms", 0.0)
    p99 = server.get("round_latency_p99_ms", 0.0)
    need(0 < p50 <= p99,
         f"round latency p50 {p50} / p99 {p99} not 0 < p50 <= p99")
    need(0 < server.get("peak_rss_bytes", 0) <= SERVER_MAX_PEAK_RSS_BYTES,
         f"peak_rss_bytes {server.get('peak_rss_bytes')} outside "
         f"(0, {SERVER_MAX_PEAK_RSS_BYTES}]")

    if failures:
        raise SystemExit(f"server gate FAILED for {path}:\n  " +
                         "\n  ".join(failures))
    print(f"[bench_to_json] server gates passed for {path}", file=sys.stderr)
    return 0


SERVE_SCHEMA = "cip-bench-serve/v1"
SERVE_MIN_THREADS = 4
SERVE_MIN_CLIENTS = 128
SERVE_MIN_BATCH_ROWS = 128
SERVE_MIN_FUSED_SPEEDUP = 4.0
SERVE_MIN_WARM_HIT_RATE = 0.99


def check_serve(path: pathlib.Path) -> int:
    """Validate a committed BENCH_serve.json against the serving gates."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read serve baseline {path}: {exc}")

    failures = []

    def need(cond: bool, msg: str) -> None:
        if not cond:
            failures.append(msg)

    need(doc.get("schema") == SERVE_SCHEMA,
         f"schema {doc.get('schema')!r} != {SERVE_SCHEMA!r}")
    host = doc.get("host", {})
    need(host.get("cip_build_type") == "release",
         f"cip_build_type {host.get('cip_build_type')!r} != 'release' — "
         "regenerate via scripts/bench_baseline.sh")
    need(host.get("num_threads", 0) >= SERVE_MIN_THREADS,
         f"num_threads {host.get('num_threads')} < {SERVE_MIN_THREADS} — "
         "the fused-batch gate is defined at CIP_THREADS=4")
    setup = doc.get("setup", {})
    need(setup.get("clients", 0) >= SERVE_MIN_CLIENTS,
         f"clients {setup.get('clients')} < {SERVE_MIN_CLIENTS} — a full "
         "fused batch must mix distinct clients")
    need(setup.get("max_batch_rows", 0) >= SERVE_MIN_BATCH_ROWS,
         f"max_batch_rows {setup.get('max_batch_rows')} < "
         f"{SERVE_MIN_BATCH_ROWS}")
    tcache = doc.get("tcache", {})
    need(tcache.get("warm_hit_rate", 0.0) >= SERVE_MIN_WARM_HIT_RATE,
         f"warm_hit_rate {tcache.get('warm_hit_rate')} < "
         f"{SERVE_MIN_WARM_HIT_RATE}")
    need(tcache.get("warm_queries_per_second", 0.0) >
         tcache.get("cold_queries_per_second", 0.0),
         "warm t-cache is not faster than cold materialization")
    serve = doc.get("serve", {})
    need(serve.get("alloc_free_steady_state") is True,
         "serve.alloc_free_steady_state is not true")
    need(serve.get("wire_bit_identical") is True,
         "serve.wire_bit_identical is not true")
    need(serve.get("fused_speedup_128_vs_1", 0.0) >= SERVE_MIN_FUSED_SPEEDUP,
         f"fused_speedup_128_vs_1 {serve.get('fused_speedup_128_vs_1')} < "
         f"{SERVE_MIN_FUSED_SPEEDUP}")
    batches = serve.get("batches", [])
    need({b.get("batch") for b in batches} >= {1, 16, 128},
         "batches must cover batch sizes 1, 16 and 128")
    for b in batches:
        p50, p99 = b.get("p50_ms", 0.0), b.get("p99_ms", 0.0)
        need(0 < p50 <= p99,
             f"batch {b.get('batch')} latency p50 {p50} / p99 {p99} not "
             "0 < p50 <= p99")
        need(b.get("queries_per_second", 0.0) > 0,
             f"batch {b.get('batch')} queries_per_second not positive")

    if failures:
        raise SystemExit(f"serve gate FAILED for {path}:\n  " +
                         "\n  ".join(failures))
    print(f"[bench_to_json] serve gates passed for {path}", file=sys.stderr)
    return 0


def check_scale(path: pathlib.Path) -> int:
    """Validate a committed BENCH_scale.json against the scale gates."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read scale baseline {path}: {exc}")

    failures = []

    def need(cond: bool, msg: str) -> None:
        if not cond:
            failures.append(msg)

    need(doc.get("schema") == SCALE_SCHEMA,
         f"schema {doc.get('schema')!r} != {SCALE_SCHEMA!r}")
    build = doc.get("host", {}).get("cip_build_type")
    need(build == "release",
         f"cip_build_type {build!r} != 'release' — regenerate via "
         "scripts/bench_baseline.sh")
    setup = doc.get("setup", {})
    need(setup.get("registered_clients", 0) >= SCALE_MIN_REGISTERED,
         f"registered_clients {setup.get('registered_clients')} < "
         f"{SCALE_MIN_REGISTERED}")
    need(setup.get("cohort", 0) >= SCALE_MIN_COHORT,
         f"cohort {setup.get('cohort')} < {SCALE_MIN_COHORT}")
    need(setup.get("rounds", 0) >= SCALE_MIN_ROUNDS,
         f"rounds {setup.get('rounds')} < {SCALE_MIN_ROUNDS}")
    need(doc.get("determinism", {}).get("bit_identical") is True,
         "determinism.bit_identical is not true")
    scale = doc.get("scale", {})
    need(0 < scale.get("peak_rss_bytes", 0) <= SCALE_MAX_PEAK_RSS_BYTES,
         f"peak_rss_bytes {scale.get('peak_rss_bytes')} outside "
         f"(0, {SCALE_MAX_PEAK_RSS_BYTES}]")
    need(scale.get("rounds_per_second", 0.0) >= SCALE_MIN_ROUNDS_PER_SECOND,
         f"rounds_per_second {scale.get('rounds_per_second')} < "
         f"{SCALE_MIN_ROUNDS_PER_SECOND}")
    need(scale.get("store", {}).get("spills", 0) > 0,
         "store.spills == 0 — the hot-byte budget was never exercised")

    if failures:
        raise SystemExit(f"scale gate FAILED for {path}:\n  " +
                         "\n  ".join(failures))
    print(f"[bench_to_json] scale gates passed for {path}", file=sys.stderr)
    return 0


def run_benchmarks(binary: pathlib.Path, threads: int, bench_filter: str,
                   min_time: float) -> dict:
    """Run the binary at a given CIP_THREADS and return parsed JSON."""
    env = dict(os.environ)
    env["CIP_THREADS"] = str(threads)
    cmd = [
        str(binary),
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    print(f"[bench_to_json] CIP_THREADS={threads} {' '.join(cmd)}",
          file=sys.stderr)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"benchmark run failed (exit {proc.returncode}) at "
            f"CIP_THREADS={threads}")
    return json.loads(proc.stdout)


def summarize(raw: dict) -> dict:
    """Flatten google-benchmark JSON into {name: {time_ms, ...}}."""
    out = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "time_ms": round(b["real_time"] / 1e6, 4)
            if b.get("time_unit") == "ns" else b["real_time"],
            "cpu_ms": round(b["cpu_time"] / 1e6, 4)
            if b.get("time_unit") == "ns" else b["cpu_time"],
            "iterations": b.get("iterations"),
        }
        # items_per_second is MACs/s for the matmul/conv benches.
        if "items_per_second" in b:
            entry["gmacs_per_s"] = round(b["items_per_second"] / 1e9, 3)
        out[b["name"]] = entry
    return out


def compute_speedups(per_run: dict) -> dict:
    """naive_time / gemm_time per SPEEDUP_PAIRS entry and thread count."""
    speedups = {}
    for gemm, naive in SPEEDUP_PAIRS:
        per_threads = {}
        for key, benches in per_run.items():
            if gemm not in benches or naive not in benches:
                continue
            g, n = benches[gemm]["time_ms"], benches[naive]["time_ms"]
            if g > 0:
                per_threads[key] = round(n / g, 2)
        if per_threads:
            speedups[f"{naive}/{gemm}"] = per_threads
    return speedups


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", type=pathlib.Path,
                    default=pathlib.Path("build/bench/bench_micro_ops"))
    ap.add_argument("--output", type=pathlib.Path,
                    default=pathlib.Path("BENCH_kernels.json"))
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 4],
                    help="CIP_THREADS values to benchmark (one run each)")
    ap.add_argument("--filter",
                    default="BM_(Matmul|MatmulTransB|Conv2d|Im2Col|ParallelFor)",
                    help="--benchmark_filter regex (kernel + dispatch benches "
                         "only by default; pass '' for the full suite)")
    ap.add_argument("--min-time", type=float, default=0.5,
                    help="--benchmark_min_time per case, in seconds")
    ap.add_argument("--no-gate", action="store_true",
                    help="skip the GEMM-vs-naive speedup floors (useful on "
                         "loaded machines or for exploratory runs)")
    ap.add_argument("--allow-debug", action="store_true",
                    help="emit a baseline even from a non-Release binary "
                         "(exploratory only; never commit such a baseline)")
    ap.add_argument("--check-scale", type=pathlib.Path, metavar="JSON",
                    help="validate a committed BENCH_scale.json (bench_scale "
                         "output) against the million-client scale gates and "
                         "exit; no benchmarks are run")
    ap.add_argument("--check-server", type=pathlib.Path, metavar="JSON",
                    help="validate a committed BENCH_server.json "
                         "(bench_server output) against the 1k-connection "
                         "load gates and exit; no benchmarks are run")
    ap.add_argument("--check-serve", type=pathlib.Path, metavar="JSON",
                    help="validate a committed BENCH_serve.json "
                         "(bench_serve output) against the serving-engine "
                         "gates and exit; no benchmarks are run")
    args = ap.parse_args()

    if args.check_scale is not None:
        return check_scale(args.check_scale)
    if args.check_server is not None:
        return check_server(args.check_server)
    if args.check_serve is not None:
        return check_serve(args.check_serve)

    if not args.binary.exists():
        raise SystemExit(
            f"benchmark binary not found: {args.binary}\n"
            "build it first: cmake -B build -S . && "
            "cmake --build build --target bench_micro_ops")

    per_run = {}
    context = None
    for t in args.threads:
        raw = run_benchmarks(args.binary, t, args.filter, args.min_time)
        per_run[f"threads={t}"] = summarize(raw)
        context = context or raw.get("context", {})

    # Numbers from an unoptimized build are meaningless as a baseline: refuse
    # to emit one. The binary stamps its own build type into the context
    # (bench_micro_ops main); note that google-benchmark's library_build_type
    # describes the *library* build, not ours, so it is not consulted.
    build_type = (context or {}).get("cip_build_type", "unknown")
    if build_type != "release" and not args.allow_debug:
        raise SystemExit(
            f"refusing to emit a baseline from a non-Release binary "
            f"(cip_build_type={build_type!r}). Rebuild with "
            "-DCMAKE_BUILD_TYPE=Release (scripts/bench_baseline.sh does), or "
            "pass --allow-debug for a throwaway run.")

    for gemm, naive in SPEEDUP_PAIRS:
        for key, benches in per_run.items():
            for name in (gemm, naive):
                if name not in benches:
                    raise SystemExit(
                        f"expected benchmark {name} missing from {key} run "
                        "(filter too narrow?)")

    # One authoritative build-type field: cip_build_type, stamped by our own
    # binary from NDEBUG. google-benchmark's context also carries a
    # library_build_type describing how the *benchmark library* was built —
    # irrelevant to our kernels and confusing next to cip_build_type, so it
    # is deliberately not recorded. The bound GEMM ISA (and what CIP_ISA
    # requested) is recorded so every number names its microkernel.
    doc = {
        "schema": SCHEMA,
        "binary": str(args.binary),
        "host": {
            "cpu": platform.processor() or platform.machine(),
            "num_cpus": (context or {}).get("num_cpus"),
            "mhz_per_cpu": (context or {}).get("mhz_per_cpu"),
            "cip_build_type": build_type,
            "isa": (context or {}).get("cip_isa", "unknown"),
            "isa_request": (context or {}).get("cip_isa_request", "unknown"),
        },
        "runs": per_run,
        "speedups": compute_speedups(per_run),
    }
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"[bench_to_json] wrote {args.output}", file=sys.stderr)
    for pair, per_threads in doc["speedups"].items():
        print(f"[bench_to_json] speedup {pair}: {per_threads}",
              file=sys.stderr)

    if not args.no_gate:
        failures = []
        for pair, key, floor in SPEEDUP_GATES:
            got = doc["speedups"].get(pair, {}).get(key)
            if got is not None and got < floor:
                failures.append(f"{pair} at {key}: {got} < required {floor}")
        if doc["host"]["isa"] != "portable":
            for name, key, floor in SIMD_GMACS_GATES:
                got = per_run.get(key, {}).get(name, {}).get("gmacs_per_s")
                if got is not None and got < floor:
                    failures.append(
                        f"{name} at {key} (isa={doc['host']['isa']}): "
                        f"{got} GMAC/s < required {floor}")
        if failures:
            raise SystemExit("speedup gate FAILED:\n  " +
                             "\n  ".join(failures))
        print("[bench_to_json] speedup gates passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
