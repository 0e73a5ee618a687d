#!/usr/bin/env python3
"""Build and run the CIP benchmark.

    python3 cipbench/run.py --workload cip_round --seed 1 --seconds 20 --trace 0

builds the library and the benchmark binary (Release, under .bench_build/
at the root of the checkout), pins CIP_THREADS to at most the core count and
4, runs one workload, and passes its output through, except that the last
line becomes the result object: the binary's metric values with the units
BENCHMARK.json gives them. --seconds defaults to BENCHMARK.json's
run_seconds. Exits non-zero, without a result, when the build fails or the
metric names differ from BENCHMARK.json; and with the binary's code when an
output is wrong.

    python3 cipbench/run.py --self-test
        builds and runs the benchmark's own tests, then checks that a short
        traced run writes a trace Python's json module reads.
    python3 cipbench/run.py --attribution-check [--seed N]
        injects a known delay into every TrainLocal and checks that it shows
        up in cip_round's round time and Step II time and nowhere in
        serve_wire's metrics.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cipbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build `target`; build output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                        "--target", target],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def threads_env():
    env = dict(os.environ)
    cores = os.cpu_count() or 1
    pinned = env.get("CIP_THREADS")
    if pinned is None or not pinned.isdigit() or int(pinned) < 1:
        env["CIP_THREADS"] = str(min(4, cores))
    elif int(pinned) > cores:
        raise SystemExit(f"CIP_THREADS={pinned} exceeds the {cores} cores")
    return env


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def with_units(line, trace):
    """The result object for the binary's last line, or None when its metric
    names differ from BENCHMARK.json: every end-to-end metric must be there;
    a per-layer metric the workload does not exercise reads 0."""
    result = json.loads(line)
    values = result.pop("values")
    table = benchmark_spec()["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in table}
    missing = [] if trace else sorted(names - set(values))
    unknown = sorted(set(values) - names)
    if missing or unknown:
        log(f"cipbench: metrics missing {missing}, unknown {unknown}"
            " (BENCHMARK.json)")
        return None
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0),
                                     "unit": m["unit"]} for m in table}
    return result


def trace_path(workload, seed):
    return os.path.join(BUILD, "traces", f"{workload}-seed{seed}.json")


def run_workload(binary, args, delay_ms=0.0, capture=False):
    """Run the binary for one workload; returns (exit code, result object or
    None). Unless `capture`, prints its output with the result line."""
    scratch = os.path.join(BUILD, f"scratch-{os.getpid()}")
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch,
           "--trace-out", trace_path(args.workload, args.seed)]
    if delay_ms:
        cmd += ["--inject-delay-ms", str(delay_ms)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=threads_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("cipbench: run timed out")
        return 1, None
    lines = out.rstrip("\n").split("\n")
    try:
        result = with_units(lines[-1], args.trace)
    except (ValueError, KeyError, AttributeError):
        log("cipbench: the binary printed no result line")
        result = None
    code = proc.returncode if result is not None else (proc.returncode or 1)
    if not capture:
        # The binary's own last line is never passed on as a result.
        keep = lines[:-1] if lines[-1].startswith("{") else lines
        print("\n".join(keep), flush=True)
        if result is not None:
            print(json.dumps(result), flush=True)
    return code, result


def values_of(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def attribution_check(binary, seed, seconds):
    """Inject 100 ms per TrainLocal (about half a cip_round round, well above
    its run-to-run noise): cip_round's round and Step II times must grow by
    about that much. serve_wire's clients carry the same delay, but serving
    never trains, so its metrics must not move: compared as medians of three
    runs of `seconds` per side, the length the bounds were set at."""
    delay = 100.0
    ok = True

    def run(workload, trace, inject, secs=8):
        args = argparse.Namespace(workload=workload, seed=seed, seconds=secs,
                                  trace=trace)
        code, result = run_workload(binary, args, inject, capture=True)
        if code != 0:
            raise SystemExit(f"{workload} failed during the check")
        return values_of(result)

    base = run("cip_round", 0, 0)
    slow = run("cip_round", 0, delay)
    base_l = run("cip_round", 1, 0)
    slow_l = run("cip_round", 1, delay)
    d_round = slow["op_p50_ms"] - base["op_p50_ms"]
    d_step2 = slow_l["core.step2_ms"] - base_l["core.step2_ms"]
    d_step1 = slow_l["core.step1_ms"] - base_l["core.step1_ms"]
    for name, got in (("op_p50_ms", d_round), ("core.step2_ms", d_step2)):
        good = 0.75 * delay <= got <= 1.5 * delay
        ok = ok and good
        print(f"cip_round {name} moved {got:+.2f} ms for {delay} ms injected:"
              f" {'ok' if good else 'WRONG'}")
    good = abs(d_step1) < 0.25 * delay
    ok = ok and good
    print(f"cip_round core.step1_ms moved {d_step1:+.2f} ms: "
          f"{'ok' if good else 'WRONG'}")
    sides = {inject: [run("serve_wire", 0, inject, seconds) for _ in range(3)]
             for inject in (0, delay)}
    for m in benchmark_spec()["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sb, ss = (statistics.median(r[name] for r in sides[i])
                  for i in (0, delay))
        rel = abs(ss - sb) / sb
        good = rel <= bound
        ok = ok and good
        print(f"serve_wire {name} moved {100 * rel:.1f}% (bound "
              f"{100 * bound:.0f}%): {'ok' if good else 'WRONG'}")
    print("attribution check:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def self_test(binary, test_binary):
    """The GTest suite, then a short traced cip_round run: its trace file
    must be JSON with one complete event per span."""
    code = subprocess.run([test_binary]).returncode
    if code != 0:
        return code
    args = argparse.Namespace(workload="cip_round", seed=1, seconds=1,
                              trace=1)
    path = trace_path(args.workload, args.seed)
    if os.path.exists(path):
        os.remove(path)
    code, result = run_workload(binary, args, capture=True)
    if code != 0:
        log("cipbench: the traced run failed")
        return 1
    try:
        with open(path) as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        good = (len(events) > 0 and trace["metadata"]["traced"] is True and
                all(e["ph"] == "X" and e["dur"] >= 0 for e in events))
    except (OSError, ValueError, KeyError, TypeError) as e:
        log(f"cipbench: trace {path} is not well-formed: {e}")
        return 1
    print(f"trace {path}: {len(events)} events, "
          f"{'well-formed' if good else 'WRONG'}")
    return 0 if good else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload",
                   choices=["cip_round", "fleet_churn", "serve_wire"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=benchmark_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--attribution-check", action="store_true")
    args = p.parse_args()
    try:
        binary = build("cipbench")
        test_binary = build("cipbench_test") if args.self_test else None
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"cipbench: build failed: {e}")
        return 1
    if args.self_test:
        return self_test(binary, test_binary)
    if args.attribution_check:
        return attribution_check(binary, args.seed, args.seconds)
    if args.workload is None:
        p.error("--workload is required")
    code, _ = run_workload(binary, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
