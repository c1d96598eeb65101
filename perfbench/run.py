#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the paper run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: paper-serial, paper-mp2, paper-mp2-loaded, sweep-dedupe (see
perfbench/README.md). The script builds the `microslip` binary (the rank and
job worker) and the `perfbench` binary into $CARGO_TARGET_DIR (default
`.bench_build`), refuses to start without enough free disk, runs the
benchmark in its own scratch directory `.bench_scratch` and deletes that
directory afterwards. The last line of stdout is the result object; the full
result with the host fingerprint is also saved under
`<target>/perfbench-state/results/` for `compare.py`.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One mp run leaves two 336 MB rank states plus the driver's copies; the
# traced run adds a probe checkpoint, the sweep ~40 MB per job. A build
# from scratch needs about 1 GB more.
RUN_NEED_BYTES = 2 << 30
BUILD_NEED_BYTES = 1 << 30
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    if argv == ["--self-test"]:
        return None
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown argument {flag!r}")
        try:
            args[flag[2:]] = next(it)
        except StopIteration:
            fail(f"{flag} needs a value")
    missing = {"workload", "seed", "seconds", "trace"} - set(args)
    if missing:
        fail("missing " + ", ".join("--" + m for m in sorted(missing)))
    if args["trace"] not in ("0", "1"):
        fail("--trace wants 0 or 1")
    return args


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(ROOT, t))


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "microslip"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)


def source_digest():
    """sha256 over the sources the benchmark measures (commit stand-in for
    checkouts that are not git repositories)."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def run_binary(cmd):
    """Runs the benchmark binary, forwarding all but its last stdout line;
    returns (exit code, last line, full result). On timeout the binary and
    every process it started (ranks, job workers) are killed."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    last = None
    full = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
            if last.startswith("result "):
                full = json.loads(last[len("result "):])
        code = proc.wait()
    finally:
        timer.cancel()
    if timed_out.is_set():
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    return code, last, full


def main():
    args = parse_args(sys.argv[1:])
    for needed in ("Cargo.toml", "src", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no microslip sources here ({needed} missing under {ROOT})")
    target = target_dir()
    binary = os.path.join(target, "release", "perfbench")
    worker = os.path.join(target, "release", "microslip")
    need = RUN_NEED_BYTES + (0 if os.path.exists(binary) else BUILD_NEED_BYTES)
    free = shutil.disk_usage(ROOT).free
    if free < need:
        fail(f"only {free >> 20} MB free, one run needs {need >> 20} MB", 3)
    build(target)

    if args is None:
        code = subprocess.run([binary, "--self-test"], cwd=ROOT).returncode
        sys.path.insert(0, HERE)
        import compare
        sys.exit(code or compare.self_test())

    scratch = os.path.join(ROOT, ".bench_scratch")
    state = os.path.join(target, "perfbench-state")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        cmd = [binary, "--workload", args["workload"], "--seed", args["seed"],
               "--seconds", args["seconds"], "--trace", args["trace"],
               "--scratch", scratch, "--state", state, "--worker", worker]
        code, last, full = run_binary(cmd)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0 or last is None:
        fail(f"benchmark exited with {code}", 1)
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {last}", 1)
    want = expected_metrics(args["trace"])
    if set(result["metrics"]) != want:
        fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(want)}", 1)

    full = full or {}
    full.update(commit=commit(), source=source_digest(),
                **{k: result[k] for k in ("correct", "attempted", "failed")})
    results = os.path.join(state, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args['workload']}-seed{args['seed']}-trace{args['trace']}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(full, f, indent=1)
    print(last, flush=True)


if __name__ == "__main__":
    main()
