#!/usr/bin/env python3
"""Build and run squid_e2e, the end-to-end benchmark of Squid.

Run from the repository root:

  python3 e2ebench/run.py --workload kw-crowd --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --self-check [--seconds 3]

The benchmark is built from the checkout's own sources (src/ and include/)
with CMake, into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench
under the repository root); build output goes to stderr. The program's
standard output is passed through unchanged, so its last line is the JSON
result: {"correct", "attempted", "failed", "metrics"}. A traced run
(--trace 1) also writes the benchmark's spans to <build dir>/spans/.

--self-check runs every workload twice with one seed and once with another
and checks that exact counts repeat bit-for-bit, that a different seed
changes the input stream, that the oracle caught a deliberately dropped
element, and that the traced run reports every per-layer metric.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kw-crowd", "q3-range", "geo-motion")
RUN_TIMEOUT_S = 170
ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(exact|wall|memory)\b")


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    for need in ("src", "include"):
        if not os.path.isdir(os.path.join(ROOT, need)):
            fail(f"cannot build: {need}/ is missing next to e2ebench/", 2)
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    for cmd in (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "squid_e2e")


def source_id():
    """Commit (when the checkout is a git repository) plus a digest of the
    sources the benchmark was built from, so every run records what it ran."""
    commit = "no-git"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "include"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{commit}+src-sha256:{digest.hexdigest()[:16]}"


def declared_metrics():
    """Metric names BENCHMARK.json declares, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_once(binary, workload, seed, seconds, trace, commit):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail(f"{workload} printed no JSON result (exit {proc.returncode})")
    return proc, result


def check_names(result, trace):
    declared = declared_metrics()
    if declared is None:
        return
    want = declared[1] if trace else declared[0]
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        fail(f"metrics {got} do not match BENCHMARK.json {want}")


def table(stdout):
    """(name -> kind) from the human-readable metric table."""
    return {m.group(1): m.group(4) for m in map(ROW.match, stdout.splitlines()) if m}


def info(stdout, key):
    for line in stdout.splitlines():
        if line.strip().startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


def self_check(binary, seconds, commit):
    problems = []
    for w in WORKLOADS:
        a, ra = run_once(binary, w, 1, seconds, 0, commit)
        b, rb = run_once(binary, w, 1, seconds, 0, commit)
        c, rc = run_once(binary, w, 2, seconds, 0, commit)
        t, rt = run_once(binary, w, 1, seconds, 1, commit)
        kinds = table(a.stdout)
        exact = [n for n in ra["metrics"] if kinds.get(n) == "exact"]
        for run, result, label in ((a, ra, "seed 1"), (b, rb, "seed 1 again"),
                                   (c, rc, "seed 2"), (t, rt, "traced")):
            if not result["correct"] or run.returncode:
                problems.append(f"{w} {label}: not correct")
            if not (info(run.stdout, "oracle_self_test") or "").startswith("ok"):
                problems.append(f"{w} {label}: oracle self-test did not pass")
        for name in exact:
            if ra["metrics"][name]["value"] != rb["metrics"][name]["value"]:
                problems.append(f"{w}: exact {name} differs between same-seed runs")
        if info(a.stdout, "stream_hash") != info(b.stdout, "stream_hash"):
            problems.append(f"{w}: same seed gave different input streams")
        if info(a.stdout, "stream_hash") == info(c.stdout, "stream_hash"):
            problems.append(f"{w}: a different seed did not change the stream")
        try:
            check_names(ra, False)
            check_names(rt, True)
        except SystemExit:
            problems.append(f"{w}: metric names differ from BENCHMARK.json")
        print(f"{w}: exact counts compared: {', '.join(exact)}; "
              f"stream {info(a.stdout, 'stream_hash')} vs {info(c.stdout, 'stream_hash')}")
    for p in problems:
        print("SELF-CHECK FAILED:", p)
    print("self-check:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    commit = source_id()
    if args.self_check:
        return self_check(binary, min(args.seconds, 3), commit)
    proc, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, commit)
    check_names(result, args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
