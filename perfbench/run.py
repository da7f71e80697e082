#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles
the library from ../src) and runs one workload:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR if
set, else .bench_build/.  The last line of standard output is the
result JSON printed by xtbench; build output goes to standard error.

    python3 perfbench/run.py --selftest

runs the benchmark's self-tests (percentile rule, self-time arithmetic,
correctness gate) and a short smoke run of all five workloads, traced
and untraced.
"""

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-hot", "serve-cold", "serve-routed", "session-churn", "bulk-ingest"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds; returns the build directory or None."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "xtbench", "xtbench_selftest"])
    for cmd in steps:
        t0 = time.time()
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({' '.join(cmd[:2])}), exit {proc.returncode}")
            return None
        log(f"{' '.join(cmd[:2])} took {time.time() - t0:.1f} s")
    return bdir


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run(cmd, timeout=RUN_TIMEOUT_S, echo=True):
    """Runs xtbench to completion; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"xtbench timed out after {timeout} s")
        return 124, []
    lines = out.splitlines()
    if echo and lines:
        print("\n".join(lines), flush=True)
    return proc.returncode, lines


def xtbench_cmd(bdir, args):
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    return [os.path.join(bdir, "xtbench"), *args, "--workdir", work, "--commit", commit()]


def selftest(bdir):
    failures = 0
    code, _ = run([os.path.join(bdir, "xtbench_selftest")], timeout=300)
    if code != 0:
        failures += 1
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run(xtbench_cmd(bdir, ["--workload", w, "--seed", "7", "--seconds", "0.5",
                                                "--trace", trace, "--smoke"]),
                              echo=False)
            ok = code == 0 and lines and lines[-1].startswith('{"correct": true')
            print(f"smoke {w} trace={trace}: {'ok' if ok else 'FAILED (exit %d)' % code}", flush=True)
            if not ok:
                print("\n".join(lines[-20:]))
                failures += 1
    print(f"selftest: {'PASS' if failures == 0 else '%d FAILED' % failures}")
    return 0 if failures == 0 else 1


def main(argv):
    bdir = build()
    if bdir is None:
        return 1
    if argv[:1] == ["--selftest"]:
        return selftest(bdir)
    code, lines = run(xtbench_cmd(bdir, argv))
    if code == 0 and (not lines or not lines[-1].startswith("{")):
        log("xtbench printed no result")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
