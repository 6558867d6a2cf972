#!/usr/bin/env python3
"""Builds the paper-evaluation benchmark from source and runs one workload.

    python3 evalbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds a Release copy of the library plus the
`evalbench` binary under .bench_build/evalbench; later calls only rebuild
what changed. Every argument is forwarded to the binary, which parses them
strictly (see args.cpp) and prints one JSON result as its last stdout line.
Build output goes to stderr so that line stays last.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "evalbench")
BINARY = os.path.join(BUILD, "evalbench")
# A run must end within 180 s; stop the binary in time to say why.
RUN_TIMEOUT_S = 170
# Files whose content defines the measured program, for the source digest.
DIGEST_ROOTS = ("CMakeLists.txt", "include", "src", "evalbench")


# The process group of the child running now, stopped with it on a signal.
_child = None


def fail(msg):
    print("evalbench: " + msg, file=sys.stderr)
    sys.exit(2)


def stop_child():
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()


def run_child(cmd, timeout=None, **kwargs):
    """Runs `cmd` in its own process group; returns its exit code."""
    global _child
    _child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                              **kwargs)
    try:
        return _child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_child()
        fail("%s exceeded %d s and was stopped" % (cmd[0], timeout))
    return 2


def run_logged(cmd):
    """Runs a build step with its output on stderr; fails on a non-zero exit."""
    if run_child(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fprop sources next to " + HERE + "; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_logged(["cmake", "--build", BUILD, "--target", "evalbench", "-j", jobs])


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_ROOTS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, names in os.walk(path) for f in names)
        for f in files:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    def on_signal(signum, _frame):
        stop_child()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    build()
    env = dict(os.environ)
    env["EVALBENCH_SOURCE_DIGEST"] = source_digest()
    env["EVALBENCH_GIT_COMMIT"] = git_commit()
    code = run_child([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S, env=env)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
