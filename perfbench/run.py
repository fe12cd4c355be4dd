#!/usr/bin/env python3
"""Builds and runs the end-to-end CliqueMap benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 20 --trace 0

The first run configures and compiles perfbench/ (which compiles the
repository's libraries from src/) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later runs only rebuild what
changed. Build output goes to stderr. The benchmark's own output goes to
stdout; its last line is the JSON result. The exit code is the benchmark's,
or 1 when the build fails.
"""
import os
import shutil
import subprocess
import sys

# A run measures for --seconds (at most 60) plus set-up; anything near this
# limit is a hang.
RUN_TIMEOUT_S = 170


def run(cmd, **kwargs):
    """Runs cmd to completion; its stdout goes to our stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)


def build(root):
    source = os.path.join(root, "perfbench")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run(configure).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "-j", jobs,
            "--target", "cm_perfbench"]).returncode != 0:
        return None
    return os.path.join(build_dir, "cm_perfbench")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
