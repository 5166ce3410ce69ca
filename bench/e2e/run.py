#!/usr/bin/env python3
"""Builds vgpu-bench from this checkout's sources, then runs it.

  python3 bench/e2e/run.py --workload spmd_ctl --seed 1 --seconds 15 --trace 0

Every argument passes through to vgpu-bench. The build tree lives under
$CARGO_TARGET_DIR (default: .bench_build at the checkout root) and the
build log goes to stderr, so the last line of standard output is the
benchmark's JSON result. Exits non-zero, printing no result, when the
checkout holds no repository sources to build.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: no repository sources under %s\n" % ROOT)
        return None
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tree = os.path.join(base, "vgpu-bench")
    log = sys.stderr.fileno()
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", tree,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=log) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", tree, "--target", "vgpu-bench",
                        "-j", jobs], stdout=log) != 0:
        return None
    return os.path.join(tree, "vgpu-bench")


def main():
    exe = build()
    if exe is None:
        return 2
    return subprocess.call([exe] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
