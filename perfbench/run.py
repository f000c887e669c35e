#!/usr/bin/env python3
"""Build mlcnn-served and the perfbench binary from source, then run it.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build); cargo output goes to stderr so the benchmark's last stdout
line stays its JSON result. Exits non-zero, without a result, when the sources
it builds from are missing or do not compile.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        print("perfbench: no workspace at " + ROOT, file=sys.stderr)
        return 2
    if not build(root_manifest, "-p", "mlcnn-net", "--bin", "mlcnn-served"):
        return 2
    if not build(os.path.join(HERE, "Cargo.toml")):
        return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--server", os.path.join(release, "mlcnn-served"), *sys.argv[1:]]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
