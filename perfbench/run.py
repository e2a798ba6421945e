#!/usr/bin/env python3
"""Build and run the spg-cnn benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark crate in ``perfbench/`` (release, offline) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then runs it with the
same arguments. The benchmark's last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; its
exit code is passed through. Build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark itself must end well within three minutes.
RUN_TIMEOUT_S = 175


def tool_output(cmd):
    """First line a tool prints, or 'unknown' when it cannot run."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip().splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "-V"])
    root = os.path.dirname(HERE)
    # Only a checkout that is itself a git repository has a revision;
    # git must not search the directories above it.
    rev = ["git", "-C", root, "rev-parse", "HEAD"]
    has_git = os.path.exists(os.path.join(root, ".git"))
    env["PERFBENCH_GIT_REV"] = tool_output(rev) if has_git else "unknown"
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
