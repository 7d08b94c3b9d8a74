#!/usr/bin/env python3
"""Build the servers and the benchmark client from source, then run one
benchmark run and pass its output through.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`). The last line of stdout is the run's result object.
"""
import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The servers under test, from the repository's own workspace.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "privmech-serve", "--bins"],
        # The client, a workspace of its own that depends on it by path.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(command, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    client = [
        os.path.join(release, "perfbench"),
        "--serve-bin", os.path.join(release, "privmech-serve"),
        "--router-bin", os.path.join(release, "privmech-router"),
    ] + sys.argv[1:]
    # The client's servers share its process group, so a hung or stopped run
    # is stopped whole.
    proc = subprocess.Popen(client, cwd=root, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
