#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is built from source in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the repository root), then run with the given
arguments. Without --seed, the default seed from perfbench/seeds.json is
used. A traced run (--trace 1) writes its spans to
<target dir>/perfbench-traces/<workload>-seed<seed>.json unless
--trace-out is given. The last line of standard output is the JSON result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def flag_value(args, flag):
    """The value following `flag` in `args`, or None."""
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    if "--help" not in args and flag_value(args, "--seed") is None:
        seeds = json.loads((HERE / "seeds.json").read_text())
        args += ["--seed", str(seeds["default"])]
    if flag_value(args, "--trace") == "1" and flag_value(args, "--trace-out") is None:
        name = f"{flag_value(args, '--workload')}-seed{flag_value(args, '--seed')}.json"
        args += ["--trace-out", str(target / "perfbench-traces" / name)]
    return subprocess.run([str(target / "release" / "perfbench"), *args], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
