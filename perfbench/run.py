#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <tpch_lineitem|trips_nested|dashboard_ingest> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that links
the engine crates by path. It is built in release mode into CARGO_TARGET_DIR
(default: perfbench/target), then run with the same arguments. Build output
and the human-readable metric table go to stderr; the last line of stdout is
the JSON result. The exit code is the benchmark's: non-zero when it could not
be built, was misused, or saw a wrong answer or a failed operation.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
