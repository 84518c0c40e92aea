#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ycsb-b --seed 1 --seconds 20 --trace 0

The wrapper compiles the Go benchmark in perfbench/ (its own module, which
uses the store's packages from the repository root) into .bench_build/ and
runs it with the arguments it was given. Everything the Go toolchain writes
(build cache, temporary files) stays under .bench_build/ in the checkout, or
under $CARGO_TARGET_DIR when that is set. The last line of standard output
is the benchmark's JSON result; a failed build or run exits non-zero without
printing one.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Name the source revision: git's commit when the checkout has one,
    otherwise a digest of every Go source and module file."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    ran = subprocess.run([binary, "-commit", source_digest()] + sys.argv[1:], cwd=ROOT, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
