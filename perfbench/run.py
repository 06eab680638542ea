#!/usr/bin/env python3
"""Build and run the PBIO end-to-end stream benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hetero-10k-direct --seed 1 --seconds 20 --trace 0

The harness is a Go module of its own (perfbench/go.mod) that uses the
repository's packages through a replace directive, so it builds only next
to the repository's source.  Every build artifact and cache goes under
.bench_build/ in the working directory.  The harness's output is passed
through unchanged; its last line is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys


def source_id(root):
    """The git commit when the root is a checkout, else a content hash."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               HOME=home, XDG_CONFIG_HOME=os.path.join(home, ".config"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOMODCACHE=os.path.join(build, "gopath", "mod"),
               GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local",
               GOWORK="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: standard output carries only results.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    proc = subprocess.run([binary,
                           "-workload", args.workload,
                           "-seed", str(args.seed),
                           "-seconds", str(args.seconds),
                           "-trace", str(args.trace),
                           "-commit", source_id(root)], cwd=root)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
