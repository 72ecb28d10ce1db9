#!/usr/bin/env python3
"""Build and run the spintronic-ff benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark package (perfbench/) is
built in release mode with the repository's own .cargo/config.toml into
$CARGO_TARGET_DIR (default .bench_build), then run with every NVFF_*
variable and every RUSTFLAGS override removed from its environment, so a
run always measures library defaults with telemetry off.

Before the benchmark's own output this prints one provenance line (JSON:
commit, source digest, rustc version, rustflags, CPU model, nproc). The
last line of output is the benchmark's result object. With --workload
all, each workload runs in turn and a table of every metric, by name
with its unit, ends the output instead.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ["table2_full", "wer_shmoo", "table3_measured", "serve_mix"]
# Build-setting overrides that would make this build differ from the
# repository's configured one.
SCRUBBED = {"RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS", "CARGO_BUILD_RUSTFLAGS", "RUSTC_WRAPPER"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("NVFF_") and k not in SCRUBBED
    }
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return env


def command_output(argv, env):
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources, manifests and build config."""
    digest = hashlib.sha256()
    roots = ["crates", "third_party", "perfbench/src"]
    files = ["Cargo.toml", "Cargo.lock", ".cargo/config.toml", MANIFEST, "perfbench/Cargo.lock"]
    for root in roots:
        for directory, dirs, names in os.walk(root):
            dirs.sort()
            files.extend(os.path.join(directory, n) for n in sorted(names))
    for path in files:
        if os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def rustflags():
    """The rustflags line of the repository's .cargo/config.toml."""
    try:
        with open(os.path.join(".cargo", "config.toml")) as f:
            for line in f:
                if line.strip().startswith("rustflags"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(env):
    commit = "unknown"
    if os.path.isdir(".git"):
        commit = command_output(["git", "rev-parse", "HEAD"], env)
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"], env),
        "rustflags": rustflags(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }


def build(env):
    if not os.path.isfile(MANIFEST) or not os.path.isdir("crates"):
        fail("run from the root of a spintronic-ff checkout (crates/ and perfbench/ needed)")
    argv = ["cargo", "build", "--release", "--offline", "--locked", "-q", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(argv, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_one(binary, env, args):
    """Runs one workload; echoes its output and returns its last line."""
    try:
        done = subprocess.run(
            [binary, *args], env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    sys.stdout.write(done.stdout)
    return lines


def table(results):
    """Every metric of every workload, by name with its unit."""
    rows = []
    for workload, lines in results:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]["metrics"] if len(lines) > 1 else {}
        rows.append(
            f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
            f"correct {str(result['correct']).lower()}"
        )
        for name, m in {**result["metrics"], **detail}.items():
            rows.append(f"  {name:<40} {m['value']!s:>24} {m['unit']}")
    return "\n".join(rows)


def main():
    argv = sys.argv[1:]
    try:
        workload = argv[argv.index("--workload") + 1]
    except (ValueError, IndexError):
        fail("--workload <name|all> is required")
    env = clean_env()
    binary = build(env)
    print(json.dumps({"provenance": provenance(env)}), flush=True)
    if workload != "all":
        run_one(binary, env, argv)
        return
    results = []
    for name in WORKLOADS:
        args = list(argv)
        args[args.index("--workload") + 1] = name
        results.append((name, run_one(binary, env, args)))
    print(table(results))


if __name__ == "__main__":
    main()
