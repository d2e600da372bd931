#!/usr/bin/env python3
"""Benchmark entry point for the Mithril reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list     # workloads and metrics: unit, layer
    python3 perfbench/run.py --check    # decorator identity test, both seeds

The first call configures and builds perfbench/CMakeLists.txt (a
Release build of src/ plus the benchmark programs) under
$CARGO_TARGET_DIR, default .bench_build. Each run works in a fresh
directory under that tree and removes it on exit, failure included.

Stdout ends with one JSON line holding correct, attempted, failed and
metrics: BENCHMARK.json's end_to_end metrics with --trace 0, its
per_layer metrics with --trace 1. The lines before it give each metric
by name and unit, the error rate, the outcome digest against
manifest.json's reference for the seed, and host meta.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FLAGS = ("--workload", "--seed", "--seconds", "--trace")
USAGE = ("usage: run.py --workload NAME --seed N --seconds S --trace 0|1"
         " | --list | --check")
# Once built, a run must end within 180 s; leave room to clean up.
CHILD_TIMEOUT_S = 170


def fatal(message):
    print(f"fatal: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fatal(f"cannot read {path}: {err}")


def parse_uint(flag, text):
    if not text.isdigit():
        fatal(f"{flag} expects a non-negative integer, got '{text}'")
    return int(text)


def parse_args(argv, workloads):
    """Returns (mode, options); anything unrecognized is fatal."""
    if argv in (["--list"], ["--check"]):
        return argv[0][2:], None
    opts = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("--list", "--check"):
            fatal(f"{flag} takes no other arguments")
        if flag not in FLAGS:
            fatal(f"unknown argument '{flag}'; {USAGE}")
        if i + 1 == len(argv):
            fatal(f"{flag} needs a value")
        if flag in opts:
            fatal(f"{flag} given twice")
        opts[flag] = argv[i + 1]
        i += 2
    missing = [flag for flag in FLAGS if flag not in opts]
    if missing:
        fatal(f"missing {', '.join(missing)}; {USAGE}")
    if opts["--workload"] not in workloads:
        fatal(f"unknown workload '{opts['--workload']}'; "
              f"workloads: {', '.join(workloads)}")
    seconds = parse_uint("--seconds", opts["--seconds"])
    if not 1 <= seconds <= 120:
        fatal(f"--seconds must be in [1, 120] so a run ends within "
              f"{CHILD_TIMEOUT_S} s")
    if opts["--trace"] not in ("0", "1"):
        fatal(f"--trace must be 0 or 1, got '{opts['--trace']}'")
    return "run", {"workload": opts["--workload"],
                   "seed": parse_uint("--seed", opts["--seed"]),
                   "seconds": seconds,
                   "trace": int(opts["--trace"])}


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")


def build():
    """Configures once, then builds; returns the CMake build tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim",
                                       "experiment.cc")):
        fatal("the simulator sources (src/) are missing; run from the "
              "root of a full checkout")
    tree = os.path.join(build_root(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = min(4, len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", tree, "-j", str(jobs)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            fatal(f"cannot run {cmd[0]}: {err}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-6000:])
            fatal(f"build step failed: {' '.join(cmd)}")
    return tree


def run_in_scratch(cmd):
    """Runs cmd in a fresh directory that is removed afterwards and
    kills it past CHILD_TIMEOUT_S; returns (exit status, stdout)."""
    runs = os.path.join(build_root(), "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    proc = None
    try:
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fatal(f"{os.path.basename(cmd[0])} did not finish within "
                  f"{CHILD_TIMEOUT_S} s")
        return proc.returncode, out
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def source_digest():
    """sha256 over src/ and perfbench/: names the code when there is no
    git commit to name it."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run(bench, manifest, opts):
    tree = build()
    load_before = os.getloadavg()
    status, out = run_in_scratch([
        os.path.join(tree, "perfbench"),
        "--workload", opts["workload"], "--seed", str(opts["seed"]),
        "--seconds", str(opts["seconds"]), "--trace", str(opts["trace"])])
    load_after = os.getloadavg()
    if status != 0:
        fatal(f"the benchmark program exited with status {status}")
    try:
        child = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fatal("the benchmark program printed no result")
    if child["build_type"] in ("", "Debug"):
        fatal(f"refusing to report an unoptimized build "
              f"('{child['build_type']}')")

    section = "per_layer" if opts["trace"] else "end_to_end"
    metrics = {}
    for metric in bench[section]:
        value = child["metrics"].get(metric["name"])
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fatal(f"the benchmark program reported no number for "
                  f"{metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    attempted, failed = child["attempted"], child["failed"]
    reference = manifest["reference_digests"].get(
        opts["workload"], {}).get(str(opts["seed"]))
    if reference is None:
        verdict = "no reference digest for this seed"
    elif reference == child["digest"]:
        verdict = "matches the reference"
    else:
        verdict = (f"differs from the reference {reference} (reported, "
                   f"not counted as a failure)")
    meta = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "simd": child["simd"],
        "build_type": child["build_type"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }

    print(f"{opts['workload']}, seed {opts['seed']}, {opts['seconds']} s, "
          f"trace {opts['trace']}: {child['inputs']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  acts_per_s takes each sweep job at its fastest of "
          f"{child['metrics']['repetitions']:.0f} repetitions; the median "
          f"repetition ran at {child['metrics']['median_rep_acts_per_s']:.6g}"
          f" ACT/s")
    print(f"  error_rate = {failed / max(attempted, 1):.6g} fraction "
          f"({failed} failed of {attempted} operations)")
    for note in child["failures"]:
        print(f"  failure: {note}")
    print(f"digest {child['digest']}: {verdict}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": bool(child["correct"]) and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def list_metrics(bench, manifest):
    print("workloads:")
    for workload in bench["workloads"]:
        print(f"  {workload['name']:<15} {workload['why']}")
    for dropped in manifest["dropped_workloads"]:
        print(f"dropped: {dropped['name']}: {dropped['reason']}")
    seeds = manifest["seeds"]
    print(f"seeds: development {seeds['development']}, "
          f"held-out {seeds['held_out']}")
    for section in ("end_to_end", "per_layer"):
        print(f"{section} metrics (name, unit, better, layer: "
              f"what it should move):")
        for metric in bench[section]:
            about = manifest["metrics"].get(metric["name"], {})
            print(f"  {metric['name']:<29} {metric['unit']:<11} "
                  f"{metric['better']:<6} {about.get('layer', '?')}: "
                  f"{about.get('moves', '?')}")


def check(bench, manifest):
    """The decorator identity test on both manifest seeds, plus
    BENCHMARK.json and manifest.json naming the same workloads and
    metrics. Returns the exit status."""
    problems = []
    named = {m["name"] for section in ("end_to_end", "per_layer")
             for m in bench[section]}
    described = set(manifest["metrics"])
    problems += [f"metric {n} has no manifest entry"
                 for n in sorted(named - described)]
    problems += [f"manifest metric {n} is not in BENCHMARK.json"
                 for n in sorted(described - named)]
    if {w["name"] for w in bench["workloads"]} != set(manifest["workloads"]):
        problems.append("BENCHMARK.json and manifest.json list different "
                        "workloads")
    tree = build()
    for role in ("development", "held_out"):
        seed = manifest["seeds"][role]
        status, out = run_in_scratch(
            [os.path.join(tree, "perfbench_identity"), "--seed", str(seed)])
        sys.stdout.write(out)
        if status != 0:
            problems.append(f"identity test failed on the {role} seed "
                            f"{seed}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{len(problems)} problem(s)" if problems else "check passed")
    return 1 if problems else 0


def main(argv):
    # SIGTERM becomes SystemExit, so the finally blocks stop the
    # benchmark program and remove its directory.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    mode, opts = parse_args(argv, [w["name"] for w in bench["workloads"]])
    if mode == "list":
        list_metrics(bench, manifest)
    elif mode == "check":
        sys.exit(check(bench, manifest))
    else:
        run(bench, manifest, opts)


if __name__ == "__main__":
    main(sys.argv[1:])
