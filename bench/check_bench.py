#!/usr/bin/env python3
"""Validate bench and sweep artifacts, and gate on engine throughput.

CI runs every check below on the artifacts its bench job produces; a
developer can run the same checks on a local build:

  ./build/micro_engine acts=400000 threads=1,4 json=e1.json  # x3
  python3 bench/check_bench.py engine --baseline BENCH_engine.json \\
      e1.json e2.json e3.json
  python3 bench/check_bench.py chrome-trace trace.json
  python3 bench/check_bench.py replay BENCH_replay.ci.json
  python3 bench/check_bench.py shard-invariance s1.json s4.json

A failed check raises AssertionError: the traceback names the check
and the exit status is non-zero.
"""

import argparse
import json
import math

# Gate thresholds. Changing one changes what CI accepts.
SCALING_MIN = 0.9         # threads=4 vs threads=1 sharded throughput
SCHEME_REGRESSION = 0.9   # per-scheme normalized throughput vs baseline
GEOMEAN_REGRESSION = 0.98  # geomean normalized throughput vs baseline


def load(path):
    with open(path) as f:
        return json.load(f)


def check_meta(meta):
    assert meta["hardware_concurrency"] > 0, meta
    assert meta["physical_cores"] > 0, meta
    assert isinstance(meta["cpu_model"], str), meta
    assert meta["threads"] == [1, 4], meta


def check_engine_schema(d):
    assert d["schema"] == "mithril.bench_engine.v4", d["schema"]
    meta = d["meta"]
    check_meta(meta)
    assert meta["logical_cores"] >= meta["physical_cores"], meta
    assert meta["cpu_model"], meta
    assert isinstance(meta["warnings"], list), meta
    assert isinstance(meta["build_type"], str), meta
    assert d["banks"] > 0 and d["acts_per_run"] > 0
    assert d["threads"] == [1, 4], d["threads"]
    assert isinstance(d["results"], list) and d["results"]
    names = {r["scheme"] for r in d["results"]}
    assert {"mithril", "graphene"} <= names, names
    for r in d["results"]:
        assert r["scalar_acts_per_sec"] > 0, r
        assert r["batched_acts_per_sec"] > 0, r
        # Fresh runs only: the committed baseline predates the field.
        assert r["oracle_acts_per_sec"] > 0, r
        assert r["speedup"] > 0, r
        sharded = {p["threads"]: p for p in r["sharded"]}
        assert set(sharded) == {1, 4}, r
        for p in sharded.values():
            assert p["acts_per_sec"] > 0 and p["shards"] > 0, r
            # Phase profile: the three phases are present,
            # non-negative, and the timed run actually spent time
            # dispatching batches.
            for k in ("source_sec", "dispatch_sec", "join_sec"):
                assert p[k] >= 0.0, (r["scheme"], p)
            assert p["source_sec"] + p["dispatch_sec"] > 0.0, \
                (r["scheme"], p)
    print(f"engine schema OK: {len(d['results'])} schemes")


def check_scaling(reps):
    """Sharded-scaling gate: the point of per-shard padding and arenas
    is that threads=4 never runs slower than threads=1 on the same
    sharded partition. Best of the repetitions per scheme and thread
    count, so scheduler noise cannot flake it; skipped on hosts
    without 4 hardware threads, where oversubscribed workers
    legitimately serialize."""
    hw = reps[0]["meta"]["hardware_concurrency"]
    if hw < 4:
        print(f"scaling gate SKIPPED: hardware_concurrency = {hw} < 4")
        return
    best = {}  # (scheme, threads) -> acts/sec
    for rep in reps:
        for r in rep["results"]:
            for p in r["sharded"]:
                k = (r["scheme"], p["threads"])
                best[k] = max(best.get(k, 0.0), p["acts_per_sec"])
    bad = []
    for (scheme, t), v in sorted(best.items()):
        if t == 4 and v < SCALING_MIN * best[(scheme, 1)]:
            bad.append(f"{scheme}: 4t {v:.3g} < {SCALING_MIN} * "
                       f"1t {best[(scheme, 1)]:.3g}")
    assert not bad, "negative shard scaling: " + "; ".join(bad)
    print(f"scaling gate OK: {len({s for s, _ in best})} schemes")


def normalized(doc):
    """Single-thread batched throughput per scheme, divided by the
    untracked 'none' run of the same repetition: absolute acts/sec is
    machine-dependent, the ratio is the tracker's own cost."""
    by = {r["scheme"]: r["batched_acts_per_sec"] for r in doc["results"]}
    none = by.pop("none")
    return {s: v / none for s, v in by.items()}


def geomean(vals):
    return math.exp(sum(map(math.log, vals)) / len(vals))


def check_regression(reps, base):
    """Regression gate: each scheme's normalized throughput, best of
    the repetitions, must stay within 10% of the committed baseline.
    A larger drop means the tracker's hot path (not the host) got
    slower."""
    fresh_n = {}
    for rep in reps:
        for s, v in normalized(rep).items():
            fresh_n[s] = max(fresh_n.get(s, 0.0), v)
    base_n = normalized(base)
    failures = []
    for scheme, b in base_n.items():
        f = fresh_n.get(scheme)
        if f is not None and f < SCHEME_REGRESSION * b:
            failures.append(f"{scheme}: {f:.3f} vs baseline {b:.3f}")
    assert not failures, \
        "single-thread throughput regression >10%: " + "; ".join(failures)
    print("throughput gate OK")

    # Telemetry-off overhead gate: every micro_engine run executes
    # with telemetry disabled, so if the disabled path grew (a hook
    # that is no longer a pointer check), the whole normalized profile
    # sinks together. The 'none' normalization and the best-of cancel
    # per-scheme noise; the geomean across schemes averages what is
    # left, so gate it at 2%.
    fresh_g = geomean(list(fresh_n.values()))
    base_g = geomean([b for s, b in base_n.items() if s in fresh_n])
    assert fresh_g >= GEOMEAN_REGRESSION * base_g, \
        (f"telemetry-off overhead >2%: geomean normalized throughput "
         f"{fresh_g:.4f} vs baseline {base_g:.4f}")
    print(f"telemetry-off overhead gate OK "
          f"({fresh_g:.4f} vs {base_g:.4f})")


def cmd_engine(args):
    reps = [load(p) for p in args.reps]
    for rep in reps:
        check_engine_schema(rep)
    check_scaling(reps)
    check_regression(reps, load(args.baseline))


def cmd_chrome_trace(args):
    """What Perfetto needs: parseable JSON, a traceEvents list, and
    per-(pid, tid) track timestamps that never go backwards."""
    events = load(args.trace)["traceEvents"]
    assert isinstance(events, list) and events
    meta = [e for e in events if e.get("ph") == "M"]
    real = [e for e in events if e.get("ph") != "M"]
    assert any(e["name"] == "process_name" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)
    assert real, "traced run emitted no mitigation events"
    last = {}
    for e in real:
        assert e["ph"] in ("i", "X"), e
        assert e["ts"] >= 0 and "name" in e, e
        track = (e["pid"], e["tid"])
        assert e["ts"] >= last.get(track, 0.0), \
            ("ts went backwards on track", track, e)
        last[track] = e["ts"]
    print(f"{args.trace} OK: {len(real)} events on "
          f"{len(last)} bank tracks")


def cmd_replay(args):
    d = load(args.artifact)
    assert d["schema"] == "mithril.bench_replay.v4", d["schema"]
    check_meta(d["meta"])
    assert d["system"]["acts"] > 0
    assert d["system"]["acts_per_sec"] > 0
    assert d["trace"]["records"] == d["system"]["acts"]
    assert d["trace"]["bytes"] > 0
    corpora = d["corpora"]
    widths = [c["tenants"] for c in corpora]
    assert widths[0] == 16, widths
    assert 1024 in widths, widths
    for corpus in corpora:
        assert corpus["records"] > d["trace"]["records"], corpus
        assert corpus["bytes"] > 0 and corpus["attack"], corpus
        assert corpus["loops"] >= 1, corpus
        assert corpus["compose_seconds"] > 0, corpus
        pts = {p["threads"]: p for p in corpus["replay"]}
        assert set(pts) == {1, 4}, pts
        for p in pts.values():
            assert p["acts_per_sec"] > 0, p
        # micro_replay fatal()s on divergence, so reaching here
        # already proves every thread count replayed the corpus to
        # one outcome; the speedup just documents the
        # capture-once-replay-many ratio.
        print(f"tenants={corpus['tenants']} OK:",
              f"composed in {corpus['compose_seconds']:.2f} s,",
              f"{pts[1]['speedup_vs_system']:.1f}x vs System")


def sweep_metrics(path):
    out = {}
    for j in load(path)["jobs"]:
        m = j["metrics"]
        out[j["scheme"]] = tuple(
            m[k] for k in sorted(m) if isinstance(m[k], (int, float)))
    return out


def cmd_shard_invariance(args):
    """Two sweeps of one corpus at different shard counts: every
    scheme's numeric metrics must match exactly."""
    a = sweep_metrics(args.a)
    b = sweep_metrics(args.b)
    assert set(a) == set(b) and len(a) >= 10, sorted(a)
    diverged = [s for s in a if a[s] != b[s]]
    assert not diverged, f"shard-variant schemes: {diverged}"
    print(f"corpus sweep OK: {len(a)} schemes, {args.a} == {args.b}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("engine", help="micro_engine schema + gates")
    p.add_argument("--baseline", required=True,
                   help="committed BENCH_engine.json to gate against")
    p.add_argument("reps", nargs="+",
                   help="micro_engine json= outputs, one per repetition")
    p.set_defaults(func=cmd_engine)

    p = sub.add_parser("chrome-trace", help="trace-events= output")
    p.add_argument("trace")
    p.set_defaults(func=cmd_chrome_trace)

    p = sub.add_parser("replay", help="micro_replay json= output")
    p.add_argument("artifact")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("shard-invariance",
                       help="two sweep_cli json= outputs of one corpus")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_shard_invariance)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
