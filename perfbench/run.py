#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run: builds the benchmark if needed, then passes the arguments on.
      The last line of standard output is the result object.
  python3 perfbench/run.py all [--seed N] [--seconds S]
      Every workload once untraced and once traced; prints every metric
      with its unit.
  python3 perfbench/run.py steady [--seconds S] [--out FILE]
      10 rounds, every workload once in each, seed = round number;
      prints median, quartiles and spread of each end-to-end metric
      against its bound, and saves the values to FILE.
  python3 perfbench/run.py compare OLD.json NEW.json
      Compares two `steady` files metric by metric against the bounds.
  python3 perfbench/run.py self-check [--seed N]
      Two traced runs per workload with one seed: every count must
      repeat exactly, and every printed metric name must match
      BENCHMARK.json.

The build goes to $CARGO_TARGET_DIR (default .bench_build).
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop a stuck benchmark before that.
RUN_TIMEOUT_S = 170
# Runs per workload in a `steady` set, as the acceptance rule takes them.
STEADY_RUNS = 10


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def host_env():
    """The toolchain and revision the binary records in its host block."""
    env = dict(os.environ)

    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return "unknown"

    env["PERFBENCH_RUSTC"] = first_line(["rustc", "-V"])
    env["PERFBENCH_GIT_REV"] = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    env["BCP_THREADS"] = "1"
    return env


def run_binary(binary, args, env):
    """Runs the binary; returns (exit code, stdout lines)."""
    try:
        out = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return out.returncode, out.stdout.splitlines()


def one_run(binary, env, workload, seed, seconds, trace):
    """One run's (host block, report, result), or raises on failure."""
    code, lines = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(trace)], env)
    if code != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {code}")
    parsed = [json.loads(l) for l in lines if l.startswith("{")]
    host = next((p["host"] for p in parsed if "host" in p), {})
    report = next((p["report"] for p in parsed if "report" in p), None)
    return host, report, json.loads(lines[-1])


def parse_opts(argv, defaults):
    opts = dict(defaults)
    i = 0
    while i < len(argv):
        key = argv[i].lstrip("-").replace("-", "_")
        if key not in opts or i + 1 >= len(argv):
            sys.exit(f"run.py: unknown or incomplete option {argv[i]}")
        opts[key] = type(defaults[key])(argv[i + 1])
        i += 2
    return opts


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def cmd_all(binary, env, argv):
    spec = benchmark_spec()
    opts = parse_opts(argv, {"seed": 1, "seconds": spec["run_seconds"]})
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        host, report, result = one_run(binary, env, w, opts["seed"], opts["seconds"], 0)
        _, _, traced = one_run(binary, env, w, opts["seed"], opts["seconds"], 1)
        ok &= result["correct"] and traced["correct"]
        print(f"\n== {w}  (seed {opts['seed']}, {report['reps']} reps, "
              f"attempted {result['attempted']}, failed {result['failed']}, "
              f"traced failed {traced['failed']})")
        for name, m in report["metrics"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
        print("  -- per layer (traced run)")
        for name, m in traced["metrics"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"\nhost: {json.dumps(host)}")
    return 0 if ok else 1


def cmd_steady(binary, env, argv):
    spec = benchmark_spec()
    opts = parse_opts(argv, {"seconds": spec["run_seconds"], "out": ""})
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    hosts = []
    failed = 0
    for r in range(1, STEADY_RUNS + 1):
        for w in workloads:
            t0 = time.time()
            host, _, result = one_run(binary, env, w, r, opts["seconds"], 0)
            hosts.append({k: v for k, v in host.items() if k not in ("workload", "seed")})
            failed += result["failed"] + (0 if result["correct"] else 1)
            for k, m in result["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
            print(f"round {r} {w}: {time.time() - t0:.1f} s", file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = failed == 0
    print(f"{'workload':28s} {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for w in workloads:
        for k, vs in values[w].items():
            q1, med, q3, s = spread(vs)
            verdict = "ok" if s < bounds[k] / 3 else ("within" if s <= bounds[k] else "WIDE")
            if s > bounds[k]:
                ok = False
            print(f"{w:28s} {k:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.2%} "
                  f"{bounds[k]:6.2f} {verdict}")
    if any(h != hosts[0] for h in hosts):
        print("hosts differ between runs: the set is not comparable")
        ok = False
    out = opts["out"] or os.path.join(".bench_out", f"steady-{int(time.time())}.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        json.dump({"host": hosts[0] if hosts else {}, "failed": failed, "values": values}, f)
    print(f"failed operations: {failed}; values saved to {out}")
    return 0 if ok else 1


def cmd_compare(argv):
    if len(argv) != 2:
        sys.exit("run.py compare OLD.json NEW.json")
    old, new = (json.load(open(p)) for p in argv)
    ignore = ("git_rev", "seconds")
    ho = {k: v for k, v in old["host"].items() if k not in ignore}
    hn = {k: v for k, v in new["host"].items() if k not in ignore}
    if ho != hn:
        print(f"host changed, not comparable:\n  old {ho}\n  new {hn}")
        return 0
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    worse = False
    for w, metrics in new["values"].items():
        for k, vs in metrics.items():
            if k not in old["values"].get(w, {}):
                continue
            a, b = old["values"][w][k], vs
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            _, _, _, sa = spread(a)
            if sa > bounds[k] and not (max(b) < min(a) or min(b) > max(a)):
                verdict = "unresolved (spread wider than bound)"
            elif change > bounds[k]:
                verdict, worse = "WORSE beyond bound", True
            else:
                verdict = "within bound" if change >= 0 else "better"
            print(f"{w:28s} {k:18s} {ma:12.6g} -> {mb:12.6g} {change:+8.2%}  {verdict}")
    return 1 if worse else 0


def cmd_self_check(binary, env, argv):
    spec = benchmark_spec()
    opts = parse_opts(argv, {"seed": 1})
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        _, _, plain = one_run(binary, env, w, opts["seed"], 1, 0)
        runs = [one_run(binary, env, w, opts["seed"], 1, 1)[2] for _ in range(2)]
        problems = []
        if list(plain["metrics"]) != e2e:
            problems.append(f"end-to-end names {list(plain['metrics'])} != BENCHMARK.json")
        for r in runs:
            if list(r["metrics"]) != list(layers):
                problems.append("per-layer names differ from BENCHMARK.json")
        for r in [plain] + runs:
            if not r["correct"] or r["failed"]:
                problems.append(f"failed operations: {r['failed']}")
        for k, unit in layers.items():
            if unit in ("count", "B"):
                a, b = (r["metrics"][k]["value"] for r in runs)
                if a != b:
                    problems.append(f"{k} did not repeat: {a} vs {b}")
        print(f"{w}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        ok &= not problems
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    mode = argv[0] if argv and not argv[0].startswith("-") else None
    if mode == "compare":
        return cmd_compare(argv[1:])
    if mode not in (None, "all", "steady", "self-check"):
        sys.exit(f"run.py: unknown mode {mode}")
    binary = build()
    if binary is None:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    env = host_env()
    if mode is None:
        code, lines = run_binary(binary, argv, env)
        # A run that failed prints no result line, not even a partial one.
        if code == 0:
            for line in lines:
                print(line)
        return code
    return {"all": cmd_all, "steady": cmd_steady, "self-check": cmd_self_check}[mode](
        binary, env, argv[1:])


if __name__ == "__main__":
    sys.exit(main())
