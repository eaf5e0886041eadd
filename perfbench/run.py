"""reflact benchmark: one run of one workload, checked, as one JSON line.

    python3 perfbench/run.py --workload ladder|corpus|groups --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in its own fresh
single-threaded worker process (perfbench/worker.py), one at a time, so the
program's caches start empty as they do for a CLI user.

--trace 0  setup probes, then cold passes until --seconds is used up (at
           least one); prints the end-to-end metrics of BENCHMARK.json,
           each a median over the passes (setup_s over the probes).

Times are scaled to the machine's reference speed (perfbench/speed.py), so
that load from other tenants of a shared machine does not show as a change;
the raw seconds are printed too.
--trace 1  one untraced and one traced pass; prints the per-layer metrics
           of BENCHMARK.json and writes the spans to perfbench/traces/.

The seed only permutes the order of a workload's cases; seed 0 keeps the
listed order.  The last line of stdout is the result object; a failed
worker or a run that cannot finish in time exits non-zero without one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 15
RUN_LIMIT_S = 170.0


def _worker(args, deadline):
    """Run the worker to completion and return the last line it printed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker %s exited %d: %s"
                           % (" ".join(args), proc.returncode,
                              proc.stderr.strip()[-3000:]))
    return lines[-1]


def setup_samples(deadline):
    """Seconds from spawning an interpreter until reflact is imported and
    the golden corpus is parsed (time.monotonic is system-wide on Linux),
    raw and scaled by the speed the probe measured right after."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t = time.monotonic()
        ready, speed = map(float, _worker(["--probe"], deadline).split())
        raw.append(ready - t)
        scaled.append((ready - t) * speed)
    return raw, scaled


def one_pass(workload, seed, traced, deadline, spans=None):
    args = ["--workload", workload, "--seed", str(seed),
            "--trace", "1" if traced else "0"]
    if spans:
        args += ["--spans", spans]
    return json.loads(_worker(args, deadline))


def timed_passes(workload, seed, seconds, deadline):
    """Cold passes while the next one is expected to end within --seconds."""
    passes, durations = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(one_pass(workload, seed, False, deadline))
        durations.append(time.monotonic() - t)
        guess = statistics.median(durations)
        now = time.monotonic()
        if now - start + guess > seconds or now + guess > deadline:
            return passes


def _p90(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def end_to_end(passes, setup):
    """Medians over passes; the worker has scaled every time already."""
    def median(f):
        return statistics.median(f(p) for p in passes)

    return {"wall_s": median(lambda p: p["wall_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": median(lambda p: p["peak_rss_mib"]),
            "case_p90_s": median(lambda p: _p90([op[1] for op in p["ops"]]))}


def per_layer(plain, traced):
    values = dict(traced["layers"])
    values["case_p50_s"] = statistics.median(op[1] for op in plain["ops"])
    values.update(traced["counts"])
    values["cli.probes"] = len(traced["probes"])
    values["cli.probe_failures"] = sum(not ok for _, ok, _ in traced["probes"])
    values["trace.coverage"] = traced["coverage"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return values


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %r" % args.workload)

    if args.trace:
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        spans = os.path.join(HERE, "traces", "%s-seed%d.json"
                             % (args.workload, args.seed))
        plain = one_pass(args.workload, args.seed, False, deadline)
        traced = one_pass(args.workload, args.seed, True, deadline, spans)
        passes = [plain, traced]
        values = per_layer(plain, traced)
        wanted = spec["per_layer"]
        print("spans written to %s" % os.path.relpath(spans, ROOT))
    else:
        raw_setup, setup = setup_samples(deadline)
        passes = timed_passes(args.workload, args.seed, args.seconds, deadline)
        values = end_to_end(passes, setup)
        wanted = spec["end_to_end"]
        print("raw: setup_s %.4f, wall_s %s"
              % (statistics.median(raw_setup),
                 " ".join("%.3f" % p["raw_wall_s"] for p in passes)))

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op[2]]
    print("workload %s, seed %d: %d pass(es), %d ops, %d failed"
          % (args.workload, args.seed, len(passes), len(ops), len(failed)))
    for name, _, _, detail in failed:
        print("FAIL %s: %s" % (name, detail))
    for argv_, ok, detail in passes[-1]["probes"]:
        print("probe %s reflact %s%s" % ("ok  " if ok else "FAIL",
                                         " ".join(argv_),
                                         "" if ok else ": %s" % detail))
    metrics = {}
    for m in wanted:
        # a timing layer that this workload never enters has no spans
        value = values.get(m["name"], 0.0 if m["unit"] == "s" else None)
        if value is None:
            raise KeyError("no value for metric %s" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-28s %.6g %s" % (m["name"], value, m["unit"]))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            KeyError, ValueError, OSError) as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        sys.exit(1)
