"""One pass of a workload in a fresh interpreter, so reflact's lru_cache
constructors and per-object caches start empty, as for a CLI user.

    python3 perfbench/worker.py --probe
        import reflact, parse the golden corpus, then print time.monotonic()
        and the machine's speed (see speed.py)
    python3 perfbench/worker.py --workload W --seed N --trace 0|1 [--spans F]
        run one pass; print its result as one JSON line, with its times
        scaled by the speed sampled while it ran (see speed.py)

reflact is imported from the checkout's src/ directory, never from an
installed copy.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_reflact():
    if not os.path.isfile(os.path.join(SRC, "reflact", "__init__.py")):
        sys.exit("worker: no reflact sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import reflact.cli
    if not os.path.abspath(reflact.__file__).startswith(SRC + os.sep):
        sys.exit("worker: imported reflact from %s" % reflact.__file__)
    return reflact.cli.load_expected()


def run_pass(workload, seed, traced, spans_path):
    import json
    import resource

    expected = _import_reflact()
    import workloads
    from spans import Tracer
    from speed import SpeedProbe

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    p = workloads.Pass(expected, tracer)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        workloads.run(workload, p, seed)
        t1 = time.perf_counter()
    out = {"raw_wall_s": t1 - t0, "wall_s": probe.scaled(t0, t1),
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "ops": [(name, probe.scaled(start, start + secs), ok, detail)
                   for name, start, secs, ok, detail in p.ops]}
    if tracer:
        tracer.uninstall()
        speed = out["wall_s"] / (t1 - t0)
        layers = {name: s * speed for name, s in tracer.self_times(t1).items()}
        out["layers"] = layers
        out["coverage"] = sum(layers.values()) / out["wall_s"]
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"t0": t0, "t1": t1, "spans": tracer.spans}, fh)
        out["counts"] = p.counts()
    if workload == "corpus":
        p.run_probes()
    out["probes"] = p.probes
    print(json.dumps(out))


def main(argv):
    if argv == ["--probe"]:
        _import_reflact()
        ready = time.monotonic()
        from speed import REF_S, sample
        print(ready, sum(REF_S / sample() for _ in range(5)) / 5)
        return
    import argparse
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    run_pass(args.workload, args.seed, args.trace == 1, args.spans)


if __name__ == "__main__":
    main(sys.argv[1:])
