"""Benchmark of the l2srl experiment loop on seeded synthetic data.

    python3 perfbench/run.py --workload tag --seed 1 --seconds 35 --trace 0

Runs one workload (``tag``, ``retrain``, ``analyze``, or ``all`` for each in
a fresh interpreter) against the library in the checkout's ``src``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it prints
the per-layer metrics of a traced run and writes the spans under
``perfbench/out``.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

from tracing import NULL, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
NAMES = ("tag", "retrain", "analyze")
SETUP_REPEATS = 5
MIN_PASSES = 3
REFERENCE_S = 0.05  # nominal duration of reference_work on an unloaded core


def load_json(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as f:
        return json.load(f)


def environment():
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
    }


def reference_work():
    """Fixed pure-Python work in the library's style: tuple-keyed dict
    lookups, small calls, comprehensions and string building."""
    table = {(f"f{i}", j): i ^ j for i in range(200) for j in range(20)}

    def score(key, j):
        return table.get((key, j), 0)

    keys = [f"f{i}" for i in range(250)]
    total = 0
    for _ in range(40):
        for key in keys:
            total += sum(score(key, j) for j in range(20))
        total += len("".join([f"{key}|{total % 7}" for key in keys]))
    return total


def reference_seconds():
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def calibrated(fn):
    """Run ``fn``; return (its seconds at reference speed, the scale, its result).

    The machine's speed is taken from reference_work timed just before and
    just after, so a slow spell of a shared host scales both alike.
    """
    gc.collect()
    before = reference_seconds()
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    scale = REFERENCE_S / ((before + reference_seconds()) / 2)
    return seconds * scale, scale, result


def run_pass(wl):
    """One pass's output, or the exception it raised."""
    try:
        return wl.run_pass()
    except Exception as exc:  # a failed operation; the run goes on
        return exc


def check(wl, ck, out):
    """Check a pass's output; a check that raises counts as one failure."""
    if isinstance(out, Exception):
        ck.op("pass", False, repr(out))
        return
    try:
        wl.check(out, ck)
    except Exception as exc:  # a library fault seen while checking
        ck.op("check", False, repr(exc))


def until(seconds, step):
    """Call ``step`` at least MIN_PASSES times, then while the next call
    is expected to end before ``seconds`` have passed."""
    deadline = perf_counter() + seconds
    cycles = []
    while len(cycles) < MIN_PASSES or perf_counter() + statistics.median(cycles) <= deadline:
        start = perf_counter()
        step()
        cycles.append(perf_counter() - start)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, ck, seconds):
    """Set up SETUP_REPEATS times, then time passes for ``seconds``."""
    setups = [calibrated(wl.setup)[0] for _ in range(SETUP_REPEATS)]
    wl.check_setup(ck)
    walls, sentences = [], []

    def step():
        wall, scale, out = calibrated(lambda: run_pass(wl))
        walls.append(wall)
        sentences.extend(x * scale for x in wl.latencies)
        check(wl, ck, out)

    until(seconds, step)
    wall = statistics.median(walls)
    if not sentences:
        sentences = [w / wl.sentences_per_pass for w in walls]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    notes = [
        f"setup_s: median of {len(setups)} set-ups",
        f"wall_s: median of {len(walls)} passes, quartiles "
        f"{quantile(walls, 25):.4f} .. {quantile(walls, 75):.4f} s",
        f"sentence_ms: {len(sentences)} samples",
    ]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "tokens_per_s": (wl.tokens_per_pass / wall, "tokens/s"),
        "sentence_ms_p50": (1e3 * statistics.median(sentences), "ms"),
        "sentence_ms_p90": (1e3 * quantile(sentences, 90), "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }, notes


def traced(wl, ck, seconds, trace_path, header):
    """Traced set-up, then untraced and traced passes in turn.

    Per-layer values are the traced set-up's totals plus the mean of the
    traced passes; ``trace.overhead_ratio`` compares the two kinds of pass.
    """
    from workloads import install_wrappers

    tracer = Tracer()
    setup, passes = Counter(), Counter()
    plain, spanned = [], []

    def traced_run(fn):
        install_wrappers(tracer)
        wl.tr = tracer
        try:
            return fn()
        finally:
            tracer.unwrap()
            wl.tr = NULL

    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        traced_run(wl.setup)
        wl.check_setup(ck)
        setup.update(tracer.totals())
        tracer.flush(fh, "setup")

        def step():
            wall, _, out = calibrated(lambda: run_pass(wl))
            plain.append(wall)
            check(wl, ck, out)
            wall, _, out = calibrated(lambda: traced_run(lambda: run_pass(wl)))
            spanned.append(wall)
            if not isinstance(out, Exception):
                tracer.add(wl.counts(out))
            check(wl, ck, out)
            passes.update(tracer.totals())
            tracer.flush(fh, f"pass{len(spanned)}")

        until(seconds, step)
    notes = [f"{len(spanned)} traced and {len(plain)} untraced passes; spans in {trace_path}"]
    for key, value in passes.items():
        setup[key] += value / len(spanned)
    overhead = statistics.median(spanned) / statistics.median(plain)
    return layer_metrics(setup, overhead), notes


def measure(name, params, seed, seconds, trace, recorded=None):
    """Run one workload; returns (result object, human-readable lines)."""
    import workloads  # imports l2srl, so only once main has put src on the path

    header = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              **environment()}
    ck = workloads.Checker(recorded)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as workdir:
        wl = workloads.WORKLOADS[name](params, seed, workdir)
        if trace:
            path = os.path.join(OUT, f"trace-{name}.jsonl")
            metrics, notes = traced(wl, ck, seconds, path, header)
        else:
            metrics, notes = end_to_end(wl, ck, seconds)
    lines = [" ".join(f"{k}={v}" for k, v in header.items())]
    lines += [f"{key:<28} {value:>14.6g} {unit}" for key, (value, unit) in metrics.items()]
    ratio = ck.failed / ck.attempted if ck.attempted else 1.0
    lines.append(f"{'fail_ratio':<28} {ratio:>14.6g} ratio ({ck.failed} of {ck.attempted} "
                 "operations failed)")
    lines += notes + [f"FAILED {m}" for m in ck.messages[:20]]
    result = {
        "correct": ck.attempted > 0 and ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        for name in NAMES:
            argv = ["--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, __file__] + argv).returncode
            if code:
                return code
        return 0
    if not os.path.isfile(os.path.join(SRC, "l2srl", "__init__.py")):
        print(f"perfbench: the l2srl sources are missing from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    recorded = load_json("digests.json")[args.workload] if args.seed == 1 else None
    result, lines = measure(args.workload, load_json("workloads.json")[args.workload],
                            args.seed, args.seconds, args.trace, recorded)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
