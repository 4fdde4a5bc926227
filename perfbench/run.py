"""End-to-end benchmark of the ``fourspaces`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload report --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout and driven in-process
through ``fourspaces.cli.main`` with ``--json --out``, over a corpus built
from ``--seed`` (see corpus.py).  Every answer is checked against NumPy
(see checks.py).  Each run is one untimed warm-up pass and then whole passes
over the corpus until ``--seconds`` have gone by and at least 40 operations
have run.  Times are host-normalised (see hostspeed.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, and the lines before it give the per-layer table and the
tracing overhead.
"""

import os

# before NumPy is imported: one BLAS thread keeps timings steady on a small
# host and makes rank and label decisions reproducible bit for bit
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MIN_OPS = 40
SETUP_STARTS = 11
IMPORT_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import fourspaces.cli"


def load_program():
    """Import ``fourspaces.cli`` from the checkout's sources, and nowhere else."""
    if not (SRC / "fourspaces" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import fourspaces.cli

    if Path(fourspaces.cli.__file__).resolve().parent != SRC / "fourspaces":
        raise SystemExit(f"benchmark: imported fourspaces from {fourspaces.cli.__file__}")
    return fourspaces.cli


def time_setup():
    """Median wall and host-normalised seconds for a fresh interpreter to import the CLI."""
    cmd = [sys.executable, "-I", "-c", IMPORT_CODE]
    subprocess.run(cmd, check=True, cwd=ROOT)  # untimed: settles the file cache
    walls, norms = [], []
    for _ in range(SETUP_STARTS):
        before = hostspeed.probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        wall = time.perf_counter() - t0
        after = hostspeed.probe()
        walls.append(wall)
        norms.append(hostspeed.normalise(wall, (before + after) / 2))
    return statistics.median(walls), statistics.median(norms)


class Runner:
    """Runs operations one at a time, timing and checking each."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.answer = workdir / "answer.json"
        self.records = []
        self.next_id = 0

    def run(self, op, tracer=None):
        op_id = self.next_id
        self.next_id += 1
        self.answer.unlink(missing_ok=True)
        argv = [*op.argv, "--json", "--out", str(self.answer)]
        gc.collect()
        before = hostspeed.probe()
        if tracer is not None:
            tracer.op = op_id
        error = None
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # the program crashed: a failed operation, not a dead run
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        after = hostspeed.probe()
        if error is not None:
            problems = [error]
        else:
            try:
                doc = json.loads(self.answer.read_text())
            except (OSError, ValueError) as exc:
                problems = [f"no readable report: {exc}"]
            else:
                problems = checks.check(op, code, doc)
        probe = (before + after) / 2
        self.records.append({
            "id": op_id,
            "op": op,
            "wall": wall,
            "probe": probe,
            "norm": hostspeed.normalise(wall, probe),
            "problems": problems,
        })

    def passes(self, ops, seconds, tracer=None):
        """Whole passes over ``ops`` until ``seconds`` and MIN_OPS are both reached."""
        first = len(self.records)
        min_passes = math.ceil(MIN_OPS / len(ops))
        start = time.perf_counter()
        done = 0
        while done < min_passes or time.perf_counter() - start < seconds:
            for op in ops:
                self.run(op, tracer)
            done += 1
        return self.records[first:]


def tail(values):
    """Highest percentile with ten values beyond it, and that percentile."""
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def summary(records):
    norms = [r["norm"] for r in records]
    tail_s, tail_pct = tail(norms)
    return {
        "op_s.p50": statistics.median(norms),
        "op_s.tail": tail_s,
        "tail_pct": tail_pct,
        "ops_per_s": len(norms) / sum(norms),
        "wall_p50": statistics.median(r["wall"] for r in records),
        "probe_p50": statistics.median(r["probe"] for r in records),
    }


def judge(records):
    """attempted, failed, and whether every failure is the known fault."""
    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if not r["op"].known_fault]
    for r in unexpected[:5]:
        print(f"UNEXPECTED FAILURE {r['op'].name}: {'; '.join(r['problems'])}")
    if failed:
        kinds = sorted({f"{r['op'].name}: {r['problems'][0]}" for r in failed})
        print(f"failed operations ({len(failed)} of {len(records)}):")
        for line in kinds:
            print(f"  {line}")
    return len(records), len(failed), not unexpected


def run_end_to_end(ops, runner, seconds):
    setup_wall, setup_norm = time_setup()
    records = runner.passes(ops, seconds)
    stats = summary(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"operations: {len(records)} in {len(records) // len(ops)} passes of {len(ops)}")
    print(f"raw wall per op (reference): median {stats['wall_p50']:.6f} s")
    print(f"probe: median {stats['probe_p50'] * 1e3:.4f} ms, "
          f"nominal {hostspeed.NOMINAL_PROBE_S * 1e3:.4f} ms")
    print(f"setup raw wall (reference): median {setup_wall:.6f} s over {SETUP_STARTS} starts")
    print(f"op_s.tail is the p{stats['tail_pct']:.1f} of {len(records)} operations")
    metrics = {
        "setup_s": (setup_norm, "s"),
        "op_s.p50": (stats["op_s.p50"], "s"),
        "op_s.tail": (stats["op_s.tail"], "s"),
        "ops_per_s": (stats["ops_per_s"], "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return records, metrics


def run_traced(ops, runner, seconds, trace_path):
    plain = runner.passes(ops, seconds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.passes(ops, seconds, tracer)
    finally:
        tracer.remove()
    tracer.write(trace_path)
    layers = tracer.per_op({r["id"]: hostspeed.NOMINAL_PROBE_S / r["probe"] for r in traced})
    plain_p50 = summary(plain)["op_s.p50"]
    traced_p50 = summary(traced)["op_s.p50"]
    print(f"per-layer, per operation, over {len(traced)} traced operations:")
    print(f"  {'layer':40s} {'calls':>9s} {'self ms':>10s} {'n3':>12s}")
    for name in sorted(layers):
        entry = layers[name]
        print(f"  {name:40s} {entry['calls']:9.3f} {entry['self_s'] * 1e3:10.3f} "
              f"{entry['n3']:12.0f}")
    print(f"untraced op_s.p50 {plain_p50:.6f} s over {len(plain)} operations")
    print(f"traced op_s.p50 {traced_p50:.6f} s over {len(traced)} operations")
    print(f"tracing overhead (traced - untraced op_s.p50): {traced_p50 - plain_p50:+.6f} s")
    print(f"spans written to {trace_path}")
    metrics = {}
    for metric in tracing.PER_LAYER:
        layer, field = metric.rsplit(".", 1)
        value = layers.get(layer, {}).get(field, 0.0)
        metrics[metric] = (value, tracing.UNITS[field])
    return plain + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    ops = corpus.build(args.workload, args.seed, workdir)
    runner = Runner(cli, workdir)
    for op in ops:  # warm-up pass, not counted
        runner.run(op)
    runner.records.clear()
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        records, metrics = run_traced(ops, runner, args.seconds, trace_path)
    else:
        records, metrics = run_end_to_end(ops, runner, args.seconds)
    attempted, failed, correct = judge(records)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
