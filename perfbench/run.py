"""mmda-lab benchmark: seeded certification workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

A run repeats passes of its workload until ``--seconds`` would be exceeded
(at least three passes, or two untraced/traced pairs).  Each pass imports
``mmda_lab`` afresh from ``src/`` and builds its instances and models (the
set-up), then runs the workload's jobs back to back in this one thread, and
checks every job's verdict.  Timings are medians over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, plus the tracing overhead; the spans go to ``perfbench/.runs``.
The last line of standard output is the result as one JSON object.
"""

import os

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402  (imported once, before any timing)

import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, cli_verdict  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
MODULES = ("scalars", "instances", "reports", "relaxations", "shadow", "integral",
           "rounding", "restricted", "configgap", "scans", "cli")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
MIN_PASSES = 3
#: seconds reference_work() takes on the 2-core Intel Xeon these workloads
#: were sized on; timings are reported at that reference speed
REFERENCE_S = 0.03


def fresh_lab() -> types.SimpleNamespace:
    """Import mmda_lab from src/ with no state left from an earlier pass."""
    for name in [n for n in sys.modules if n == "mmda_lab" or n.startswith("mmda_lab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mmda_lab")
    if Path(pkg.__file__).resolve().parent != SRC / "mmda_lab":
        raise ImportError(f"mmda_lab imported from {pkg.__file__}, not from {SRC}")
    lab = types.SimpleNamespace(**{name: importlib.import_module(f"mmda_lab.{name}")
                                   for name in MODULES})
    lab.package = pkg
    return lab


def reference_work():
    """Fixed pure-Python work that no change to the package can touch:
    Fraction arithmetic on growing big integers, tuple keys and dict updates."""
    acc, x = Fraction(0), Fraction(1, 3)
    for k in range(1, 500):
        acc += x / k
        x *= Fraction(2 * k + 1, 3 * k + 2)
    table = {}
    for i in range(40000):
        key = (i % 101, i % 7)
        table[key] = table.get(key, 0) + i
    return acc, sorted(table.items())


def reference_s() -> float:
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


def run_pass(workload, seed, tiny, tracer, workdir, first_hashes):
    gc.collect()
    ref_before = reference_s()
    t0 = time.perf_counter()
    lab = fresh_lab()
    jobs = WORKLOADS[workload](lab, random.Random(f"{workload}:{seed}"), tiny)
    for job in jobs:
        if job.instance is not None:
            m, rho, eps = job.instance
            lab.instances.build_mmda(lab.instances.make_params(m, rho, epsilon=eps))
    setup = time.perf_counter() - t0
    refs = [ref_before, reference_s()]
    if tracer is not None:
        tracer.reset_pass()
        tracer.install(vars(lab))

    outs = [workdir / f"job{i}.json" for i in range(len(jobs))]
    for out in outs:
        out.unlink(missing_ok=True)
    results, job_s = [], {}
    for job, out in zip(jobs, outs):
        if tracer is not None:
            tracer.set_job(job.name)
        code = direct = err = None
        t = time.perf_counter()
        try:
            if job.call is not None:
                direct = job.call(out)
            else:
                code = lab.cli.main([*job.argv, "--out", str(out)])
        except Exception:  # a job that raises is a failed job, not a crash
            err = traceback.format_exc()
        job_s[job.name] = time.perf_counter() - t
        results.append((code, direct, err))
        refs.append(reference_s())

    # each interval is scaled by the reference time measured on either side
    speed = [REFERENCE_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
    wall = sum(job_s.values())
    job_ref_s = {name: t * s for (name, t), s in zip(job_s.items(), speed[1:])}
    failed = items = report_bytes = 0
    for job, out, (code, direct, err) in zip(jobs, outs, results):
        if err is not None:
            failed += 1
            print(f"[{job.name}] raised:\n{err}", file=sys.stderr)
            continue
        data = out.read_bytes() if out.exists() else b""
        report_bytes += len(data)
        if direct is not None:
            verdict, n = direct
        else:
            report = json.loads(data) if data else None
            verdict, n = cli_verdict(job.argv[0], code, report)
        items += n
        digest = hashlib.sha256(data).hexdigest()
        expected_digest = first_hashes.setdefault(job.name, digest)
        if verdict != job.expect:
            failed += 1
            print(f"[{job.name}] wrong verdict: {verdict} != {job.expect}", file=sys.stderr)
        elif digest != expected_digest:
            failed += 1
            print(f"[{job.name}] report bytes differ from the first pass", file=sys.stderr)
    out = {"traced": tracer is not None,
           "setup_s": setup * speed[0], "wall_s": sum(job_ref_s.values()),
           "job_ref_s": job_ref_s, "raw_setup_s": setup, "raw_wall_s": wall,
           "raw_job_s": job_s, "reference_s": refs,
           "items": items, "report_bytes": report_bytes,
           "attempted": len(jobs), "failed": failed,
           "duration_s": time.perf_counter() - t0}
    if tracer is not None:
        out["layers"] = tracer.pass_metrics(wall, report_bytes)
    return out


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(),
            "thread_caps": {v: os.environ[v] for v in THREAD_CAPS}}


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def median_wall(passes):
    """Sum over jobs of each job's median time, so a burst of noise in one
    pass counts against one job only."""
    return sum(statistics.median(p["job_ref_s"][job] for p in passes)
               for job in passes[0]["job_ref_s"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="m=4 instances and a few points and samples, for the "
                         "benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "mmda_lab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'mmda_lab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    workdir = RUNS / f"{stem}-work-{os.getpid()}"
    workdir.mkdir()
    tracer = spans.Tracer() if args.trace else None
    passes, hashes = [], {}
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(run_pass(args.workload, args.seed, args.tiny,
                                   tracer if traced else None, workdir, hashes))
            step = 2 if tracer is not None else 1
            if len(passes) % step:
                continue
            next_cost = sum(p["duration_s"] for p in passes[-step:])
            enough = len(passes) >= (4 if tracer is not None else MIN_PASSES)
            if enough and time.perf_counter() - start + next_cost > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    if tracer is None:
        values = {
            "setup_s": median_of(plain, "setup_s"),
            "wall_s": median_wall(plain),
            "items_per_s": median_of(plain, "items") / median_wall(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        traced = [p for p in passes if p["traced"]]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name, _ in spans.PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = median_wall(traced) - median_wall(plain)
        units = dict(spans.PER_LAYER)
        written = tracer.write_spans(RUNS / f"{stem}.spans.jsonl")

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "seconds": args.seconds, "environment": env,
              "passes": passes, "report_sha256": hashes, "metrics": values}
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{attempted} jobs, {failed} failed")
    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "plain"
        print(f"  pass {i} {kind:6} setup {p['setup_s']:.4f}s wall {p['wall_s']:.3f}s "
              f"(measured {p['raw_setup_s']:.4f}s, {p['raw_wall_s']:.3f}s) items {p['items']}")
    if tracer is not None:
        print(spans.layer_table(values))
        print(f"trace.overhead_s = {values['trace.overhead_s']:.4f}; {tracer.n_spans()} "
              f"spans, {written} of at least {spans.WRITE_MIN_S}s written")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
