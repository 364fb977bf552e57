"""Benchmark of hcl's workflows.

    python3 bench/run.py --workload {cli-1e6,library-1e7,holproj} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program under test is imported
from `src/`.  Each run sets up three times (setup_s is the median), then
runs whole rounds of its workload until S seconds of timed work have passed,
and checks every output.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, taken
from one more, traced round.  A record of the run (machine, versions, seed,
counts, metrics, problems) is written to .bench_out/, and a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3

END_TO_END = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "first_answer_s"]
# per-layer span totals: metric -> span name
SPAN_METRICS = {
    "hurwitz.build_table_s": "hurwitz.build_table",
    "hurwitz.write_table_csv_s": "hurwitz.write_table_csv",
    "hurwitz.read_table_csv_s": "hurwitz.read_table_csv",
    "congruence.verify_congruence_s": "congruence.verify_congruence",
    "congruence.search_s": "congruence.search",
    "congruence.square_class_check_s": "congruence.square_class_check",
    "dichotomy.classify_s": "dichotomy.classify",
    "dichotomy.enumerate_representations_s": "dichotomy.enumerate_representations",
    "qseries.eisenstein_hol_s": "qseries.eisenstein_hol",
    "qseries.u_operator_s": "qseries.u_operator",
    "qseries.theta_series_s": "qseries.theta_series",
    "qseries.product_s": "qseries.product",
    "holproj.exact_projection_coefficient_s": "holproj.exact_projection_coefficient",
    "holproj.nonhol_coefficient_s": "holproj.nonhol_coefficient",
    "holproj.proj_theta_product_s": "holproj.proj_theta_product",
    "holproj.q_subset_decomposition_s": "holproj.q_subset_decomposition",
    "holproj.subprogression_s": "holproj.subprogression",
}
COUNT_METRICS = [
    "congruence.values_checked",
    "congruence.residues_scanned",
    "congruence.certificates",
    "dichotomy.rows",
    "qseries.terms",
]
LAYERS = ["cli", "hurwitz", "congruence", "dichotomy", "qseries", "holproj"]
CLI_METRICS = [
    "cli.cold_cmd_s",
    "cli.startup_s",
    "cli.verify_p50_s",
    "cli.search_p50_s",
    "cli.dichotomy_p50_s",
    "cli.warm_cmd_p50_s",
    "cli.child_peak_rss_mb",
]
PER_LAYER = (
    CLI_METRICS
    + list(SPAN_METRICS)
    + COUNT_METRICS
    + ["hurwitz.table_mb", "hurwitz.cache_mb", "hurwitz.build_rate_D_per_s", "arith.first_use_s"]
    + [f"{layer}.self_s" for layer in LAYERS]
    + ["trace.overhead_s"]
)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "D/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    return "count"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def machine_info(workload: str, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_rounds(wl, mode, seconds, tracer=None, count=None):
    """Whole rounds until `seconds` of timed work have passed, or exactly `count` rounds."""
    rounds = []
    while (count is None and (not rounds or sum(r.wall for r in rounds) < seconds)) or (
        count is not None and len(rounds) < count
    ):
        rounds.append(wl.run_round(mode, tracer))
    return rounds


def end_to_end(wl, rounds, setup_times) -> dict:
    n = len(rounds)
    if wl.inproc_replay:
        peak = max(r.child_peak_mb for r in rounds)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": median(setup_times),
        "wall_s": sum(r.wall for r in rounds) / n,
        "cpu_s": sum(r.cpu for r in rounds) / n,
        "peak_rss_mb": peak,
        "first_answer_s": median(r.first_answer for r in rounds),
    }


def per_layer(wl, base, plain, traced, tracer, first_uses) -> dict:
    n = len(traced)
    spans = tracer.durations()
    metrics = {m: spans.get(s, 0.0) / n for m, s in SPAN_METRICS.items()}
    for m in COUNT_METRICS:
        metrics[m] = tracer.counts.get(m, 0) / n
    metrics["hurwitz.table_mb"] = tracer.counts.get("hurwitz.table_mb", 0.0)
    metrics["hurwitz.cache_mb"] = tracer.counts.get("hurwitz.cache_mb", 0.0)
    build_s = spans.get("hurwitz.build_table", 0.0)
    metrics["hurwitz.build_rate_D_per_s"] = tracer.counts.get("hurwitz.built_D", 0) / build_s if build_s else 0.0
    selfs = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0) / n
    metrics["arith.first_use_s"] = median(first_uses)
    walls = {}
    for r in base if wl.inproc_replay else []:
        for kind, values in r.child_walls.items():
            walls.setdefault(kind, []).extend(values)
    metrics["cli.cold_cmd_s"] = median(walls["cold"]) if walls else 0.0
    metrics["cli.startup_s"] = median(walls["subprogression"]) if walls else 0.0
    for kind in ("verify", "search", "dichotomy"):
        metrics[f"cli.{kind}_p50_s"] = median(walls[kind]) if walls else 0.0
    metrics["cli.warm_cmd_p50_s"] = median(w for r in base for w in r.warm) if walls else 0.0
    metrics["cli.child_peak_rss_mb"] = max(r.child_peak_mb for r in base) if wl.inproc_replay else 0.0
    metrics["trace.overhead_s"] = sum(r.wall for r in traced) / n - sum(r.wall for r in plain) / len(plain)
    return {name: metrics[name] for name in PER_LAYER}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "hcl" / "__init__.py").is_file():
        fail(f"no program to measure: {src / 'hcl'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hcl

    if src.resolve() not in Path(hcl.__file__).resolve().parents:
        fail(f"imported hcl from {hcl.__file__}, not from {src}")
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload}; choose from {sorted(WORKLOADS)}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, scratch)
        setup_times, first_uses = [], []
        for _ in range(SETUPS):
            t0 = perf_counter()
            first_uses.append(wl.prepare())
            setup_times.append(perf_counter() - t0)
        base = run_rounds(wl, "spawn", args.seconds)
        all_rounds = list(base)
        if args.trace:
            replay = "inproc" if wl.inproc_replay else "spawn"
            plain = run_rounds(wl, replay, 0, count=1) if wl.inproc_replay else base
            tracer = Tracer()
            with tracer.patched():
                traced = run_rounds(wl, replay, 0, tracer, count=1)
            all_rounds += (plain if wl.inproc_replay else []) + traced
            metrics = per_layer(wl, base, plain, traced, tracer, first_uses)
            tracer.write(out_dir / f"{tag}-spans.json.gz")
        else:
            metrics = end_to_end(wl, base, setup_times)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [p for r in all_rounds for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        **machine_info(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(base),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "setup_times_s": setup_times,
        "problems": problems[:50],
        "metrics": metrics,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
