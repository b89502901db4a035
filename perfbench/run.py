"""Repository benchmark: greedy vs speculative decoding, and the build pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload decode-spec --seed 1 --seconds 40 --trace 0

Workloads (BENCHMARK.json lists the measured ones and why each is there):

- ``decode-spec``: ``specdec.speculative_decode`` at K=3 with the
  language-tagged compressed vocabularies over a seeded, shuffled
  request list on the fixed stack in ``perfbench/stack``; each output is
  compared token for token with its greedy reference from set-up.
- ``build-pipeline``: pretrain-main, distill, dedup, train-head and
  build-vocab x5 through ``cli.main`` under a reduced config, then the
  new head's tau at K=3.
- ``decode-greedy``: ``specdec.baseline_decode`` over the same request
  list, the control that bypasses drafting. It runs by hand but is not
  in BENCHMARK.json: the repeated runs of a third workload, at a run
  length long enough to be steady, would not fit the time allowed for
  the whole set of runs.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics. End-to-end times are scaled to a nominal host speed
by a reference computation timed between units of work (see
``refclock``); per-layer times are as measured. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller result, with the environment and
the unscaled end-to-end metrics, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("decode-greedy", "decode-spec", "build-pipeline")


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
    }


def make_workload(name: str, seed: int):
    import workloads as wl

    if name == "decode-greedy":
        return wl.DecodeGreedy(seed)
    if name == "decode-spec":
        return wl.DecodeSpec(seed)
    return wl.BuildPipeline(seed, OUT_DIR / f"work-{os.getpid()}")


def check_earlier_digest(path: Path, digest: str, run) -> None:
    """The output digest must repeat across runs with the same seed."""
    if not path.is_file():
        return
    earlier = json.loads(path.read_text()).get("digest")
    if earlier is not None and earlier != digest:
        run.fail(f"output digest differs from the earlier run recorded in {path.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mtpspec").is_dir() or not spec_path.is_file():
        print(f"no mtpspec sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import refclock
    import workloads as wl

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    try:
        run = wl.measure(workload, args.seconds, layers.targets() if args.trace else None)
    except wl.BenchError as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}"
    digest = run.passes[0].digest
    check_earlier_digest(OUT_DIR / f"{stem}-trace{1 - args.trace}.json", digest, run)
    check_earlier_digest(OUT_DIR / f"{stem}-trace{args.trace}.json", digest, run)

    e2e = wl.end_to_end_metrics(run)
    values = dict(e2e)
    breakdown = None
    if args.trace:
        values, breakdown = layers.per_layer_metrics(run, wl.K_DEPTH)
        run.tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl.gz")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    plain = [p for p in run.passes if not p.traced]
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}

    detail = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "error_rate": run.failed / run.attempted,
        "errors": run.errors,
        "digest": digest,
        "end_to_end": e2e,
        "end_to_end_unscaled": wl.end_to_end_metrics(run, scale=False),
        "reference_ms": {"nominal": refclock.NOMINAL_NS / 1e6,
                         "median": statistics.median(run.clock.samples) / 1e6,
                         "samples": len(run.clock.samples)},
        "requests": len({k for p in plain for k, *_ in p.samples if isinstance(k, int)}),
        "units_timed": sum(len(p.samples) for p in plain),
        "passes": [{"s": p.ns / 1e9, "traced": p.traced, "units": len(p.samples)}
                   for p in run.passes],
        "setup_s": [ns / 1e9 for ns in run.setup_ns],
        "setup_reference_ms": [ns / 1e6 for ns in run.setup_ref_ns],
        "exact_counters": run.passes[0].counters,
        "trace_breakdown": breakdown,
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
