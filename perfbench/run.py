"""Seeded end-to-end benchmark for streamcut.

    python3 perfbench/run.py --workload {hp_dense,cl_file,matrix} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; streamcut is imported from ./src.
One process runs one workload as a closed loop: one thread, one job at a
time. It writes the inputs from --seed, runs one warm-up job (discarded),
then timed jobs until --seconds have passed, then checks the answers. The
last line of stdout is one JSON object; the lines before it are a readable
report with quartiles and sample counts. --trace 1 alternates traced and
untraced jobs and reports per-layer metrics instead of end-to-end ones.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3  # input writes per run; setup_s takes their median

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "lambda": "fraction", "rho": "ratio"}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import hostspeed
    import tracing
    import workloads as wl_mod

    import_s = time.perf_counter() - _T0
    wl = wl_mod.WORKLOADS[workload]
    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        prep_s = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            ctx = wl.prepare(seed, work)
            prep_s.append(time.perf_counter() - t)

        def attempt(job_id, recorder=None):
            """One job: (seconds, Answer). Only wl.job is inside the timed region."""
            restore = tracing.install(recorder.wrapper) if recorder else None
            root = None
            if recorder:
                recorder.job = job_id
                root = recorder.open(tracing.JOB)
            t = time.perf_counter()
            try:
                raw, error = wl.job(ctx), None
            except Exception:
                raw, error = None, traceback.format_exc()
            dt = time.perf_counter() - t
            if recorder:
                recorder.close(root)
                restore()
                dt = recorder.spans[root].end - recorder.spans[root].start
            if error:
                print(f"job {job_id} raised:\n{error}", file=sys.stderr)
                return dt, wl_mod.Answer(failures=["exception"])
            return dt, wl.check(ctx, raw)

        snaps = []
        probes = [hostspeed.probe_s()]
        restore = tracing.install(wl_mod.capture_snapshots(snaps),
                                  only={"partitioner.partition_stream"})
        try:
            warm_s, warm = attempt("warmup")
        finally:
            restore()
        probes.append(hostspeed.probe_s())
        setup_wall_s = import_s + statistics.median(prep_s) + warm_s
        setup_s = hostspeed.normalise(setup_wall_s, probes[0], probes[1])

        recorder = tracing.Recorder() if trace else None
        answers, timed, timed_ref, traced_s = [warm], [], [], []
        start = time.perf_counter()
        while len(timed) + len(traced_s) < (2 if trace else 1) \
                or time.perf_counter() - start < seconds:
            job_id = len(timed) + len(traced_s)
            traced = trace and job_id % 2 == 0
            dt, ans = attempt(job_id, recorder if traced else None)
            probes.append(hostspeed.probe_s())
            if traced:
                traced_s.append(dt)
            else:
                timed.append(dt)
                timed_ref.append(hostspeed.normalise(dt, probes[-2], probes[-1]))
            answers.append(ans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # correctness gate, outside the timed region
        expected = next((a.digest for a in answers if a.digest), None)
        for a in answers:
            if a.digest is not None and a.digest != expected:
                a.failures.append("answer differs from the first job's answer")
        gate = wl_mod.snapshot_failures(snaps)
        ref = wl_mod.reference()
        ref_digest = ref.get(workload)
        if seed == ref["default_seed"]:
            default_digest = expected
        else:
            ref_ctx = wl.prepare(ref["default_seed"], work)
            try:
                default_digest = wl.check(ref_ctx, wl.job(ref_ctx)).digest
            except Exception:
                print(traceback.format_exc(), file=sys.stderr)
                default_digest = None
        if default_digest != ref_digest:
            gate.append(f"default-seed digest {default_digest} != reference {ref_digest}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for a in answers if a.failures)
    if gate:
        failed = len(answers)  # every job produced the answer the gate rejected
    for i, a in enumerate(answers):
        for msg in a.failures:
            print(f"job {i - 1 if i else 'warmup'} failed: {msg}", file=sys.stderr)
    for msg in gate:
        print(f"gate failed: {msg}", file=sys.stderr)

    good = next((a for a in answers if not a.failures and a.lam), None)
    lam = statistics.fmean(good.lam) if good else 0.0
    rho = statistics.fmean(good.rho) if good else 0.0
    info = machine_info()
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# setup wall: import {import_s:.3f}s, input write median of {SETUP_REPS} "
          f"{statistics.median(prep_s):.3f}s, warm-up job {warm_s:.3f}s")
    print(f"# host-speed probe: median={statistics.median(probes) * 1000:.2f} ms "
          f"n={len(probes)} (reference {hostspeed.REFERENCE_S * 1000:.0f} ms)")
    e2e = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "lambda": lam, "rho": rho}
    if timed:
        for label, values in (("job wall s", timed), ("job_s", timed_ref)):
            q1, q3 = _quartiles(values)
            print(f"# {label} median={statistics.median(values):.4f} q1={q1:.4f} "
                  f"q3={q3:.4f} n={len(values)} (lower is better)")
        e2e["job_s"] = statistics.median(timed_ref)
    print(f"# setup wall s={setup_wall_s:.4f}")
    for key in ("setup_s", "peak_rss_mb", "lambda", "rho"):
        print(f"# {key}={e2e[key]:.6f} n=1 unit={END_TO_END[key]} (lower is better)")
    print(f"# error_rate={failed}/{len(answers)}={failed / len(answers):.4f} "
          f"(jobs incl. warm-up; lower is better)")

    if not trace:
        result_metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        selfs = tracing.self_times(recorder.spans)
        jobs = sorted({s.job for s in recorder.spans}, key=int)
        layer = tracing.median_over_jobs(
            [tracing.job_layer_metrics(recorder.spans, selfs, j) for j in jobs])
        layer["trace.untraced_job_s"] = statistics.median(timed)
        # traced and untraced jobs alternate; each adjacent pair ran at about
        # the same host speed, so the overhead is the median pair difference
        layer["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_s, timed))
        print(f"# traced jobs={len(traced_s)} untraced jobs={len(timed)}; "
              f"per-layer values are medians over traced jobs")
        for key, value in layer.items():
            unit = tracing.LAYER_UNITS.get(
                key, "s" if key.endswith("_s") else "%" if key.endswith("_pct") else "")
            print(f"# {key}={value:.6g} {unit}")
        out = scratch / f"trace-{workload}-seed{seed}.jsonl"
        with open(out, "w") as fh:
            fh.write(json.dumps({"machine": info, "workload": workload, "seed": seed}) + "\n")
            for s in recorder.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
        print(f"# spans written to {out.relative_to(ROOT)}")
        result_metrics = {k: {"value": layer[k], "unit": u}
                          for k, u in tracing.LAYER_UNITS.items()}
    return {"correct": failed == 0, "attempted": len(answers), "failed": failed,
            "metrics": result_metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("hp_dense", "cl_file", "matrix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "streamcut" / "__init__.py").is_file():
        print(f"error: no streamcut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import streamcut
    if Path(streamcut.__file__).resolve().parent != SRC / "streamcut":
        print(f"error: imported streamcut from {streamcut.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
