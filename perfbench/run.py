"""Benchmark of heckefuse: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload table --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``./src``.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  The line before it is the full record (machine, samples,
tail percentile), also written to ``.perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads so the pin takes effect.
BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10        # samples that must lie above the tail percentile
# End-to-end times are reported at the host speed where reference_kernel()
# takes K_REF seconds, about its time on an idle 2-core Xeon VM.
K_REF = 0.010

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

CHECKS = (
    "coset_counting", "labels_stable", "conjugation_isomorphism",
    "normalizer_contains", "commensurations_symmetric",
    "coboundary_multiplicative", "cohomologous_equivalence",
    "conjugation_identity", "heisenberg_classification", "rep_completeness",
    "induction_frobenius", "inner_transport", "equivalence_vs_hom",
    "hecke_associativity", "degree_homomorphism", "involution_laws",
    "hecke_frobenius_weighted", "lambda_trivial_finite", "gl2_relations",
    "bc_lambda", "ext_associativity", "ext_frobenius", "ext_homomorphisms",
    "ext_dims_multiplicative", "ext_overcount", "crossed_dim",
    "representative_independence", "elementary_associativity",
    "elementary_cross_oracle", "elementary_irreducibility",
)
LAYERS = tracing.LAYERS
# metric -> (unit, source); sources: ("incl", span name) outermost-span time,
# ("calls", span name), ("count", tracer attribute), ("repeat", kind).
LAYER_DETAIL = {
    "permcore.perm_new": ("count/pass", ("count", "perm_new")),
    "permcore.perm_mul": ("count/pass", ("count", "perm_mul")),
    "permcore.dcs_built": ("count/pass", ("calls", "permcore.DoubleCosetSystem")),
    "projrep.rep_build_s": ("s/pass", ("incl", "projrep.Rep")),
    "projrep.reps_built": ("count/pass", ("count", "reps_built")),
    "projrep.validate_macs": ("MAC-calc/pass", ("count", "validate_macs")),
    "projrep.decompose_s": ("s/pass", ("incl", "projrep.decompose")),
    "projrep.decompose_calls": ("count/pass", ("calls", "projrep.decompose")),
    "projrep.decompose_repeat_ratio": ("ratio", ("repeat", "decompose")),
    "projrep.induce_s": ("s/pass", ("incl", "projrep.induce")),
    "projrep.induce_calls": ("count/pass", ("calls", "projrep.induce")),
    "projrep.hom_dim_s": ("s/pass", ("incl", "projrep.hom_dim")),
    "projrep.irreducibles_s": ("s/pass", ("incl", "projrep.irreducibles")),
    "exthecke.fuse_s": ("s/pass", ("incl", "exthecke.fuse")),
    "exthecke.fuse_calls": ("count/pass", ("calls", "exthecke.fuse")),
    "exthecke.fuse_repeat_ratio": ("ratio", ("repeat", "fuse")),
    "exthecke.coset_orbits_s": ("s/pass", ("incl", "exthecke.coset_orbits")),
    "exthecke.triple_fuse_s": ("s/pass", ("incl", "exthecke.triple_fuse")),
    "exthecke.pair_build_s": ("s/pass", ("incl", "exthecke.FinitePair")),
    "elementary.fuse_objects_s": ("s/pass", ("incl", "elementary.fuse_objects")),
    "elementary.fuse_objects_calls": ("count/pass", ("calls", "elementary.fuse_objects")),
    "elementary.canonical_term_s": ("s/pass", ("incl", "elementary.canonical_term")),
    "elementary.canonical_term_calls": ("count/pass", ("calls", "elementary.canonical_term")),
    "cocycle.solve_s": ("s/pass", ("incl", "cocycle.coboundary_witness")),
    "cocycle.solve_calls": ("count/pass", ("calls", "cocycle.coboundary_witness")),
    "cocycle.conjugation_phase_calls": ("count/pass", ("calls", "cocycle.conjugation_phase")),
    "hecke.convolve_s": ("s/pass", ("incl", "hecke.convolve")),
    "hecke.convolve_calls": ("count/pass", ("calls", "hecke.convolve")),
    "catalog.fusion_table_s": ("s/pass", ("incl", "catalog.fusion_table")),
    "catalog.build_pair_s": ("s/pass", ("incl", "catalog.build_pair")),
}
LAYER_DETAIL.update({f"checks.{c}_s": ("s/pass", ("incl", f"checks.check_{c}"))
                     for c in CHECKS})


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s/pass" for layer in LAYERS}
    units.update({name: unit for name, (unit, _) in LAYER_DETAIL.items()})
    units.update({f"{layer}.errors": "count/pass" for layer in LAYERS})
    units.update({"bench.self_s": "s/pass", "trace.wall_s": "s",
                  "trace.overhead_s": "s", "trace.accounted_frac": "ratio"})
    return units


# ------------------------------------------------------------ host speed

def reference_kernel() -> float:
    """Seconds the host takes now for a fixed job: build a list of 60 000
    new ints and sort it, with the garbage collector off.

    The CPU speed of a shared host drifts by up to 2x over seconds to
    minutes, in runs of the same code, so end-to-end times are measured
    against this kernel, timed between ops.  Its allocation- and
    memory-heavy work slows with heckefuse's: over passes of ``check`` on
    a 2-core Xeon VM, pass time over kernel time spread by 9 % where pass
    time alone spread by 34 % (interquartile range over median), and a
    kernel of small-object work alone left 18 %.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    values = [(i * 7919) % 100003 for i in range(60000)]
    values.sort()
    dt = perf_counter() - t0
    if enabled:
        gc.enable()
    if values[-1] != 100002:
        raise RuntimeError("reference kernel miscomputed")
    return dt


def at_reference_speed(seconds: float, kernel_before: float,
                       kernel_after: float) -> float:
    """``seconds`` measured between two kernel timings, as the host would
    take them at the speed where the kernel takes ``K_REF``."""
    return seconds * 2 * K_REF / (kernel_before + kernel_after)


# ------------------------------------------------------------ ops and passes

class Op:
    __slots__ = ("label", "pass_index", "start", "seconds", "scaled", "ok",
                 "error", "span")

    def __init__(self, label: str, pass_index: int):
        self.label, self.pass_index = label, pass_index
        self.start = self.seconds = self.scaled = 0.0
        self.ok, self.error, self.span = True, "", None


class Recorder:
    """Times ops; while a tracer is set, each op is also a root span.

    With ``calibrate``, the reference kernel runs before a pass's first op
    and after every op, outside the op's time, and ``op.scaled`` is the
    op's time at reference speed, from the kernel timings on either side.
    Every op then starts just after a kernel: running the kernel only now
    and then left the small ops that happened to follow it slower than the
    rest, and which ops those were changed from run to run.
    """

    def __init__(self, calibrate: bool = False):
        self.ops: list[Op] = []
        self.pass_index = 0
        self.tracer = None
        self.calibrate = calibrate
        self.kernel_times: list[float] = []
        self.last_kernel = None

    def start_pass(self, index: int) -> None:
        self.pass_index = index
        self.last_kernel = None

    def begin(self, label: str) -> Op:
        if self.calibrate and self.last_kernel is None:
            self.last_kernel = reference_kernel()
            self.kernel_times.append(self.last_kernel)
        op = Op(label, self.pass_index)
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops)
            op.span = self.tracer.open(self.tracer.name_id("bench.op"))
        self.ops.append(op)
        op.start = perf_counter()
        return op

    def end(self, op: Op) -> None:
        op.seconds = op.scaled = perf_counter() - op.start
        if op.span is not None:
            self.tracer.close(op.span)
            self.tracer.op_id = -1
        if self.calibrate:
            after = reference_kernel()
            self.kernel_times.append(after)
            op.scaled = at_reference_speed(op.seconds, self.last_kernel, after)
            self.last_kernel = after

    @contextmanager
    def op(self, label: str):
        """An op that fails, without stopping the run, when its body raises."""
        op = self.begin(label)
        try:
            yield op
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            op.ok, op.error = False, f"{type(exc).__name__}: {exc}"
        finally:
            self.end(op)

    def failed_op(self, label: str, exc: Exception) -> Op:
        op = Op(label, self.pass_index)
        op.ok, op.error = False, f"{type(exc).__name__}: {exc}"
        self.ops.append(op)
        return op


def measure(wl, seconds: float, tracer=None, sample_setup=None):
    """Run passes until ``seconds`` would be exceeded by one more pass.

    Untraced runs make at least ``wl.min_passes`` passes and calibrate
    every op against the reference kernel.  Traced runs
    alternate untraced and traced passes, at least one of each, so the
    tracing overhead is measured in the same process.  ``sample_setup``,
    when given, is called SETUP_SAMPLES times spread over the run, between
    passes, so the set-up samples see the same host conditions as the
    passes; its time extends the deadline.
    """
    import workloads
    clear = workloads.clearable_caches()
    rec = Recorder(calibrate=tracer is None)
    passes: list[tuple[bool, float]] = []
    setups: list[float] = []
    need = 2 if tracer is not None else wl.min_passes
    start = perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        if sample_setup and len(setups) < SETUP_SAMPLES and (
                perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES):
            t0 = perf_counter()
            setups.append(sample_setup())
            deadline += perf_counter() - t0
        traced = tracer is not None and index % 2 == 1
        for fn in clear:
            fn()
        gc.collect()    # no pass pays for collecting an earlier pass's garbage
        span = None
        if traced:
            tracer.reset_seen()
            tracer.install()
            rec.tracer = tracer
            span = tracer.open(tracer.name_id("bench.pass"))
        rec.start_pass(index)
        t0 = perf_counter()
        wl.run_pass(rec)
        dt = perf_counter() - t0
        if traced:
            tracer.close(span)
            rec.tracer = None
            tracer.uninstall()
        passes.append((traced, dt))
        index += 1
        if index >= need and perf_counter() + dt > deadline:
            break
    while sample_setup and len(setups) < SETUP_SAMPLES:
        setups.append(sample_setup())
    return rec, passes, setups


# ------------------------------------------------------------ metrics

def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(ops_per_pass: int, min_passes: int) -> float:
    """The highest quantile with TAIL_BEYOND samples above it in a run of
    ``min_passes`` passes; fixed per workload so runs stay comparable."""
    n = ops_per_pass * min_passes
    return max(0.5, 1.0 - TAIL_BEYOND / n)


def end_to_end(wl, rec: Recorder, passes, setup_times) -> tuple[dict, dict]:
    """Times are at reference speed: each op's ``scaled`` time, and a pass's
    wall time as the sum of its ops' (the kernel runs between ops)."""
    pass_s: dict[int, float] = {}
    raw_pass_s: dict[int, float] = {}
    for op in rec.ops:
        pass_s[op.pass_index] = pass_s.get(op.pass_index, 0.0) + op.scaled
        raw_pass_s[op.pass_index] = raw_pass_s.get(op.pass_index, 0.0) + op.seconds
    op_ms = [op.scaled * 1e3 for op in rec.ops]
    first = sum(1 for op in rec.ops if op.pass_index == 0)
    q = tail_quantile(first, wl.min_passes)
    failed = sum(1 for op in rec.ops if not op.ok)
    values = {
        "wall_s": statistics.median(pass_s.values()),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": nearest_rank(op_ms, q),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (len(rec.ops) - failed) / len(rec.ops),
    }
    samples = {"passes": len(pass_s), "ops": len(op_ms), "ops_per_pass": first,
               "tail_percentile": round(100 * q, 2),
               "tail_samples_beyond": sum(1 for v in op_ms if v > values["op_tail_ms"]),
               "setup_samples": len(setup_times),
               "kernel_samples": len(rec.kernel_times),
               "kernel_median_s": statistics.median(rec.kernel_times),
               "measured_wall_median_s": statistics.median(raw_pass_s.values()),
               "measured_op_p50_ms": statistics.median(op.seconds * 1e3 for op in rec.ops)}
    return values, samples


def layer_values(tracer, passes) -> tuple[dict, dict]:
    traced = [dt for t, dt in passes if t]
    untraced = [dt for t, dt in passes if not t]
    k = len(traced)
    report = tracer.layer_report()
    self_s = report["layer_self_s"]

    def value(source):
        kind, key = source
        if kind == "incl":
            return report["inclusive_s"].get(key, 0.0) / k
        if kind == "calls":
            return report["calls"].get(key, 0) / k
        if kind == "count":
            return getattr(tracer, key) / k
        seen = tracer.calls_seen[key]
        return tracer.repeats[key] / seen if seen else 0.0

    values = {f"{layer}.self_s": self_s.get(layer, 0.0) / k for layer in LAYERS}
    values.update({name: value(src) for name, (_, src) in LAYER_DETAIL.items()})
    for layer in LAYERS:
        values[f"{layer}.errors"] = sum(
            n for (lay, _), n in tracer.errors.items() if lay == layer) / k
    values["bench.self_s"] = self_s.get("bench", 0.0) / k
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["trace.accounted_frac"] = sum(self_s.values()) / sum(traced)
    samples = {"traced_passes": k, "untraced_passes": len(untraced),
               "spans": report["spans"], "min_span_self_s": report["min_self_s"],
               "errors_by_type": {f"{lay}.{typ}": n
                                  for (lay, typ), n in sorted(tracer.errors.items())}}
    return values, samples


# ------------------------------------------------------------ environment

def import_package():
    """Import heckefuse from ./src of this checkout, or exit non-zero."""
    if not (SRC / "heckefuse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no heckefuse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import heckefuse
    if Path(heckefuse.__file__).resolve().parent != SRC / "heckefuse":
        sys.exit(f"perfbench: imported heckefuse from {heckefuse.__file__}")
    return heckefuse


def load_references() -> dict:
    if not REFERENCES.is_file():
        sys.exit(f"perfbench: missing {REFERENCES}")
    return json.loads(REFERENCES.read_text())


def machine() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_pin": {v: os.environ[v] for v in BLAS_PIN}}


def source_identity() -> dict:
    """The git commit when the checkout has one, and always a digest of
    ``src/heckefuse``, since checkouts without git history exist."""
    h = hashlib.sha256()
    for path in sorted((SRC / "heckefuse").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def setup_sampler(args):
    """Timer of one fresh process that starts, imports and makes the inputs,
    at reference speed from kernel times taken before and after it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])

    def sample() -> float:
        before = reference_kernel()
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        dt = perf_counter() - t0
        return at_reference_speed(dt, before, reference_kernel())
    return sample


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("table", "check", "scale"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    references = load_references()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, references, args.tiny)
    if args.setup_only:
        return 0
    tracer = tracing.Tracer() if args.trace else None
    rec, passes, setup_times = measure(
        wl, args.seconds, tracer, None if tracer else setup_sampler(args))
    if tracer:
        values, samples = layer_values(tracer, passes)
        units = per_layer_units()
    else:
        values, samples = end_to_end(wl, rec, passes, setup_times)
        units = END_TO_END
    failed = [op for op in rec.ops if not op.ok]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny,
              "machine": machine(), "source": source_identity(),
              "samples": samples, "pass_seconds": [dt for _, dt in passes],
              "setup_seconds": setup_times,
              "failures": [[op.label, op.error] for op in failed[:20]],
              "ops": [[op.label, op.pass_index, op.seconds, op.scaled]
                      for op in rec.ops],
              "metrics": values}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.save(OUT / f"spans-{stem}.npz")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed, "attempted": len(rec.ops), "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
