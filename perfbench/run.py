"""Benchmark of the ``dgh-lab`` commands, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives ``dghlab.cli.main`` in this process in a closed loop:
each command starts when the previous one has ended and its outputs have
been checked.  Every command gets a config file that the benchmark
generates from ``--seed``; see README.md for the workloads, the checks
and the metrics.

``--trace 0`` runs commands untraced for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed list of commands derived
from ``--seed`` and ``--seconds``, each once untraced and once traced,
prints the per-layer metrics and writes the spans to
``.bench_out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import checks
from tracer import ROW_FIELDS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
# reference kernel samples taken before each command: one sample is noisy,
# and a 25-30 s sweep run has only about 8 commands
KERNEL_SAMPLES = 3
NPROC = len(os.sched_getaffinity(0))
# medians of reference_kernel() and of a fresh interpreter that imports
# numpy, on the 2-vCPU Xeon the benchmark was defined on
REFERENCE_KERNEL_S = 0.016
REFERENCE_STARTUP_S = 0.22
# seconds one traced-run operation costs (untraced + traced [+ serial]);
# fixes how many operations a traced run makes for a given --seconds
TRACE_OP_SECONDS = {"simulate_dgh": 2.2, "simulate_dgh2": 3.4, "sweep": 10.0, "lemmas": 1.3}


# -- inputs -------------------------------------------------------------------

def stratified(rng: np.random.Generator, lo: float, hi: float, block: int = 8):
    """Endless draws from [lo, hi): each block of ``block`` draws puts one
    in each equal sub-interval, in seeded order, so that short runs see
    the whole range and the medians of runs with different seeds agree."""
    while True:
        for u in (rng.permutation(block) + rng.random(block)) / block:
            yield float(lo + (hi - lo) * u)


def _datum(a: float, c: float) -> dict:
    return {"preset": "gaussian_derivative", "args": {"a": a, "center": c}}


def _base(n_points: int, t_max: float, record_every: int) -> dict:
    return {
        "parameters": {"alpha": 1.0, "gamma": 0.0, "c0": 0.0, "sigma": 1.0},
        "grid": {"half_length": 20.0, "n_points": n_points},
        "solver": {"t_max": t_max, "cfl": 0.3, "dt_min": 1e-9,
                   "slope_blowup_threshold": 1e4, "record_every": record_every},
    }


def simulate_ops(rng: np.random.Generator, equation: str):
    """``simulate`` on gaussian_derivative(a, center=c), a in [0.9, 1.1],
    c in [-1, 1]; the two-component datum adds rho~0 = -exp(-(x-c)^2).
    The first characteristic seed is the criterion point x0 = c."""
    amps, centres = stratified(rng, 0.9, 1.1), stratified(rng, -1.0, 1.0)
    while True:
        a, c = next(amps), next(centres)
        if equation == "dgh":
            cfg = _base(4096, 3.0, 4)
            cfg.update(equation="dgh", initial=_datum(a, c), seeds=[c, c - 1.0, c + 1.0])
        else:
            cfg = _base(4096, 2.5, 4)
            cfg.update(
                equation="dgh2",
                initial=_datum(a, c),
                rho_initial={"preset": "gaussian_bump",
                             "args": {"a": -1.0, "center": c, "width": 0.5**0.5}},
                seeds=[c, c + 0.5],
            )
        yield cfg, [], {"equation": equation, "a": a, "c": c}


SWEEP_T_MAX = 3.0


def sweep_ops(rng: np.random.Generator):
    """``sweep`` over 3 amplitudes x 2 in-band (c0, gamma) pairs.  The low
    amplitude never meets its bound inside the horizon (it reaches the
    horizon at (0, 0) and fails the criterion at the second pair); the
    second pair has k = (c0 + gamma)/2 in [0.45, 0.65] and lam = -gamma."""
    lows, mids, highs = (stratified(rng, lo, hi) for lo, hi in ((0.2, 0.3), (0.9, 1.1), (1.15, 1.3)))
    c0s, gammas = stratified(rng, 0.3, 0.5), stratified(rng, 0.6, 0.8)
    centres = stratified(rng, -1.0, 1.0)
    while True:
        amplitudes = [next(lows), next(mids), next(highs)]
        pairs = [[0.0, 0.0], [next(c0s), next(gammas)]]
        cfg = _base(2048, SWEEP_T_MAX, 16)
        cfg.update(equation="dgh", initial=_datum(1.0, next(centres)), seeds=[],
                   sweep={"amplitudes": amplitudes, "c0_gamma": pairs})
        spec = {"amplitudes": amplitudes, "pairs": pairs, "t_max": SWEEP_T_MAX}
        yield cfg, ["--workers", str(NPROC)], spec


def lemmas_ops(rng: np.random.Generator):
    """``lemmas`` with a seeded n_random in [360, 440] and RNG seed."""
    sizes = stratified(rng, 360, 441)
    while True:
        n_random = int(next(sizes))
        cfg = _base(4096, 3.0, 4)
        cfg.update(lemmas={"n_random": n_random, "n_modes": 30, "max_mode": 80,
                           "resolutions": [1024, 2048, 4096]})
        yield cfg, ["--seed", str(int(rng.integers(0, 2**31)))], {"n_random": n_random}


WORKLOADS = {
    "simulate_dgh": ("simulate", lambda rng: simulate_ops(rng, "dgh")),
    "simulate_dgh2": ("simulate", lambda rng: simulate_ops(rng, "dgh2")),
    "sweep": ("sweep", sweep_ops),
    "lemmas": ("lemmas", lemmas_ops),
}


# -- one command ----------------------------------------------------------------

@dataclass
class Result:
    seconds: float
    failed: list[str]
    obs: dict
    bytes_written: int
    csv: bytes | None = None


class Runner:
    """Runs one generated command through ``dghlab.cli.main`` and checks
    its outputs."""

    def __init__(self, cli, command: str, work: Path):
        self.cli = cli
        self.command = command
        self.work = work
        self.schemas = {
            "simulate": checks.load_schema(ROOT, "run_summary.schema.json"),
            "lemmas": checks.load_schema(ROOT, "lemmas_report.schema.json"),
        }

    def write_config(self, cfg: dict, name: str = "op.yaml") -> Path:
        path = self.work / name
        path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
        return path

    def run(self, cfg: dict, extra: list[str], spec: dict, tracer: Tracer | None = None) -> Result:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.command, "--config", str(self.write_config(cfg)), "--out", str(out), *extra]
        sink = io.StringIO()
        rc = None
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with tracer.installed(), tracer.operation("cli." + self.command):
                        rc = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, reported below
                traceback.print_exc(file=sink)
            seconds = time.perf_counter() - t0
        if rc != 0:
            sys.stderr.write(f"{self.command} exited {rc}: {sink.getvalue()[-2000:]}\n")
            return Result(seconds, ["cli.exit_nonzero"], {"units": 0}, 0)
        if self.command == "simulate":
            failed, obs = checks.check_simulate(out, spec, self.schemas["simulate"])
        elif self.command == "sweep":
            failed, obs = checks.check_sweep(out, spec)
        else:
            failed, obs = checks.check_lemmas(out, spec, self.schemas["lemmas"])
        files = [p for p in out.iterdir() if p.is_file()]
        csv = (out / "sweep.csv").read_bytes() if self.command == "sweep" else None
        return Result(seconds, failed, obs, sum(p.stat().st_size for p in files), csv)


def _wall(argv: list[str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return seconds


def setup_probe(path: Path) -> tuple[float, float]:
    """Wall times of two fresh interpreters: one doing the set-up of one
    command on the config at ``path``, and one that only imports numpy,
    which gauges how fast the host starts a process."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    return (_wall([sys.executable, str(probe), str(path)]),
            _wall([sys.executable, "-c", "import numpy"]))


# -- statistics -------------------------------------------------------------------

_KERNEL_X = np.random.default_rng(0).standard_normal(4096)
_KERNEL_SYMBOL = np.random.default_rng(1).standard_normal(2049)


def reference_kernel() -> float:
    """Seconds of a fixed numpy workload shaped like the program's inner
    loop: N = 4096 real FFT round trips, elementwise products and a little
    interpreter work.  Timed before every command, it tracks the speed the
    shared host gives this process, which drifts by +-10% within a minute."""
    t0 = time.perf_counter()
    for _ in range(100):
        y = np.fft.irfft(_KERNEL_SYMBOL * np.fft.rfft(_KERNEL_X), n=4096)
        z = y * y + 0.5 * y
        [float(v) for v in z[:200]]
    return time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least 10
    samples above it; the lowest sample when there are 10 or fewer."""
    ordered = sorted(values)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * i / len(ordered)


class Tally:
    """Attempted and failed operations and per-check failure counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counts = {name: 0 for name in checks.CHECK_NAMES}

    def add(self, failed: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(failed)
        for name in failed:
            self.counts[name] += 1


# -- the two modes ----------------------------------------------------------------

def end_to_end(runner: Runner, ops, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setup_config = runner.write_config(next(ops)[0], "setup.yaml")
    cfg, extra, spec = next(ops)
    tally.add(runner.run(cfg, extra, spec).failed)  # warm-up, not timed
    times, rates, kernel, setup = [], [], [], []
    start = time.perf_counter()
    # commands get ``seconds``; the set-up probes run between them, spread
    # evenly over the run, and push the deadline back by their own time
    deadline = start + seconds
    while (now := time.perf_counter()) < deadline:
        while len(setup) < SETUP_REPEATS * (now - start) / (deadline - start):
            setup.append(setup_probe(setup_config))
            deadline += sum(setup[-1])
        kernel.extend(reference_kernel() for _ in range(KERNEL_SAMPLES))
        res = runner.run(*next(ops))
        tally.add(res.failed)
        times.append(res.seconds)
        rates.append(res.obs["units"] / res.seconds)
    value, pct = tail(times)
    raw = {"cmd_s": statistics.median(times), "units_per_s": statistics.median(rates),
           "cmd_s_tail": value, "tail_percentile": pct, "commands": len(times)}
    # times at reference host speed
    speed = REFERENCE_KERNEL_S / statistics.median(kernel)
    setup.extend(setup_probe(setup_config) for _ in range(SETUP_REPEATS - len(setup)))
    raw["setup_s"] = statistics.median(t for t, _ in setup)
    raw["startup_s"] = statistics.median(t for _, t in setup)
    # the kernel does not track the probes' child processes; the numpy-only
    # interpreters between them do
    metrics = {
        "cmd_s": (raw["cmd_s"] * speed, "s"),
        "units_per_s": (raw["units_per_s"] / speed, "1/s"),
        "setup_s": (raw["setup_s"] * REFERENCE_STARTUP_S / raw["startup_s"], "s"),
    }
    return metrics, {"host_speed": speed, "raw": raw}


def _self_seconds(span, children) -> float:
    """Duration minus the part covered by child spans minus direct FFTs."""
    covered, end = 0.0, span.t0
    for t0, t1 in sorted((max(c.t0, span.t0), min(c.t1, span.t1)) for c in children):
        if t1 > end:
            covered += t1 - max(t0, end)
            end = t1
    return span.duration - covered - span.fft_s


def layer_metrics(tracer: Tracer, command: str, traced: list[Result], untraced: list[Result]) -> dict:
    spans = tracer.spans
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    inclusive: dict[int, list[float]] = {}

    def incl(s):
        if s.sid not in inclusive:
            tot = [s.fft_calls, s.cos_calls]
            for c in children.get(s.sid, []):
                ci = incl(c)
                tot = [tot[0] + ci[0], tot[1] + ci[1]]
            inclusive[s.sid] = tot
        return inclusive[s.sid]

    def named(name):
        return [s for s in spans if s.name == name]

    roots = [s for s in spans if s.name.startswith("cli.")]
    # thread-seconds of work: each command's own time plus its top-level
    # library spans, which run in worker threads on the sweep
    busy = sum(_self_seconds(r, children.get(r.sid, [])) + r.fft_s
               + sum(c.duration for c in children.get(r.sid, [])) for r in roots)
    every = spans + [tracer.unattributed]
    fft_calls = sum(s.fft_calls for s in every)
    fft_s = sum(s.fft_s for s in every)
    fft_flops = sum(s.fft_flops for s in every)
    fft_bytes = sum(s.fft_bytes for s in every)
    cos_calls = sum(s.cos_calls for s in every)
    n_cmd = max(1, len(roots))
    sims, advects = named("evolution.simulate"), named("characteristics.advect")
    crits = named("analysis.criterion")
    fields = sum(r.obs["units"] for r in traced) if command == "lemmas" else 0

    def per(total, n):
        return total / n if n else 0.0

    def total(name):
        return sum(s.duration for s in named(name))

    t_untraced = sum(r.seconds for r in untraced)
    t_traced = sum(r.seconds for r in traced)
    m = {
        "fft.calls": (fft_calls, "count"),
        "fft.s": (fft_s, "s"),
        "fft.us_per_call": (per(1e6 * fft_s, fft_calls), "us"),
        "fft.share": (per(fft_s, busy), "ratio"),
        "fft.flops": (fft_flops, "flop_computed"),
        "fft.bytes": (fft_bytes, "B_computed"),
        "fft.gflop_per_s": (per(fft_flops / 1e9, fft_s), "Gflop/s"),
        "core.trig_evals": (per(cos_calls, n_cmd), "count"),
        "core.preset_s": (per(total("core.preset") + total("core.grid"), n_cmd), "s"),
        "evolution.simulate_s": (per(total("evolution.simulate"), len(sims)), "s"),
        "evolution.self_s": (per(sum(_self_seconds(s, children.get(s.sid, [])) for s in sims), len(sims)), "s"),
        "evolution.fft_calls": (per(sum(incl(s)[0] for s in sims), len(sims)), "count"),
        "evolution.trig_evals": (per(sum(incl(s)[1] for s in sims), len(sims)), "count"),
        "analysis.energy_s": (per(total("analysis.energy"), len(sims)), "s"),
        "analysis.criterion_s": (per(total("analysis.criterion"), len(crits)), "s"),
        "analysis.gaps_s": (per(total("analysis.gaps"), fields), "s"),
        "characteristics.advect_s": (per(total("characteristics.advect"), len(advects)), "s"),
        "characteristics.fft_calls": (per(sum(incl(s)[0] for s in advects), len(advects)), "count"),
        "characteristics.trig_evals": (per(sum(incl(s)[1] for s in advects), len(advects)), "count"),
        "characteristics.side_residual_max": (max((r.obs.get("side_residual_max", 0.0) for r in traced + untraced), default=0.0), "ratio"),
        "characteristics.side_residual_exceed": (sum(r.obs.get("side_exceed", 0) for r in traced + untraced), "count"),
        "helmholtz.convolution_s": (per(total("helmholtz.convolution"), fields), "s"),
        "cli.self_s": (per(sum(_self_seconds(r, children.get(r.sid, [])) for r in roots), len(roots)), "s"),
        "cli.bytes_written": (per(sum(r.bytes_written for r in traced), len(traced)), "B"),
        "trace.overhead_pct": (per(100.0 * (t_traced - t_untraced), t_untraced), "%"),
    }
    return m


def traced_run(runner: Runner, ops, workload: str, seconds: float, tally: Tally) -> tuple[dict, dict]:
    n_ops = max(2, round(seconds / TRACE_OP_SECONDS[workload]))
    tracer = Tracer()
    traced, untraced, serial = [], [], []
    cfg, extra, spec = next(ops)
    tally.add(runner.run(cfg, extra, spec).failed)  # warm-up, not timed
    for i in range(n_ops):
        cfg, extra, spec = next(ops)
        pair = []
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            res = runner.run(cfg, extra, spec, tracer if with_trace else None)
            (traced if with_trace else untraced).append(res)
            pair.append(res)
        if runner.command == "sweep":
            res = runner.run(cfg, ["--workers", "1"], spec)
            serial.append(res)
            if any(r.csv != res.csv for r in pair):
                res.failed.append("cli.sweep_csv_mismatch")
            pair.append(res)
        for res in pair:
            tally.add(res.failed)
    metrics = layer_metrics(tracer, runner.command, traced, untraced)
    par_s = sum(r.seconds for r in untraced)
    ser_s = sum(r.seconds for r in serial)
    cells = sum(r.obs["units"] for r in serial)
    metrics["cli.sweep_serial_cells_per_s"] = (cells / ser_s if serial else 0.0, "1/s")
    metrics["cli.sweep_parallel_cells_per_s"] = (cells / par_s if serial else 0.0, "1/s")
    metrics["cli.sweep_parallel_eff"] = (ser_s / (NPROC * par_s) if serial else 0.0, "ratio")
    return metrics, {"operations": n_ops, "spans": [s.row() for s in tracer.spans],
                     "span_fields": ROW_FIELDS}


# -- machine context ------------------------------------------------------------

def machine_context() -> dict:
    """Machine facts that bound what the FFT numbers can mean."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    n = 4096
    return {
        "nproc": NPROC,
        "cpu_model": model,
        "caches_per_instance": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "working_set": {
            "array_N4096_bytes": n * 8,
            "record_dgh_bytes": 2 * n * 8,
            "record_dgh2_bytes": 4 * n * 8,
            "trajectory_67_records_dgh_bytes": 67 * 2 * n * 8,
            "note": "every array and trajectory is far below the last-level "
                    "cache, so FFT rates are cache-resident; no bandwidth claim",
        },
    }


# -- entry point ----------------------------------------------------------------

def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from dghlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"dghlab imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        cli = import_cli()
        import jsonschema  # noqa: F401  (the checks need it)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    command, make_ops = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    tally = Tally()
    try:
        runner = Runner(cli, command, work)
        ops = make_ops(rng)
        if args.trace:
            metrics, extra = traced_run(runner, ops, args.workload, args.seconds, tally)
        else:
            metrics, extra = end_to_end(runner, ops, args.seconds, tally)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics["checks.error_rate"] = (tally.failed / tally.attempted, "ratio")
        for name, count in tally.counts.items():
            metrics[name] = (count, "count")
        context = machine_context()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "context": context,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            **extra,
        }, separators=(",", ":")))
        print(f"info: context {json.dumps(context)}")
        print(f"info: {extra['operations']} traced operations; spans in {trace_file.relative_to(ROOT)}")
    else:
        print(f"info: host speed {extra['host_speed']:.4f} of reference; "
              f"unscaled {json.dumps(extra['raw'])}")
    print("info: check failures " + json.dumps({k: v for k, v in tally.counts.items() if v}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
