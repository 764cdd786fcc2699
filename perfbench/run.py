"""The repository benchmark: host time of the public API per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; ``repro`` is imported from its
``src/``.  Workloads (see ``workloads.py``): ``scale_progress``,
``paper_sizing``, ``oversub_percentile`` and ``serve_tight``.

Every repetition runs in a fresh process (``rep.py``), so its peak RSS
belongs to that workload alone, and every repetition checks its
simulated outputs: invariants for any input, and for the pinned seed
the digests in ``pinned.json``.  A speed-only change must leave those
digests unchanged.

Times are in reference seconds: each repetition samples the host's
speed while it runs (``hostspeed.py``) and rescales its wall to a host
of fixed speed.  The benchmark host is a shared VM whose speed swings
by up to 1.8x every few seconds with its neighbours' load; rescaled,
identical repetitions agree within a few percent where their raw walls
differ by half.  The raw walls and the mean host speed are printed
beside the metrics.

``--trace 0`` runs repetitions one after another while at least half
of one more fits in ``--seconds`` (at least two).  Repetition 0 builds
its inputs from ``--seed``; repetition ``i`` from a seed derived from
``--seed`` and ``i`` (:func:`repetition_seed`).  After each one,
set-up-only repetitions on the inputs of ``--seed`` take up to
``SETUP_SHARE`` of its wall.  The run reports, as medians over its
repetitions:

* ``setup_s``  -- ``import repro`` plus building the inputs through the
  public builders, up to the first simulated event (set-up-only
  repetitions included);
* ``total_s``  -- ``setup_s`` plus the run phase, what a user waits for;
* ``events_per_s`` -- simulated arrivals plus departures per reference
  second of the run phase (every probe of a sizing search counts);
* ``peak_rss_mb`` -- peak RSS of the repetition's process.

``--trace 1`` runs one untraced and one traced repetition, both on the
inputs of ``--seed``, checks that tracing left the outputs unchanged,
and reports the per-layer metrics of ``BENCHMARK.json`` from the traced
one (``layers.json`` names what each should move), plus
``trace.overhead_share`` (traced over untraced ``total_s``, minus one).

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` (simulated
rejections and timeouts, plus every request of a repetition that
crashed or failed its check) and ``metrics``.  The exit code is 0 when
every check passed, 1 when one did not, and 2 when the checkout holds
no runnable ``repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import BENCHMARK_FILE, layer_metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scale_progress", "paper_sizing", "oversub_percentile", "serve_tight")
MIN_REPS = 2
#: After each repetition, set-up-only repetitions take up to this share
#: of its wall, so ``setup_s`` is a median over more set-ups than runs.
SETUP_SHARE = 0.2
#: The whole run must end within 180 s; no repetition starts past this.
HARD_LIMIT_S = 165.0


def repetition_seed(seed: int, index: int) -> int:
    """Input seed of repetition ``index`` of a run at ``seed``.

    Repetition 0 uses the run's seed, so the pinned digests apply to
    it; later ones draw other inputs derived from it.  The run's median
    then stands for several inputs of the workload rather than for one
    trace whose sizing search happens to need two more probes
    (``paper_sizing``) or whose fleet happens to queue hundreds of
    pending tickets (``serve_tight``).
    """
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _spawn(args: list[str], timeout: float) -> tuple[int, str, str]:
    # One thread per process, and one string-hash layout for every
    # repetition, so dict/set iteration cost does not vary run to run.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        return -1, "", f"repetition exceeded {timeout:.0f} s"
    return proc.returncode, proc.stdout, proc.stderr


def _repetition(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    args = ["--workload", workload, "--seed", str(seed)]
    code, out, err = _spawn(args + (["--trace"] if trace else []), timeout)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit code {code}"]
        return {"problems": [f"repetition crashed: {tail[0]}"]}
    return json.loads(lines[-1])


def _setup_only(workload: str, seed: int, timeout: float) -> float | None:
    code, out, _err = _spawn(["--workload", workload, "--seed", str(seed),
                              "--setup-only"], timeout)
    lines = out.strip().splitlines()
    return json.loads(lines[-1])["setup_s"] if code == 0 and lines else None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    launched = perf_counter()
    code, _out, err = _spawn(["--warmup"], 120.0)
    if code != 0:
        sys.stderr.write(err)
        print(f"error: cannot import repro from {ROOT / 'src'}", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "pinned.json").read_text())
    end_to_end = [(m["name"], m["unit"])
                  for m in json.loads(BENCHMARK_FILE.read_text())["end_to_end"]]

    started = perf_counter()
    reps: list[dict] = []
    seeds: list[int] = []
    walls: list[float] = []
    setups: list[float] = []
    setup_walls: list[float] = []
    setup_crashes = 0
    plan = [False, True] if args.trace else None
    while True:
        now = perf_counter()
        typical = statistics.median(walls) if walls else 0.0
        if plan is not None:
            if len(reps) == len(plan):
                break
        elif len(reps) >= MIN_REPS and now - started + typical / 2 > args.seconds:
            break
        if reps and now - launched + typical > HARD_LIMIT_S:
            break
        if plan is not None:
            trace, seed = plan[len(reps)], args.seed
        else:
            trace, seed = False, repetition_seed(args.seed, len(reps))
        seeds.append(seed)
        reps.append(_repetition(args.workload, seed, trace,
                                HARD_LIMIT_S + 10.0 - (now - launched)))
        walls.append(perf_counter() - now)
        if plan is None and "setup_s" in reps[-1]:
            # Same input as repetition 0: only the host varies.
            share = SETUP_SHARE * walls[-1]
            spent = 0.0
            while spent + statistics.median(setup_walls or [reps[-1]["wall_setup_s"]]) <= share:
                began = perf_counter()
                value = _setup_only(args.workload, args.seed,
                                    HARD_LIMIT_S + 10.0 - (began - launched))
                setup_walls.append(perf_counter() - began)
                spent += setup_walls[-1]
                if value is None:
                    setup_crashes += 1
                    break
                setups.append(value)

    problems: list[str] = []
    expected = pinned["digests"][args.workload]
    attempted = failed = 0
    good = [r for r in reps if "digest" in r]
    typical_attempts = max((r["attempted"] for r in good), default=1)
    for i, (rep, seed) in enumerate(zip(reps, seeds)):
        rep_problems = list(rep.get("problems", []))
        if "digest" in rep:
            if seed == pinned["seed"] and rep["digest"] != expected:
                rep_problems.append("outputs differ from the digest pinned for "
                                    f"seed {pinned['seed']}")
            if plan is not None and rep["digest"] != good[0]["digest"]:
                rep_problems.append("tracing changed the outputs")
        problems += [f"repetition {i}: {p}" for p in rep_problems]
        tried = rep.get("attempted", typical_attempts)
        attempted += tried
        failed += tried if rep_problems else rep["failed"]
    if setup_crashes:
        problems.append(f"{setup_crashes} set-up-only repetitions crashed")
    correct = not problems

    seed_kind = ("pinned seed: digests and invariants checked"
                 if args.seed == pinned["seed"] else "invariants checked")
    print(f"workload {args.workload}  seed {args.seed} ({seed_kind})  "
          f"repetitions {len(reps)}  trace {args.trace}")
    for line in problems:
        print(f"  FAILED {line}")
    metrics: dict[str, dict] = {}
    if not args.trace:
        samples = {
            "setup_s": [r["setup_s"] for r in good] + setups,
            "total_s": [r["total_s"] for r in good],
            "events_per_s": [r["events"] / r["run_s"] for r in good],
            "peak_rss_mb": [r["rss_mb"] for r in good],
        }
        for name, unit in end_to_end:
            values = samples[name] or [0.0]
            q1, med, q3 = _quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:<14} {med:14.4f} {unit:<5} "
                  f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
        if good:
            wall = {key: statistics.median(r[f"wall_{key}"] for r in good)
                    for key in ("setup_s", "total_s")}
            speed = statistics.median(r["host_speed"] for r in good)
            print(f"  raw wall: setup {wall['setup_s']:.4f} s, total "
                  f"{wall['total_s']:.4f} s; host speed {speed:.3f} of the "
                  f"reference (medians of {len(good)} repetitions, "
                  f"{good[0]['speed_samples']} samples in the first)")
        if good and "place_p50_us" in good[0]["extra"]:
            for key, unit in (("place_p50_us", "us"), ("place_p99_us", "us")):
                med = statistics.median(r["extra"][key] for r in good)
                n = good[0]["extra"]["place_samples"]
                print(f"  {key:<14} {med:14.4f} {unit:<5} "
                      f"(median of {len(good)} runs, {n} samples each)")
    else:
        plain = reps[0] if "digest" in reps[0] else None
        traced = reps[1] if len(reps) > 1 and "layers" in reps[1] else None
        layers = dict(traced["layers"]) if traced else {}
        if plain and traced:
            layers["trace.overhead_share"] = traced["total_s"] / plain["total_s"] - 1.0
        if plain and "place_p50_us" in plain["extra"]:
            for key in ("place_p50_us", "place_p99_us", "place_samples"):
                layers[f"serving.{key}"] = float(plain["extra"][key])
        moves = json.loads((HERE / "layers.json").read_text())["moves"]
        for name, unit in layer_metric_names():
            value = layers.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<32} {value:16.6f} {unit:<5} -> {moves[name]}")
    share = failed / attempted if attempted else 1.0
    print(f"  failed_share   {share:14.6f} share ({failed} of {attempted} "
          "VM requests)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
