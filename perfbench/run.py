#!/usr/bin/env python3
"""Paper-regime benchmark for p2psim.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload syndrome --seed 1 --seconds 25 --trace 0

It builds the CLI and the traced-pass helper from source with dune, makes
the workload's inputs from --seed, and measures for --seconds seconds.

--trace 0, the untraced pass, runs the workload's `p2psim` command as a
subprocess again and again (a new derived simulation seed each time)
until the time is used up. It checks every run's outputs and reports
the median of each end-to-end metric, at reference speed: each sample
scaled by how much slower than usual a fixed reference race ran just
before and just after it (perfbench/README.md says why).

--trace 1, the traced pass, runs the command once untraced, then runs the
same workload in-process through perfbench/trace.exe. That helper records
spans around calls into each layer. The pass reports every per-layer
metric and checks that the traced counts equal the untraced run's.

Each metric is printed as one `name value unit` line. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `attempted` counts the
runs (and, in the traced pass, the count comparison). `failed` counts
those whose output check failed, so failed_frac = failed / attempted.

Seeds: DEFAULT_SEED is the one used while tuning. HOLDOUT_SEED was never
used for that. A later change that claims a gain confirms the claim on it.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
P2PSIM = os.path.join(ROOT, "_build", "default", "bin", "p2psim.exe")
TRACE = os.path.join(ROOT, "_build", "default", "perfbench", "trace.exe")

# Every run of the untraced pass repeats the workload at least this often.
MIN_REPS = 3
# The speed reference: a fixed exponential race in trace.ml, independent
# of lib/, that takes REFERENCE_S seconds on an uncontended core of the
# machine the benchmark was tuned on (2-vCPU VM, OCaml 5.1).
REFERENCE = ["reference", "1000000"]
REFERENCE_S = 0.125
# A single child process may not run longer than this.
CHILD_TIMEOUT_S = 150

# name -> unit. Measured untraced, one value per run (the median over
# its samples), at reference speed: every time is divided, and every
# rate multiplied, by how much slower than REFERENCE_S the reference ran
# just before and just after the command that gave the sample. Events/s is deliberately absent: an event count
# includes silent contacts, so a change that stops simulating them
# would read as a slowdown. transfers_per_s counts only delivered
# pieces (or innovative vectors, or fluid transfer mass).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_time_per_s": "1/s",
    "transfers_per_s": "1/s",
    "peak_rss_mb": "MB",
    "report_s": "s",
}
# unit -> power of the slowdown a sample is multiplied by.
SPEED_EXPONENT = {"s": -1, "1/s": 1, "MB": 0}

# Per-layer metrics: name -> (unit, better, end-to-end metric it should
# move, workload it moves it on). Layers a workload does not run report 0
# together with a base count of 0.
PER_LAYER = {
    "engine.events": ("count", "lower", "sim_time_per_s", "syndrome"),
    "engine.state_changes": ("count", "higher", "sim_time_per_s", "syndrome"),
    "engine.useful_ratio": ("ratio", "higher", "sim_time_per_s", "syndrome"),
    "sim_markov.contacts": ("count", "lower", "sim_time_per_s", "syndrome"),
    "sim_markov.silent_contacts": ("count", "lower", "sim_time_per_s", "syndrome"),
    "sim_markov.total_rate_ns": ("ns", "lower", "wall_s", "syndrome"),
    "sim_markov.total_rate_calls": ("count", "lower", "wall_s", "syndrome"),
    "sim_markov.apply_ns": ("ns", "lower", "wall_s", "syndrome"),
    "sim_markov.apply_calls": ("count", "lower", "wall_s", "syndrome"),
    "sim_markov.contact_ns": ("ns", "lower", "transfers_per_s", "flash_crowd"),
    "sim_markov.contact_calls": ("count", "lower", "transfers_per_s", "flash_crowd"),
    "sim_markov.loop_busy_s": ("s", "lower", "wall_s", "syndrome"),
    "policy.sample_ns": ("ns", "lower", "transfers_per_s", "flash_crowd"),
    "policy.sample_calls": ("count", "higher", "transfers_per_s", "flash_crowd"),
    "state.sample_uniform_peer_ns": ("ns", "lower", "transfers_per_s", "flash_crowd"),
    "state.sample_uniform_peer_calls": ("count", "higher", "transfers_per_s", "flash_crowd"),
    "state.snapshots": ("count", "higher", "transfers_per_s", "flash_crowd"),
    "rate.transitions_ms": ("ms", "lower", "none today", "flash_crowd"),
    "rate.transitions_calls": ("count", "higher", "none today", "flash_crowd"),
    "fluid.rhs_us": ("us", "lower", "wall_s", "fluid_mega"),
    "fluid.rhs_calls": ("count", "higher", "wall_s", "fluid_mega"),
    "fluid.rhs_share": ("ratio", "lower", "wall_s", "fluid_mega"),
    "fluid.run_s": ("s", "lower", "wall_s", "fluid_mega"),
    "fluid.mass_balance_error": ("ratio", "lower", "wall_s", "fluid_mega"),
    "ode.steps": ("count", "lower", "wall_s", "fluid_mega"),
    "ode.rejected": ("count", "lower", "wall_s", "fluid_mega"),
    "ode.rhs_evals": ("count", "lower", "wall_s", "fluid_mega"),
    "sim_coded.rank_update_ns": ("ns", "lower", "wall_s", "coded_campaign"),
    "sim_coded.rank_update_calls": ("count", "lower", "wall_s", "coded_campaign"),
    "sim_coded.vector_select_ns": ("ns", "lower", "wall_s", "coded_campaign"),
    "sim_coded.vector_select_calls": ("count", "lower", "wall_s", "coded_campaign"),
    "sim_coded.innovative_ratio": ("ratio", "higher", "wall_s", "coded_campaign"),
    "sim_coded.uploads": ("count", "lower", "wall_s", "coded_campaign"),
    "subspace.insert_ns": ("ns", "lower", "wall_s", "coded_campaign"),
    "subspace.insert_calls": ("count", "higher", "wall_s", "coded_campaign"),
    "campaign.cell_s_p50": ("s", "lower", "wall_s", "coded_campaign"),
    "campaign.cell_s_p80": ("s", "lower", "wall_s", "coded_campaign"),
    "campaign.cells": ("count", "higher", "wall_s", "coded_campaign"),
    "runner.efficiency": ("ratio", "higher", "wall_s", "coded_campaign"),
    "runner.jobs1_s": ("s", "lower", "wall_s", "coded_campaign"),
    "runner.jobs2_s": ("s", "lower", "wall_s", "coded_campaign"),
    "store.append_us": ("us", "lower", "wall_s", "coded_campaign"),
    "store.appends": ("count", "higher", "wall_s", "coded_campaign"),
    "store.finalise_ms": ("ms", "lower", "setup_s", "coded_campaign"),
    "spec.parse_ms": ("ms", "lower", "setup_s", "coded_campaign"),
    "series.read_s": ("s", "lower", "report_s", "syndrome"),
    "series.samples": ("count", "higher", "report_s", "syndrome"),
    "classify.fit_ms": ("ms", "lower", "report_s", "syndrome"),
    "monitor.replay_ms": ("ms", "lower", "report_s", "syndrome"),
    "monitor.alerts": ("count", "lower", "report_s", "syndrome"),
    "trace_overhead": ("ratio", "lower", "wall_s", "every workload"),
    "trace.untraced_s": ("s", "lower", "wall_s", "every workload"),
    "trace.traced_s": ("s", "lower", "wall_s", "every workload"),
}


def sub_seeds(tag, seed, n=256):
    """Simulation seeds for the runs of one benchmark run: a pure function
    of the workload and the benchmark seed."""
    rng = random.Random(f"{tag}/{seed}")
    return [rng.randrange(1, 2**30) for _ in range(n)]


def kv(text):
    """The `label : value` lines of a p2psim report, as a dict."""
    out = {}
    for line in text.splitlines():
        m = re.match(r"^\s*([^:]+?)\s*:\s*(.*?)\s*$", line)
        if m and m.group(1) not in out:
            out[m.group(1)] = m.group(2)
    return out


def verdict(value):
    return (value or "").split(" ")[0]


def truncated(text):
    return "WARNING: max_events budget exhausted" in text


def half_ulp(text):
    """Half the last printed digit of a p2psim float: integers print
    exactly, everything else with four significant digits."""
    if re.fullmatch(r"-?\d+", text):
        return 0.0
    v = abs(float(text))
    return 0.5 * 10 ** (math.floor(math.log10(v)) - 3) if v > 0 else 0.0


# ---- workloads ----
#
# Each workload supplies: inputs(seed) -> dict, main/report/setup argv
# for one repetition, check(main_out, report_out, inputs) -> list of
# failures, and work(main_out, inputs) -> (simulated time, transfers).
# Every repetition runs the main command, the report command report_reps
# times, and the set-up command setup_reps times (until setup_cap samples
# are in), with the speed reference before and after each of these three
# groups, so the cheap commands' medians rest on many samples spread over
# the whole run, each scaled by the slowdown measured next to it.


class SeriesWorkload:
    """A `simulate` or `fluid` command that writes a probe series, which
    `report` then renders. `model` holds the swarm parameters, passed
    both to the CLI and, in the traced pass, to trace.exe."""
    report_reps = 1
    setup_reps = 2
    setup_cap = 1000
    extra = []

    def inputs(self, seed):
        return {"seeds": sub_seeds(self.name, seed)}

    def prepare(self, inp):
        pass

    def series(self, tag="main"):
        return os.path.join(WORK, f"{self.name}.{tag}.series.jsonl")

    def command(self, inp, rep, horizon, tag):
        m = self.model
        return ([self.verb, "-k", str(m["k"]), "--us", str(m["us"]), "--mu", str(m["mu"]),
                 "--gamma", str(m["gamma"])]
                + [arg for a in m["arrive"] for arg in ("-a", a)] + self.extra
                + ["-t", repr(horizon), "--seed", str(inp["seeds"][rep % len(inp["seeds"])]),
                   "--metrics-out", self.series(tag)])

    def main(self, inp, rep):
        return self.command(inp, rep, self.horizon, "main")

    def setup(self, inp, rep):
        return self.command(inp, 0, 0.001, "setup")

    def report(self, inp, rep):
        return ["report", self.series()]

    def trace_input(self, inp):
        return dict(self.model, horizon=self.horizon, seed=inp["seeds"][0], series=self.series())


class Syndrome(SeriesWorkload):
    name = "syndrome"
    why = ("Theorem 1 transient (margin -5.7): the one-club grows linearly, so silent "
           "contacts are ~99.8% of events; a jump-chain backend's mechanism does its work here")
    verb = "simulate"
    model = {"k": 3, "us": 0.3, "mu": 2.0, "gamma": "inf", "arrive": ["none=2"]}
    horizon = 1500.0
    extra = ["--probe-interval", "0.05"]
    expect = "appears-unstable"
    trace_mode = "markov"

    def check(self, out, report_out, inp):
        fails = []
        if truncated(out):
            fails.append("truncated")
        got = verdict(kv(out).get("empirical verdict"))
        if got != self.expect:
            fails.append(f"simulate verdict {got!r}, expected {self.expect!r}")
        if self.expect == "appears-unstable":
            club = verdict(kv(report_out).get("one-club verdict"))
            if club != "appears-unstable":
                fails.append(f"report one-club verdict {club!r}")
        return fails

    def work(self, out, inp):
        return self.horizon, float(kv(out)["transfers"])

    def counts(self, out):
        d = kv(out)
        return {"events": int(d["events"]), "transfers": int(d["transfers"])}


class FlashCrowd(Syndrome):
    name = "flash_crowd"
    why = ("gamma < mu, so positive recurrent for any lambda; ~73% of events change state, "
           "so Policy/State do the work and a per-state-change cost would show")
    model = {"k": 8, "us": 2.0, "mu": 1.0, "gamma": 0.8, "arrive": ["none=20"]}
    horizon = 6000.0
    extra = ["--probe-interval", "1"]
    expect = "appears-stable"
    report_reps = 3


CODED_SPEC = {
    "schema": "p2p-campaign-spec", "version": 1, "name": "perfbench-coded",
    "hypothesis": "coded swarm (K=8, q=16, gamma=inf) over (lambda, U_s) in [0.25, 2]^2",
    "k": 8, "mu": 1.0, "gamma": "inf", "horizon": 200.0, "reps": 4, "policy": "random",
    "backend": "coded", "q": 16,
    "mode": {"type": "grid", "lambda": {"lo": 0.25, "hi": 2.0, "steps": 8},
             "us": {"lo": 0.25, "hi": 2.0, "steps": 8}},
}


class CodedCampaign:
    name = "coded_campaign"
    why = ("network-coding regime through Runner/Store/Spec: 64 cells x 4 reps of short runs, "
           "so per-run set-up and per-cell persistence count")
    # One domain: at --jobs 2 on a 2-vCPU shared machine the second domain
    # competes with other tenants, which the single-core speed reference
    # cannot see, and run medians split into two clusters 30% apart. The
    # traced pass still times --jobs 2 against --jobs 1 (runner.efficiency).
    jobs = 1
    trace_mode = "coded"
    report_reps = 10
    setup_reps = 2
    setup_cap = 1000

    def inputs(self, seed):
        master = sub_seeds(self.name, seed, 1)[0]
        spec = dict(CODED_SPEC, master_seed=master)
        setup = dict(spec, name="perfbench-coded-setup", horizon=1.0, reps=1,
                     mode={"type": "grid", "lambda": {"lo": 0.25, "hi": 0.25, "steps": 1},
                           "us": {"lo": 0.25, "hi": 0.25, "steps": 1}})
        os.makedirs(WORK, exist_ok=True)
        for path, doc in ((self.spec_path(), spec), (self.spec_path("setup"), setup)):
            with open(path, "w") as f:
                json.dump(doc, f)
        return {"spec": spec}

    def spec_path(self, tag="main"):
        return os.path.join(WORK, f"coded.{tag}.spec.json")

    def store(self, tag="main"):
        return os.path.join(WORK, f"coded.{tag}.store")

    def main(self, inp, rep):
        shutil.rmtree(self.store(), ignore_errors=True)
        return ["campaign", "run", self.spec_path(), "--dir", self.store(), "--jobs", str(self.jobs)]

    def report(self, inp, rep):
        return ["campaign", "status", "--dir", self.store()]

    def setup(self, inp, rep):
        shutil.rmtree(self.store("setup"), ignore_errors=True)
        return ["campaign", "run", self.spec_path("setup"), "--dir", self.store("setup"),
                "--jobs", str(self.jobs)]

    def records(self):
        with open(os.path.join(self.store(), "results.jsonl")) as f:
            return [json.loads(line) for line in f if line.strip()]

    def check(self, out, report_out, inp):
        fails = []
        if kv(out).get("failed cells") != "0":
            fails.append(f"failed cells: {kv(out).get('failed cells')}")
        try:
            recs = self.records()
        except (OSError, ValueError) as e:
            return fails + [f"results.jsonl: {e}"]
        mode = inp["spec"]["mode"]
        if len(recs) != mode["lambda"]["steps"] * mode["us"]["steps"]:
            fails.append(f"{len(recs)} records")
        for r in recs:
            if r.get("status") != "ok":
                fails.append(f"cell {r.get('cell')} status {r.get('status')}")
            elif r.get("theory") == "positive-recurrent" and r.get("verdict") != "stable":
                fails.append(f"cell {r.get('cell')}: positive-recurrent but {r.get('verdict')}")
        return fails

    def work(self, out, inp):
        spec = inp["spec"]
        mode = spec["mode"]
        cells = mode["lambda"]["steps"] * mode["us"]["steps"]
        return cells * spec["reps"] * spec["horizon"], float(inp["useful_transfers"])

    def counts(self, out):
        return {"mismatched_records": 0}

    def prepare(self, inp):
        """The campaign prints no transfer count: count the innovative
        vectors its runs deliver once, in-process, on the same seeds."""
        res = trace_helper(["coded-count", write_trace_input(self.trace_input(inp))])
        inp["useful_transfers"] = res["counts"]["useful_transfers"]

    def trace_input(self, inp):
        return {"spec": self.spec_path(), "seed": inp["spec"]["master_seed"],
                "results": os.path.join(self.store(), "results.jsonl"),
                "store_dir": os.path.join(WORK, "trace.store")}


class FluidMega(SeriesWorkload):
    name = "fluid_mega"
    why = ("a million-peer flash crowd in the deterministic fluid limit: ~2k RHS evaluations "
           "at ~2 ms (K=8) are nearly all the wall, and Engine does almost nothing")
    verb = "fluid"
    model = {"k": 8, "us": 1.0, "mu": 1.0, "gamma": 2.0, "arrive": ["none=100"], "init": 1e6}
    extra = ["--init", "none=1e6"]
    horizon = 100.0
    trace_mode = "fluid"
    report_reps = 25
    # A near-zero horizon still integrates through the 200 sampling-grid
    # barriers of every fluid run (~3 s at K = 8): fixed per-run cost.
    # Three samples a run leave time for one more main repetition.
    setup_reps = 1
    setup_cap = 3
    # The fluid limit draws nothing without faults: the derived seeds are
    # passed through, and the work is the same for every seed.

    def check(self, out, report_out, inp):
        fails = []
        if truncated(out):
            fails.append("truncated")
        d = kv(out)
        init = self.model["init"]
        try:
            a, dep, fin = d["arrival mass"], d["departure mass"], d["final N"]
            gap = abs(init + float(a) - float(dep) - float(fin))
            tol = half_ulp(a) + half_ulp(dep) + half_ulp(fin) + 1e-9 * (init + float(a))
            if gap > tol:
                fails.append(f"mass balance off by {gap:g} (tolerance {tol:g})")
        except (KeyError, ValueError) as e:
            fails.append(f"unparsable output: {e}")
        return fails

    def work(self, out, inp):
        return self.horizon, float(kv(out)["transfer mass"])

    def counts(self, out):
        d = kv(out)
        return {"steps": int(d["accepted steps"]), "rejected_steps": int(d["rejected steps"]),
                "rhs_evals": int(d["rhs evaluations"]), "mass_balance_ok": 1}


WORKLOADS = {w.name: w for w in (Syndrome(), FlashCrowd(), CodedCampaign(), FluidMega())}


# ---- processes ----


class ChildFailed(Exception):
    pass


def run_child(argv, label):
    """Run one process to completion. Returns (wall seconds, peak RSS in
    MB, stdout). Wall time runs from spawn to exit."""
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    if proc.returncode != 0:
        with open(err_path) as f:
            raise ChildFailed(f"{label}: exit {proc.returncode}: {f.read()[-500:]}")
    return wall, usage.ru_maxrss / 1024.0, text


def p2psim(argv, label):
    return run_child([P2PSIM] + argv, label)


def write_trace_input(doc):
    path = os.path.join(WORK, "trace.input.json")
    if "store_dir" in doc:
        shutil.rmtree(doc["store_dir"], ignore_errors=True)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def trace_helper(argv):
    _, _, text = run_child([TRACE] + argv, "trace.exe " + argv[0])
    return json.loads(text.strip().splitlines()[-1])


def build():
    for needed in ("dune-project", os.path.join("bin", "p2psim.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found under {ROOT}; run from a source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    res = subprocess.run(
        ["dune", "build", "--root", ".", "bin/p2psim.exe", "perfbench/trace.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=850)
    if res.returncode != 0:
        sys.exit("perfbench: build failed\n" + res.stdout[-2000:])


# ---- the two passes ----


def untraced(w, seed, seconds, check=None):
    """Returns (metrics {name: value}, attempted, failed, raw): the
    metrics at reference speed, and the medians as timed with the
    run's median slowdown."""
    check = check or w.check
    inp = w.inputs(seed)
    w.prepare(inp)
    # name -> [(value as timed, slowdown around the command that gave it)]
    samples = {name: [] for name in END_TO_END}
    references = []

    def reference():
        references.append(run_child([TRACE] + REFERENCE, "reference")[0])

    def bracketed(commands):
        """Run the commands, then the reference. Returns their results and
        the slowdown measured just before and just after them."""
        results = [command() for command in commands]
        reference()
        return results, (references[-2] + references[-1]) / (2 * REFERENCE_S)

    attempted = failed = 0
    t0 = time.perf_counter()
    reference()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - t0 < seconds:
        attempted += 1
        setups, setup_slowdown = [], 1.0
        try:
            [(wall, rss, out)], main_slowdown = bracketed(
                [lambda: p2psim(w.main(inp, rep), "main")])
            reports, report_slowdown = bracketed(
                [lambda: p2psim(w.report(inp, rep), "report")] * w.report_reps)
            fails = check(out, reports[-1][2], inp)
            if len(samples["setup_s"]) < w.setup_cap:
                setups, setup_slowdown = bracketed(
                    [lambda: p2psim(w.setup(inp, rep), "setup")] * w.setup_reps)
        except ChildFailed as e:
            fails = [str(e)]
            reference()
        rep += 1
        if fails:
            failed += 1
            print(f"check failed ({w.name}, repetition {rep - 1}): {'; '.join(fails)}",
                  file=sys.stderr)
            continue
        sim_time, transfers = w.work(out, inp)
        for name, value in (("wall_s", wall), ("peak_rss_mb", rss),
                            ("sim_time_per_s", sim_time / wall),
                            ("transfers_per_s", transfers / wall)):
            samples[name].append((value, main_slowdown))
        samples["report_s"] += [(r[0], report_slowdown) for r in reports]
        samples["setup_s"] += [(s[0], setup_slowdown) for s in setups]
    if not samples["wall_s"] or not samples["setup_s"]:
        raise ChildFailed(f"every repetition of {w.name} failed")
    raw = {name: statistics.median(v for v, _ in s) for name, s in samples.items()}
    metrics = {name: statistics.median(v * k ** SPEED_EXPONENT[END_TO_END[name]] for v, k in s)
               for name, s in samples.items()}
    return metrics, attempted, failed, dict(raw, slowdown=statistics.median(references) / REFERENCE_S)


def traced(w, seed, seconds):
    """Returns (metrics {name: value}, attempted, failed, {}). Two checks: the
    untraced run's outputs, and the traced counts against its public
    stats (and the in-process bare run's)."""
    t0 = time.perf_counter()
    inp = w.inputs(seed)
    _, _, out = p2psim(w.main(inp, 0), "main")
    _, _, report_out = p2psim(w.report(inp, 0), "report")
    fails = w.check(out, report_out, inp)
    budget = max(1.0, seconds - (time.perf_counter() - t0))
    path = write_trace_input(dict(w.trace_input(inp), budget_s=budget))
    res = trace_helper([w.trace_mode, path, os.path.join(WORK, f"spans.{w.name}.json")])
    expected = dict(w.counts(out), bare_traced_differ=0)
    differ = [f"{k}: expected {v}, traced {res['counts'].get(k)}"
              for k, v in expected.items() if res["counts"].get(k) != v]
    for what, problems in (("check failed", fails), ("traced counts differ", differ)):
        if problems:
            print(f"{what} ({w.name}): {'; '.join(problems)}", file=sys.stderr)
    metrics = {name: float(res["metrics"].get(name, 0.0)) for name in PER_LAYER}
    return metrics, 2, bool(fails) + bool(differ), {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    build()
    os.makedirs(WORK, exist_ok=True)
    w = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, attempted, failed, raw = traced(w, args.seed, args.seconds)
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
        else:
            metrics, attempted, failed, raw = untraced(w, args.seed, args.seconds)
            units = END_TO_END
    except ChildFailed as e:
        sys.exit(f"perfbench: {e}")
    for name, value in metrics.items():
        timed = f"  (as timed: {raw[name]:.6g})" if name in raw else ""
        print(f"{name:<34} {value:.6g} {units[name]}{timed}")
    if "slowdown" in raw:
        print(f"{'reference_slowdown':<34} {raw['slowdown']:.6g} ratio")
    print(f"{'failed_frac':<34} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
