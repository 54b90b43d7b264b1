"""metriclie benchmark: end-to-end CLI times, or per-layer times from a
traced run, on one seeded workload.

    python3 perfbench/run.py --workload catalog-shipped --seed 1 \
        --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports metriclie from the
checkout's ``src``.  Every call is ``metriclie.cli.main(argv)`` in this one
process, one call per (command, input), with ``--format json --output``.
Inputs are written by ``gen.py`` into a temporary directory under the
checkout, which is removed at the end.

``--trace 0`` repeats whole passes over the workload while another pass
still fits in ``--seconds`` (always at least one) and reports the median
time of each call.  ``--trace 1`` runs one untraced pass and two traced
passes (see ``spans.py``); the traced passes must write the same bytes as
the untraced one and give the same counters as each other.

On a shared host the speed this process gets drifts by 20-40 % over
minutes, and every call of a run drifts with it.  So between calls the
benchmark also times a fixed exact-rational elimination that runs no
metriclie code, and scales the time of each call by ``CAL_REF_S`` over the
kernel's time around that call.  The unscaled times are printed on the
comment lines before the result.

Every call is checked: its exit code, the facts that hold whatever the
seed, and the SHA-256 of its output where ``refs.json`` knows the input.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 if any call failed.
``--write-refs`` records the reference digests (and, for catalog-shipped,
the decomposition shapes) from the run instead of checking them.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
REF_SEED = 1

ANALYZE = ("validate", "connection", "curvature", "ricci", "classify", "ann",
           "filtration")
DECOMPOSE = ("decompose",)
UNIQUENESS = ("compare", "isometry")
SINGLE_COMMANDS = ANALYZE[:6] + DECOMPOSE + ANALYZE[6:]

CAL_EVERY_S = 0.5      # at most this often, time the calibration kernel
CAL_BURST = 3          # times in a row
CAL_REF_S = 0.008      # kernel time that reported times are scaled to
CALL_LIMIT_S = 30      # a call that runs longer fails
RUN_DEADLINE_S = 160   # calls not finished by then fail
SETUP_REPEATS = 15

# Nonzero exit codes the contract prescribes: the strong-isometry builder
# refuses structures whose one- and two-sided annihilators differ.
EXPECTED_EXIT = {("isometry", "e2_flat"): 2}

# Catalog facts that depend on the basis, so hold only as shipped.
BASIS_FACTS = {"killing_matrix", "killing_diagonal", "ricci_diagonal"}


def plan(workload, inputs):
    """The (command, input name) calls of one pass, input by input, so that
    each end-to-end metric samples the whole pass.

    compare and isometry decompose a second, randomly re-based copy of
    their input, which costs like a generic basis; they run on the inputs
    of dimension <= 5 as shipped, <= 3 in a generic basis, and on the
    bottom ladder rung."""
    dims = {name: json.loads(text)["dim"] for name, text, _ in inputs}
    if workload == "family-ladder":
        bottom = min(dims, key=dims.get)
        return [(c, n) for n in dims
                for c in ("classify", "decompose")
                + (UNIQUENESS if n == bottom else ())]
    max_dim = 5 if workload == "catalog-shipped" else 3
    return [(c, n) for n in dims
            for c in SINGLE_COMMANDS + (UNIQUENESS if dims[n] <= max_dim
                                        else ())]


# ---------------------------------------------------------------------------
# output gate


def _shape(out):
    return {"case": out["case"],
            "factor_dims": sorted(f["dim"] for f in out["factors"]),
            "evidence": sorted(e["kind"]
                               for e in out["certificate"]
                               ["indecomposability_evidence"])}


def _shown_facts(command, out):
    """Catalog fact names that this command's output shows."""
    shown = {"dim": out["dim"]}
    if command == "validate":
        shown["jacobi_fails"] = not out["jacobi_ok"]
    elif command == "curvature":
        shown["flat"] = out["flat"]
    elif command == "ricci":
        shown["ricci_diagonal"] = [r[i] for i, r in enumerate(out["matrix"])]
        shown["ricci_flat"] = all(x == "0" for r in out["matrix"] for x in r)
    elif command == "classify":
        for k in ("flat", "ricci_flat", "einstein", "biinvariant",
                  "nilpotency_class", "signature"):
            shown[k] = out[k]
        shown["killing_matrix"] = out["killing"]
        shown["killing_diagonal"] = [r[i] for i, r in enumerate(out["killing"])]
    elif command == "ann":
        shown.update(case=out["case"], ann_r_dim=out["ann_r"]["dim"],
                     ann_dim=out["ann"]["dim"])
    elif command == "decompose":
        shape = _shape(out)
        shown.update(case=out["case"], factor_count=out["factor_count"],
                     factor_dims=shape["factor_dims"],
                     g0_dim=0 if out["g0"] is None else out["g0"]["dim"],
                     orthogonal=out["orthogonal"],
                     has_note=out["note"] is not None,
                     evidence=shape["evidence"])
    elif command == "filtration":
        shown["filtration_dims"] = out["chain_dims"]
        shown["h_block_dims"] = [b["dim"] for b in out["h_blocks"]]
    return shown


def check_call(workload, command, name, facts, rc, data, refs):
    """None if the call's output passes every seed-independent check,
    else the reason it fails."""
    want_rc = EXPECTED_EXIT.get((command, name), 0)
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if rc != 0:
        return None
    try:
        out = json.loads(data)
        shown = _shown_facts(command, out)
        shape = _shape(out) if command == "decompose" else None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output ({exc!r})"
    for key, value in shown.items():
        if key not in facts or (workload != "catalog-shipped"
                                and key in BASIS_FACTS):
            continue
        expected = facts[key]
        if key in ("factor_dims", "evidence"):
            expected = sorted(expected)
        if value != expected:
            return f"{key} is {value!r}, expected {expected!r}"
    if (shape is not None and workload == "catalog-generic"
            and shape != refs["shapes"][name]):
        return (f"decomposition {shape} differs from the shipped basis "
                f"{refs['shapes'][name]}")
    return None


# ---------------------------------------------------------------------------
# running calls


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call that overran its limit."""


def _on_alarm(signum, frame):
    raise CallTimeout


def calibrate():
    """Seconds taken by a fixed 12 x 12 rational elimination, with the
    collector off, so that it measures only the speed of the host."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        a = [[Fraction((i * 7 + j * j * 3 + 1) % 11 + 13 * (i == j), j + 2)
              for j in range(12)] for i in range(12)]
        for c in range(12):
            for r in range(12):
                if r != c:
                    f = a[r][c] / a[c][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_pass(cli, calls, deadline):
    """One pass: [(seconds, exit code or None, output bytes, error, scale)].

    The kernel is timed in bursts before a call, at most every CAL_EVERY_S,
    and after the last call; ``scale`` is CAL_REF_S over the mean of the
    bursts just before and just after the call."""
    results, bursts = [], []   # bursts: (index of the next call, seconds)
    last = float("-inf")
    for i, (command, name) in enumerate(calls):
        if time.perf_counter() - last >= CAL_EVERY_S:
            bursts.append((i, statistics.mean(calibrate()
                                              for _ in range(CAL_BURST))))
            last = time.perf_counter()
        out = f"{command}-{name}.out.json"
        if os.path.exists(out):
            os.remove(out)
        limit = min(CALL_LIMIT_S, deadline - time.monotonic())
        if limit <= 0:
            results.append([0.0, None, b"", "run deadline passed"])
            continue
        argv = [command, "--input", f"{name}.json", "--format", "json",
                "--output", out]
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            with contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except CallTimeout:
            error = f"exceeded {limit:.0f} s"
        except (Exception, SystemExit):   # a failed call, not a stop
            error = traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        data = Path(out).read_bytes() if os.path.exists(out) else b""
        results.append([dt, rc, data, error])
    bursts.append((len(calls), statistics.mean(calibrate()
                                               for _ in range(CAL_BURST))))
    k = 0
    for i, r in enumerate(results):
        while bursts[k + 1][0] <= i:
            k += 1
        r.append(2 * CAL_REF_S / (bursts[k][1] + bursts[k + 1][1]))
    return [tuple(r) for r in results]


def _scaled(results):
    return sum(r[0] * r[4] for r in results)


def measure_setup(files):
    """Median time to import metriclie and parse every input."""
    times = []
    for _ in range(SETUP_REPEATS):
        for mod in [m for m in sys.modules
                    if m == "metriclie" or m.startswith("metriclie.")]:
            del sys.modules[mod]
        t0 = time.perf_counter()
        importlib.import_module("metriclie.cli")
        load = sys.modules["metriclie"].load_path
        for f in files:
            load(f)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def e2e_metrics(calls, passes, setup_s):
    per_call = [statistics.median(p[i][0] * p[i][4] for p in passes)
                for i in range(len(calls))]

    def total(commands):
        return sum(t for (c, _), t in zip(calls, per_call) if c in commands)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # set-up ran just before the first kernel burst
    return {"setup_s": _metric(setup_s * passes[0][0][4], "s"),
            "pipeline_s": _metric(sum(per_call), "s"),
            "analyze_s": _metric(total(ANALYZE), "s"),
            "decompose_s": _metric(total(DECOMPOSE), "s"),
            "uniqueness_s": _metric(total(UNIQUENESS), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB")}


def layer_metrics(untraced, traced):
    """Per-layer metrics from the untraced pass and two traced passes
    [(results, tracer totals, counters)]; each pass's self times are scaled
    by its time-weighted mean scale."""
    (res_a, tot_a, cnt), (res_b, tot_b, _) = traced
    scale_a = _scaled(res_a) / sum(r[0] for r in res_a)
    scale_b = _scaled(res_b) / sum(r[0] for r in res_b)
    m = {}
    for layer, (calls, self_a) in tot_a.items():
        m[f"{layer}.calls"] = _metric(calls, "count")
        m[f"{layer}.self_ms"] = _metric(1000 * statistics.median(
            [self_a * scale_a, tot_b[layer][1] * scale_b]), "ms")
    units = {"decompose.commutant.dim_max": "count",
             "decompose.search.candidates": "count",
             "decompose.search.splits": "count",
             "linalg.bits_max": "bits", "cli.render.bytes": "bytes"}
    for key, unit in units.items():
        m[key] = _metric(cnt[key], unit)
    cand = cnt["decompose.search.candidates"]
    m["decompose.search.hit_ratio"] = _metric(
        cnt["decompose.search.splits"] / cand if cand else 0.0, "ratio")
    m["trace.overhead_s"] = _metric(statistics.median(
        [_scaled(res_a), _scaled(res_b)]) - _scaled(untraced), "s")
    return m


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog-shipped", "catalog-generic",
                             "family-ladder"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-refs", action="store_true")
    args = ap.parse_args(argv)
    if args.write_refs and args.seed != REF_SEED:
        ap.error(f"references are recorded at seed {REF_SEED}")

    src = ROOT / "src"
    if not (src / "metriclie" / "__init__.py").is_file():
        sys.exit(f"perfbench: no metriclie package under {src}")
    sys.path.insert(0, str(src))
    deadline = time.monotonic() + RUN_DEADLINE_S
    signal.signal(signal.SIGALRM, _on_alarm)
    import gen
    from spans import Tracer

    refs = json.loads(REFS.read_text()) if REFS.exists() else {
        "shapes": {}, "digests": {}}
    inputs = gen.generate(args.workload, args.seed)
    calls = plan(args.workload, inputs)
    facts = {name: f for name, _, f in inputs}
    texts = {name: t for name, t, _ in inputs}

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        os.chdir(work)
        for name, text in texts.items():
            Path(f"{name}.json").write_text(text, encoding="utf-8")
        setup_s = measure_setup([f"{n}.json" for n in texts])
        cli = sys.modules["metriclie.cli"]
        passes, traced = [], []
        if args.trace:
            passes.append(run_pass(cli, calls, deadline))
            for _ in range(2):
                tracer = Tracer()
                tracer.install()
                try:
                    res = run_pass(cli, calls, deadline)
                finally:
                    tracer.uninstall()
                passes.append(res)
                traced.append((res, tracer.layer_totals(), tracer.counters))
            spans_dir = ROOT / ".perfbench-out"
            spans_dir.mkdir(exist_ok=True)
            tracer.dump(spans_dir / f"{args.workload}-{args.seed}.spans.jsonl")
        else:
            start = time.monotonic()
            while True:
                passes.append(run_pass(cli, calls, deadline))
                last = sum(r[0] for r in passes[-1])
                if time.monotonic() - start + last > args.seconds:
                    break
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)

    digests = refs["digests"].setdefault(args.workload, {})
    failures = []
    for i, (command, name) in enumerate(calls):
        key = f"{command} {name}"
        _, rc, data, error, _ = passes[0][i]
        reason = error or check_call(args.workload, command, name,
                                     facts[name], rc, data, refs)
        ref = digests.get(key)
        in_sha, out_sha = _sha(texts[name].encode()), _sha(data)
        if args.write_refs:
            digests[key] = [in_sha, out_sha]
            if args.workload == "catalog-shipped" and command == "decompose":
                refs["shapes"][name] = _shape(json.loads(data))
        elif not reason and ref and ref[0] == in_sha and ref[1] != out_sha:
            reason = "output digest differs from the reference"
        for k, p in enumerate(passes):
            _, rc_k, data_k, error_k, _ = p[i]
            why = reason or error_k or (
                "output differs from the first pass"
                if (rc_k, data_k) != (rc, data) else None)
            if why:
                failures.append(f"pass {k} {key}: {why}")
    consistent = True
    if args.trace:
        (_, tot_a, cnt_a), (_, tot_b, cnt_b) = traced
        consistent = cnt_a == cnt_b and all(
            tot_a[layer][0] == tot_b[layer][0] for layer in tot_a)
        if not consistent:
            print("FAIL counters differ between the two traced passes",
                  file=sys.stderr)
        metrics = layer_metrics(passes[0], traced)
    else:
        metrics = e2e_metrics(calls, passes, setup_s)
    if args.write_refs:
        REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    attempted = len(calls) * len(passes)
    failed = len(failures)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(calls)} calls, fail_ratio {failed / attempted:.4f}")
    raw = sum(r[0] for r in passes[0])
    print(f"# first pass: {raw:.4f} s as timed, {_scaled(passes[0]):.4f} s "
          f"scaled; set-up {setup_s:.4f} s as timed")
    for key, m in metrics.items():
        print(f"#   {key} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and consistent
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
