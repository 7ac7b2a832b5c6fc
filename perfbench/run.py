#!/usr/bin/env python3
"""The repository's benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
    python3 perfbench/run.py --regen-reference

Run from the repository root. A workload run builds the runner
(perfbench/perfbench.exe) with dune, sets up three times (twice in
throwaway processes, once in the measuring one), measures for the given
seconds and prints one JSON line: correct, attempted, failed, and the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1), each with its unit. The full result, with a
provenance header, goes to .perfbench/results/.

Every op's grids are checked bitwise against perfbench/reference.tsv,
written by the FIR interpreter (Pipeline.flang_only); --regen-reference
rewrites it.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT = ".perfbench"
REFERENCE = os.path.join("perfbench", "reference.tsv")
WORKLOADS = ("exec-steady", "exec-parallel", "cold-start", "serve-mix")

# The host-speed probe's median time (perfbench/calib.ml) on the host the
# benchmark was sized on, at full speed. The metrics in SCALED are
# multiplied by PROBE_REFERENCE_MS / (the run's own probe median), so a
# host running memory-bound loops 50% slower for a few minutes reads about
# the same. They are the ones that slow down with the probe: generated
# kernels (1.6x against the probe's 1.55x in one slow spell) and the
# serve-mix request path, whose latencies and compiles moved by up to
# 1.5-2x with the host's slow spells while back-to-back runs of one seed
# agreed within 5%. Cold-start ops and exec compiles do not (1.18x
# against 1.57x), and scaling them widened their spread.
PROBE_REFERENCE_MS = 0.11
SCALED = {"exec-steady": ("latency_p50_ms", "latency_p90_ms"),
          "exec-parallel": ("latency_p50_ms", "latency_p90_ms"),
          "serve-mix": ("latency_p50_ms", "latency_p90_ms", "compile_p50_ms")}

# serve-mix: the latency limit behind goodput, and the generator's
# validity limit: 20% of the light rate's mean inter-arrival time (the
# runner fixes the light rate at 20 req/s).
SERVE_LIMIT_MS = 100.0
LIGHT_INTERARRIVAL_MS = 50.0
LAG_LIMIT_MS = 0.2 * LIGHT_INTERARRIVAL_MS


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- build


def tool_env():
    """Environment for dune and the runner: every cache and temp file
    stays inside the checkout."""
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    for var, sub in (("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "xdg")):
        path = os.path.abspath(os.path.join(OUT, sub))
        os.makedirs(path, exist_ok=True)
        env[var] = path
    return env


def require_checkout():
    for need in ("dune-project", os.path.join("lib", "driver", "pipeline.ml"),
                 os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("not a source checkout (missing %s); run from the "
                 "repository root" % need)


def build(env):
    require_checkout()
    if shutil.which("dune", path=env.get("PATH")) is None:
        fail("dune not found on PATH")
    r = subprocess.run(["dune", "build", "--root", ".", "./" + EXE],
                       env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, timeout=880)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        fail("build failed")


# ---------------------------------------------------------------- runner


def wait_rss(proc, timeout):
    """Wait for the runner; return (exit code, peak RSS in MB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, ru.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            fail("runner timed out")
        time.sleep(0.01)


def runner(env, args, **kw):
    return subprocess.Popen([EXE] + args, env=env, **kw)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def setup_only(env, workload, rundir, k):
    out = os.path.join(rundir, "setup-%d.json" % k)
    sock = os.path.join(rundir, "setup-%d.sock" % k)
    proc = runner(env, [workload, "--setup-only", "--out", out,
                        "--socket", sock])
    code, _ = wait_rss(proc, 170)
    if code != 0:
        fail("%s set-up failed (exit %d)" % (workload, code))
    return read_json(out)["setup_s"]


def run_closed(env, workload, a, rundir):
    out = os.path.join(rundir, "result.json")
    proc = runner(env, [workload, "--seed", str(a.seed), "--seconds",
                        str(a.seconds), "--trace", str(a.trace), "--out", out])
    code, rss = wait_rss(proc, 175)
    if code != 0:
        fail("%s failed (exit %d)" % (workload, code))
    return read_json(out), rss


# ---------------------------------------------------------------- serve-mix


def quantile(xs, q):
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def send_recv(path, line, timeout=30.0):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(path)
        s.sendall((line + "\n").encode())
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
        return b"".join(chunks).decode()
    finally:
        s.close()


def drive(path, reqs, toggle):
    """The open-loop generator: one thread, one connection per request,
    each sent at its scheduled time whatever is still outstanding.
    Latency runs from the scheduled time to the complete reply; lag is
    how late the send started. toggle(i) runs before request i is due."""
    sel = selectors.DefaultSelector()
    pending = {}
    done = []
    i, n = 0, len(reqs)
    t0 = time.perf_counter() + 0.05
    last_due = t0 + (reqs[-1]["due"] if reqs else 0.0)
    while i < n or pending:
        now = time.perf_counter()
        while i < n and t0 + reqs[i]["due"] <= now:
            r = reqs[i]
            toggle(i)
            due = t0 + r["due"]
            lag = time.perf_counter() - due
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                s.sendall((r["line"] + "\n").encode())
                s.shutdown(socket.SHUT_WR)
            except OSError as e:
                s.close()
                done.append((r, None, lag, "send: %s" % e))
            else:
                s.setblocking(False)
                sel.register(s, selectors.EVENT_READ)
                pending[s] = (r, due, lag, [])
            i += 1
            now = time.perf_counter()
        if now > last_due + 60.0:
            for s, (r, _, lag, _) in pending.items():
                done.append((r, None, lag, "no reply within 60 s"))
                s.close()
            break
        wait = (t0 + reqs[i]["due"] - now) if i < n else 0.5
        for key, _ in sel.select(max(0.0, min(wait, 0.5))):
            s = key.fileobj
            data = s.recv(65536)
            if data:
                pending[s][3].append(data)
                continue
            t_done = time.perf_counter()
            sel.unregister(s)
            s.close()
            r, due, lag, chunks = pending.pop(s)
            done.append((r, (t_done - due) * 1000.0, lag,
                         b"".join(chunks).decode()))
    sel.close()
    return done


def load_reference():
    ref = {}
    with open(REFERENCE) as f:
        for line in f:
            key, _, sums = line.rstrip("\n").partition("\t")
            ref[key] = sums
    return ref


def check_reply(ref, r, latency, text):
    """(ok, reply dict or None, reason)."""
    if latency is None:
        return False, None, text
    try:
        reply = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return False, None, "malformed reply"
    if reply.get("status") != "ok":
        return False, reply, "%s: status %s %s" % (
            r["key"], reply.get("status"),
            reply.get("error", reply.get("reason", "")))
    sums = ",".join("%s=%s" % kv for kv in sorted(reply["checksums"].items()))
    if sums != ref.get(r["key"]):
        return False, reply, "%s: checksums %s, reference %s" % (
            r["key"], sums, ref.get(r["key"]))
    return True, reply, ""


def serve_once(env, a, rundir, ref):
    out = os.path.join(rundir, "result.json")
    sock = os.path.join(rundir, "s.sock")
    reqfile = os.path.join(rundir, "requests.jsonl")
    proc = runner(env, ["serve-mix", "--seed", str(a.seed), "--seconds",
                        str(a.seconds), "--trace", str(a.trace), "--out", out,
                        "--socket", sock, "--requests", reqfile],
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.readline().decode().strip()
        if ready != "READY":
            raise RuntimeError("server did not start")
        with open(reqfile) as f:
            reqs = [json.loads(line) for line in f]
        light = [i for i, r in enumerate(reqs) if r["phase"] == "light"]
        # a traced run traces the second half of the light phase and all
        # of the heavy one; the untraced half gives the overhead
        switch = light[len(light) // 2] if (a.trace and light) else None

        def toggle(i):
            if i == switch:
                proc.stdin.write(b"trace 1\n")
                proc.stdin.flush()

        done = drive(sock, reqs, toggle)
        metrics = json.loads(send_recv(sock, '{"action": "metrics"}'))
        proc.stdin.write(b"stop\n")
        proc.stdin.close()
    except Exception:
        proc.kill()
        wait_rss(proc, 30)
        raise
    code, rss = wait_rss(proc, 60)
    if code != 0:
        fail("serve-mix runner failed (exit %d)" % code)
    res = read_json(out)
    rows = []
    for r, latency, lag, text in done:
        ok, reply, why = check_reply(ref, r, latency, text)
        rows.append({"id": r["id"], "phase": r["phase"], "cold": r["cold"],
                     "traced": switch is not None and r["id"] >= switch,
                     "ok": ok, "why": why, "latency_ms": latency,
                     "lag_ms": lag * 1000.0, "reply": reply})
    return res, rss, rows, metrics


def serve_metrics(a, res, rows, metrics):
    lag_p95 = quantile([r["lag_ms"] for r in rows], 0.95)
    light = [r for r in rows if r["phase"] == "light"]
    heavy = [r for r in rows if r["phase"] == "heavy"]
    ok_lat = lambda rs: [r["latency_ms"] for r in rs if r["ok"]]
    light_untraced = [r for r in light if not r["traced"]]
    cold = [r["reply"]["compile_ms"] for r in rows
            if r["ok"] and r["reply"]["cache"] == "miss"]
    heavy_good = sum(1 for r in heavy
                     if r["ok"] and r["latency_ms"] <= SERVE_LIMIT_MS)
    out = {}
    if not a.trace:
        out = {"latency_p50_ms": quantile(ok_lat(rows), 0.5),
               "latency_p90_ms": quantile(ok_lat(rows), 0.9),
               "compile_p50_ms": quantile(cold, 0.5),
               "goodput_ratio": heavy_good / max(1, len(heavy))}
    else:
        sched = metrics["scheduler"]
        oks = [r for r in rows if r["ok"]]
        mean = lambda xs: sum(xs) / max(1, len(xs))
        wait = sched["total_wait_ms"] / max(1, sched["completed"])
        comp = mean([r["reply"]["compile_ms"] for r in oks])
        run = mean([r["reply"]["run_ms"] for r in oks])
        lat = mean([r["latency_ms"] for r in oks])
        io = lat - wait - comp - run
        traced_p50 = quantile(ok_lat([r for r in light if r["traced"]]), 0.5)
        untraced_p50 = quantile(ok_lat(light_untraced), 0.5)
        out = dict(res["metrics"])
        out.update({
            "server.queue_wait_ms": wait,
            "server.compile_ms": comp,
            "server.run_ms": run,
            "server.io_ms": io,
            "server.shed_ratio": sched["shed"] / max(1, sched["submitted"]),
            "server.max_queue_depth": sched["max_queue_depth"],
            "gen.lag_p95_ms": lag_p95,
            "serve_light_p95_ms": quantile(ok_lat(light), 0.95),
            "serve_heavy_p95_ms": quantile(ok_lat(heavy), 0.95),
            "trace.unaccounted_pct": 100.0 * io / lat if lat else 0.0,
            "trace.overhead_pct":
                100.0 * (traced_p50 / untraced_p50 - 1.0) if untraced_p50
                else 0.0,
        })
    detail = {"light_p50_ms": quantile(ok_lat(light), 0.5),
              "heavy_p50_ms": quantile(ok_lat(heavy), 0.5),
              "requests": len(rows), "light": len(light), "heavy": len(heavy),
              "cold": sum(1 for r in rows if r["cold"]),
              "gen_lag_p95_ms": lag_p95, "lag_limit_ms": LAG_LIMIT_MS,
              "heavy_within_limit": heavy_good,
              "serve_limit_ms": SERVE_LIMIT_MS,
              "scheduler": metrics.get("scheduler"),
              "failures": [r["why"] for r in rows if not r["ok"]][:10]}
    return out, detail, lag_p95


def run_serve(env, a, rundir):
    ref = load_reference()
    invalid = []
    for attempt in range(2):
        res, rss, rows, metrics = serve_once(env, a, rundir, ref)
        out, detail, lag = serve_metrics(a, res, rows, metrics)
        if lag <= LAG_LIMIT_MS:
            detail["invalid_attempts"] = invalid
            res["attempted"] += len(rows)
            res["failed"] += sum(1 for r in rows if not r["ok"])
            res["failure_notes"] += detail["failures"]
            res["metrics"] = out
            res["detail"].update(detail)
            return res, rss
        # a late generator measured itself, not the server: report the
        # attempt as invalid and measure again
        invalid.append({"gen_lag_p95_ms": lag})
        print("perfbench: serve-mix attempt invalid (generator lag p95 "
              "%.2f ms > %.2f ms)" % (lag, LAG_LIMIT_MS), file=sys.stderr)
    fail("serve-mix invalid: the generator ran late on every attempt", 3)


# ---------------------------------------------------------------- provenance


def provenance(res):
    rev = "unknown"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
        if r.returncode == 0:
            rev = r.stdout.decode().strip()
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        digest.update(name.encode() + f.read())
    try:
        l2 = os.sysconf("SC_LEVEL2_CACHE_SIZE")
    except (ValueError, OSError):
        l2 = 0
    head = {"git_rev": rev, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "l2_kb_per_core": l2 // 1024 if l2 else None}
    head.update(res.get("header", {}))
    return head


# ---------------------------------------------------------------- one run


def run_workload(a):
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    if a.workload not in names:
        fail("unknown workload %r (have: %s)" % (a.workload, ", ".join(names)))
    require_checkout()
    env = tool_env()
    build(env)
    rundir = os.path.join(OUT, "run-%d" % os.getpid())
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        setups = [setup_only(env, a.workload, rundir, k) for k in range(2)]
        if a.workload == "serve-mix":
            res, rss = run_serve(env, a, rundir)
        else:
            res, rss = run_closed(env, a.workload, a, rundir)
        setups.append(res["setup_s"])
        trace_file = os.path.join(rundir, "result.trace.json")
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        stem = os.path.join(OUT, "results", "%s-seed%d-trace%d-%d" % (
            a.workload, a.seed, a.trace, int(time.time() * 1000)))
        if os.path.exists(trace_file):
            shutil.move(trace_file, stem + ".trace.json")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    declared = s["per_layer" if a.trace else "end_to_end"]
    got = dict(res["metrics"])
    unscaled = {}
    if not a.trace:
        for name in SCALED.get(a.workload, ()):
            unscaled[name] = got[name]
            got[name] *= PROBE_REFERENCE_MS / res["probe_ms"]
        got["setup_s"] = statistics.median(setups)
        got["peak_rss_mb"] = rss
    unknown = set(got) - {m["name"] for m in declared}
    if unknown:
        fail("metrics missing from BENCHMARK.json: %s" % sorted(unknown))
    metrics = {m["name"]: {"value": float(got.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    full = {"header": provenance(res), "workload": a.workload, "seed": a.seed,
            "seconds": a.seconds, "trace": a.trace,
            "setup_runs_s": setups, "probe_ms": res.get("probe_ms"),
            "unscaled": unscaled,
            "failure_notes": res["failure_notes"], "detail": res["detail"]}
    full.update(line)
    with open(stem + ".json", "w") as f:
        json.dump(full, f, indent=1)
    print(json.dumps(line))


# ---------------------------------------------------------------- compare


MIN_PAIRS = 10


def load_results(d):
    """{(workload, trace): {seed: result}}; a seed seen twice is an error."""
    out = {}
    for name in sorted(os.listdir(d)):
        if name.endswith(".json") and not name.endswith(".trace.json"):
            r = read_json(os.path.join(d, name))
            if "workload" in r and "metrics" in r:
                runs = out.setdefault((r["workload"], r["trace"]), {})
                if r["seed"] in runs:
                    fail("%s: two %s runs with seed %d" % (
                        d, r["workload"], r["seed"]))
                runs[r["seed"]] = r
    return out


def compare(parent_dir, change_dir):
    """Per workload and metric: medians and quartiles of both sides, and
    a verdict. Runs pair by seed; both sides must hold the same seeds.
    'better' needs at least ten pairs, the change winning at least 9 of
    every 10 of them, a median gap wider than the parent's quartile
    spread, and no more failed ops than the parent; 'worse' is a median
    worse by more than the metric's bound; 'unresolved' is a spread
    wider than the bound."""
    s = spec()
    parent, change = load_results(parent_dir), load_results(change_dir)
    print("%-12s %-28s %24s %24s %6s  %s" % (
        "workload", "metric", "parent med [q1,q3]", "change med [q1,q3]",
        "wins", "verdict"))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for w in [w["name"] for w in s["workloads"]]:
            pa, ch = parent.get((w, trace), {}), change.get((w, trace), {})
            if not pa and not ch:
                continue
            if sorted(pa) != sorted(ch):
                fail("%s trace %d: the seeds differ (parent %s, change %s)"
                     % (w, trace, sorted(pa), sorted(ch)))
            seeds = sorted(pa)
            more_failed = (sum(ch[k]["failed"] for k in seeds)
                           > sum(pa[k]["failed"] for k in seeds))
            for m in s[group]:
                name, lower = m["name"], m["better"] == "lower"
                xs = [pa[k]["metrics"][name]["value"] for k in seeds]
                ys = [ch[k]["metrics"][name]["value"] for k in seeds]
                print("%-12s %-28s %24s %24s %6s  %s" % (
                    w, name, summary(xs), summary(ys),
                    wins(xs, ys, lower), verdict(xs, ys, lower,
                                                 m.get("bound"),
                                                 more_failed)))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summary(xs):
    q1, q2, q3 = quartiles(xs)
    return "%.4g [%.4g,%.4g]" % (q2, q1, q3)


def won(xs, ys, lower):
    """Pairs the change wins; ties count for neither side."""
    return sum(1 for x, y in zip(xs, ys) if (y < x if lower else y > x))


def wins(xs, ys, lower):
    return "%d/%d" % (won(xs, ys, lower), len(xs))


def verdict(xs, ys, lower, bound, more_failed):
    q1, med_x, q3 = quartiles(xs)
    r1, med_y, r3 = quartiles(ys)
    if med_x == 0:
        return "n/a (parent median 0)"
    worse = (med_y - med_x) / med_x * (1 if lower else -1)
    change = "%s by %.1f%%" % ("worse" if worse > 0 else "better",
                               100 * abs(worse))
    if (len(xs) >= MIN_PAIRS and won(xs, ys, lower) * 10 >= 9 * len(xs)
            and abs(med_y - med_x) > q3 - q1):
        if more_failed:
            return "not better: the change failed more ops (%s)" % change
        return "BETTER (%s)" % change
    if bound is None:
        return "no bound (%s)" % change
    spread = max((q3 - q1) / abs(med_x), (r3 - r1) / abs(med_y or 1))
    separated = (max(ys) < min(xs)) if lower else (min(ys) > max(xs))
    if spread > bound and not separated:
        return "unresolved (spread %.1f%% > bound %.0f%%)" % (
            100 * spread, 100 * bound)
    if worse > bound:
        return "WORSE beyond bound (%s > %.0f%%)" % (change, 100 * bound)
    return "within bound (%s)" % change


# ---------------------------------------------------------------- reference


def regen_reference():
    env = tool_env()
    build(env)
    shards = 2
    procs = [runner(env, ["reference", "--shard", str(i), "--shards",
                          str(shards)], stdout=subprocess.PIPE)
             for i in range(shards)]
    lines = []
    for p in procs:
        out, _ = p.communicate()
        if p.returncode != 0:
            fail("reference shard failed")
        lines += out.decode().splitlines()
    with open(REFERENCE, "w") as f:
        f.write("\n".join(sorted(lines)) + "\n")
    print("wrote %d programs to %s" % (len(lines), REFERENCE))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--regen-reference", action="store_true")
    a = p.parse_args()
    if a.compare:
        compare(*a.compare)
    elif a.regen_reference:
        regen_reference()
    elif a.workload:
        run_workload(a)
    else:
        p.error("give --workload, --compare or --regen-reference")


if __name__ == "__main__":
    main()
