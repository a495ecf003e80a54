"""Benchmark worker: runs one workload in this process and prints raw results.

Started by run.py with a pinned environment; not meant to be run by hand.

    worker.py setup <workload>
        Cold start: import modunits and run the workload's first small job.
    worker.py run <workload> <seed> <seconds> <trace>
        A closed loop, one job at a time: an untimed warm-up (the set-up job,
        the once-per-run jobs and one pass), then timed passes until <seconds>
        have elapsed.  Every output is checked after
        its pass, outside the timed region.  With trace 1 the passes alternate
        between traced and untraced, so the same run gives the per-layer
        numbers and the tracing overhead.

The last line of stdout is one JSON object.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLI_TIMEOUT_S = 60

from workloads import SETUP_JOBS, JobStream  # noqa: E402

oracles = None  # imported by load_oracles(), after any set-up timing


def load_oracles():
    """Import the checks; they import numpy, whose import set-up time must
    see as part of importing modunits."""
    global oracles
    import oracles


def import_modunits() -> dict:
    import modunits
    from modunits import classical, cli, cusps, cycloq, qseries, thetag, units, verify

    where = Path(modunits.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"modunits imported from {where}, not from this checkout's src/")
    return {
        "classical": classical, "cli": cli, "cusps": cusps, "cycloq": cycloq, "qseries": qseries,
        "thetag": thetag, "units": units, "verify": verify,
    }


class Failure(Exception):
    """A job's output disagrees with its reference."""

    def __init__(self, reason, known_defect=False):
        super().__init__(reason)
        self.known_defect = known_defect


class Runner:
    """Executes jobs through modunits' public functions and checks the outputs."""

    def __init__(self, mods: dict):
        self.m = mods
        self.trace_cli = False  # run CLI children through the tracing shim
        self.refs = {}
        self._j = {}

    # ------------------------------------------------------------------
    # execution (the timed part)

    def execute(self, job):
        m, a = self.m, job.args
        fv = m["units"].FracVector
        kind = job.kind
        if kind in ("cli", "cli_malformed"):
            return self._cli_process(a)
        if kind == "cli_inprocess":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = m["cli"].main(list(a))
            return code, out.getvalue(), ""
        if kind in ("verify_jacobi", "verify_theta_eta", "verify_delta_eta"):
            return getattr(m["verify"], kind)(a[0])
        if kind in ("verify_phi_siegel", "verify_theta_diag"):
            return getattr(m["verify"], kind)(samples=a[0], seed=a[1])
        if kind in ("eta", "j_function"):
            return getattr(m["classical"], kind)(a[0])
        if kind == "siegel_power":
            n_a, n_b, n, trunc, power = a
            return m["units"].siegel_function(fv(Fraction(n_a, n), Fraction(n_b, n)), trunc) ** power
        if kind in ("g14", "klein_form_0_half"):
            return getattr(m["units"], kind)(a[0])
        if kind in ("h1N", "hN"):
            return getattr(m["units"], kind)(a[0], a[1])
        if kind == "weierstrass_unit":
            return m["units"].weierstrass_unit(*(fv(*v) for v in a[:4]), a[4])
        if kind == "wp_expansion":
            return m["units"].wp_expansion(fv(*a[0]), a[1])
        if kind == "theta_constant":
            (r, s), z = a
            t = m["thetag"]
            return t.theta_constant(t.ThetaChar(r, s), t.SiegelPoint(z))
        if kind == "divisor_of_siegel_power":
            (r, s), n = a
            return m["cusps"].divisor_of_siegel_power(fv(r, s), n)
        if kind == "unit_group_rank":
            return m["cusps"].unit_group_rank(a[0])
        raise ValueError(f"unknown job kind {kind!r}")

    def _cli_process(self, argv):
        if self.trace_cli:
            cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_shim.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "modunits.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, cwd=ROOT)
        return proc.returncode, proc.stdout, proc.stderr

    # ------------------------------------------------------------------
    # checking (untimed)

    def check(self, job, out):
        """Raise Failure if the output is wrong."""
        kind, a = job.kind, job.args
        if kind.startswith("verify_"):
            if not out.passed:
                raise Failure(f"identity check failed: {out.witness}")
        elif kind == "eta":
            self._series(job, out, a[0], oracles.eta_terms(a[0]))
        elif kind == "j_function":
            self._series(job, out, a[0], self.j_terms(a[0]))
        elif kind == "siegel_power":
            self._siegel_power(job, out)
        elif kind in ("g14", "klein_form_0_half"):
            self._series(job, out, a[0], self._ref((kind,), a[0], 16, lambda t: getattr(self.m["units"], kind)(t)))
        elif kind in ("h1N", "hN"):
            build = getattr(self.m["units"], kind)
            self._series(job, out, a[1], self._ref((kind, a[0]), a[1], 16, lambda t: build(a[0], t)))
        elif kind == "wp_expansion":
            v = self.m["units"].FracVector(*a[0])
            self._series(job, out, a[1], self._ref((kind, a[0]), a[1], 8, lambda t: self.m["units"].wp_expansion(v, t)))
        elif kind == "weierstrass_unit":
            vs = [self.m["units"].FracVector(*v) for v in a[:4]]
            ref = self.m["units"].weierstrass_unit(*vs, a[4] + 1)
            self._series(job, out, a[4], oracles.series_terms(ref))
        elif kind == "theta_constant":
            (r, s), z = a
            ref = oracles.theta_reference(r, s, z)
            if not abs(out - ref) <= 1e-9 * max(1.0, abs(ref)):
                raise Failure(f"theta {out} vs ellipsoid sum {ref}")
        elif kind == "divisor_of_siegel_power":
            (r, s), n = a
            got = {(c.a, c.c): v for c, v in out.entries.items()}
            if out.level != n or got != oracles.divisor_entries(r, s, n) or out.degree() != 0:
                raise Failure("divisor entries differ from 6N*B2(<a r + c s>)")
        elif kind == "unit_group_rank":
            if out != oracles.cusp_count(a[0]) - 1:
                raise Failure(f"rank {out} != cusp count - 1 = {oracles.cusp_count(a[0]) - 1}")
        elif kind == "cli_malformed":
            if out[0] != 2 or out[1]:
                raise Failure(f"malformed input exited {out[0]}, expected 2 and no output")
        elif kind in ("cli", "cli_inprocess"):
            self._cli(job.args, *out)
        else:
            raise ValueError(f"unknown job kind {kind!r}")

    def j_terms(self, trunc):
        """Reference j coefficients, computed once per run up to the largest need."""
        need = int(trunc) + 1
        if self._j.get("upto", -1) < need:
            upto = max(need, 2 * self._j.get("upto", 0), 128)
            terms = oracles.j_terms(upto)
            if any(terms[Fraction(k)] != c for k, c in oracles.J_KNOWN.items()):
                raise RuntimeError("integer j reference disagrees with the known coefficients")
            self._j = {"upto": upto, "terms": terms}
        return self._j["terms"]

    def _ref(self, key, trunc, pad, build):
        """Same builder at a higher truncation, computed once and cut down per job."""
        ref = self.refs.get(key)
        if ref is None or ref.trunc < trunc:
            ref = build(int(trunc) + pad)
            self.refs[key] = ref
        return oracles.series_terms(ref)

    def _series(self, job, out, trunc, expected):
        trunc = Fraction(trunc)
        if out.trunc != trunc:
            raise Failure(f"claims trunc {out.trunc}, asked for {trunc}")
        e = oracles.first_difference(oracles.series_terms(out), trunc, expected)
        if e is not None:
            # The known defect drops the last coefficient below an off-lattice trunc.
            last = e + Fraction(1, out.denom) >= trunc
            raise Failure(f"coefficient of q^{e} differs from the reference", job.known_defect and last)

    def _siegel_power(self, job, out):
        n_a, n_b, n, trunc, power = job.args
        r = Fraction(n_a, n)
        base = self.m["units"].siegel_function(self.m["units"].FracVector(r, Fraction(n_b, n)), trunc)
        expected, ref_trunc = oracles.series_power(oracles.series_terms(base), base.trunc, power)
        lead = (power // (12 * n)) * 6 * n * (r * r - r + Fraction(1, 6))
        if out.trunc != ref_trunc:
            raise Failure(f"claims trunc {out.trunc}, Miller's recurrence gives {ref_trunc}")
        if min(expected) != lead:
            raise Failure(f"leading exponent {min(expected)} != 6N*B2(r) = {lead}")
        e = oracles.first_difference(oracles.series_terms(out), out.trunc, expected)
        if e is not None:
            raise Failure(f"coefficient of q^{e} differs from Miller's recurrence")

    def _cli(self, argv, code, stdout, stderr):
        cmd = argv[0]
        if code != 0:
            raise Failure(f"exit {code}: {stderr.strip()[-300:]}")
        if cmd == "expand":
            self._cli_expand(argv, json.loads(stdout))
        elif cmd == "verify":
            if not stdout.startswith(f"{argv[1]} [") or ": pass" not in stdout:
                raise Failure(f"verify output {stdout.strip()!r}")
        elif cmd == "cusps":
            n, data = int(argv[1]), json.loads(stdout)
            reps = {(c["a"], c["c"]) for c in data["cusps"]}
            if data["count"] != oracles.cusp_count(n) or reps != set(oracles.cusp_reps(n)):
                raise Failure(f"cusps of X({n}) differ from the closed count")
        elif cmd == "divisor":
            r, s, n = Fraction(argv[1]), Fraction(argv[2]), int(argv[3])
            data = json.loads(stdout)
            got = {(e["cusp"]["a"], e["cusp"]["c"]): Fraction(e["order"]) for e in data["entries"]}
            if got != oracles.divisor_entries(r, s, n) or data["degree"] != "0":
                raise Failure("divisor entries differ from 6N*B2(<a r + c s>)")
        elif cmd == "rank":
            n = int(argv[1])
            want = oracles.cusp_count(n) - 1
            if stdout.strip() != f"divisor-matrix rank at level {n}: {want} (n - 1 = {want})":
                raise Failure(f"rank output {stdout.strip()!r}, expected rank {want}")
        elif cmd == "theta":
            data = json.loads(stdout)
            r_text, s_text = argv[4].split(":")
            r = [Fraction(x) for x in r_text.split(",")]
            s = [Fraction(x) for x in s_text.split(",")]
            entries = [complex(x.replace("i", "j")) for x in argv[5][len("--point="):].split(",")]
            ref = oracles.theta_reference(r, s, [entries[:2], entries[2:]])
            if abs(complex(data["value_re"], data["value_im"]) - ref) > 1e-8:
                raise Failure(f"theta value differs from the ellipsoid sum {ref}")
        else:
            raise ValueError(f"no check for CLI command {cmd!r}")

    def _cli_expand(self, argv, data):
        name, trunc = argv[1], Fraction(argv[argv.index("--trunc") + 1])
        if Fraction(data["trunc"]) != trunc:
            raise Failure(f"claims trunc {data['trunc']}, asked for {trunc}")

        def value(c):
            coeffs = tuple(Fraction(int(p), int(q)) for p, q in c["coeffs"])
            return coeffs[0] if c["order"] == 1 else (c["order"], coeffs)

        got = {Fraction(t["k"], data["denom"]): value(t["coeff"]) for t in data["terms"]}
        if name == "eta":
            expected = oracles.eta_terms(trunc)
        elif name == "theta3":
            expected = oracles.theta3_terms(trunc)
        elif name == "j":
            expected = self.j_terms(trunc)
        elif name == "g2":
            expected = oracles.g2_terms(trunc)
        elif name == "delta":
            expected = oracles.delta_terms(trunc)
        elif name == "siegel":
            u = self.m["units"]
            ref = u.siegel_function(u.FracVector(Fraction(argv[2]), Fraction(argv[3])), trunc + 1)
            expected = {e: c.coeffs[0] if c.order == 1 else (c.order, c.coeffs)
                        for e, c in oracles.series_terms(ref).items()}
        else:
            raise ValueError(f"no reference for expand {name!r}")
        e = oracles.first_difference(got, trunc, expected)
        if e is not None:
            raise Failure(f"coefficient of q^{e} differs from the reference")


# ----------------------------------------------------------------------


def run_jobs(runner, jobs, tracer=None):
    """Run jobs back to back; returns (wall seconds, [(job, seconds, output)])."""
    done = []
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.id
            t0 = perf_counter()
            try:
                out = runner.execute(job)
            except Exception as exc:  # a job that raises is a failed job, not a dead run
                out = exc
            done.append((job, perf_counter() - t0, out))
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.job = None
    return wall, done


def check_jobs(runner, done, failures):
    for job, _, out in done:
        reason, known = None, False
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                runner.check(job, out)
            except Failure as exc:
                reason, known = str(exc), exc.known_defect
            except Exception as exc:  # output the check could not even read
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            failures.append({"job": job.id, "kind": job.kind, "args": repr(job.args),
                             "reason": reason, "known_defect": known})


def cli_child_states(done):
    """Per-child tracer states and import times parsed from stderr."""
    states, imports, sympy_imports = [], [], []
    for _, _, out in done:
        if isinstance(out, Exception):
            continue
        for line in out[2].splitlines():
            if line.startswith("BENCH_TRACE "):
                states.append(json.loads(line[len("BENCH_TRACE "):]))
            elif line.startswith("import time:") and "|" in line:
                parts = line[len("import time:"):].split("|")
                name = parts[2].strip()
                if name in ("modunits", "sympy") and parts[1].strip().isdigit():
                    (imports if name == "modunits" else sympy_imports).append(int(parts[1]) / 1e6)
    return states, imports, sympy_imports


def setup_main(workload):
    t0 = perf_counter()
    mods = import_modunits()
    job = SETUP_JOBS[workload]
    runner = Runner(mods)
    _, done = run_jobs(runner, [job])
    elapsed = perf_counter() - t0
    load_oracles()
    failures = []
    check_jobs(runner, done, failures)
    print(json.dumps({"setup_s": elapsed, "failures": failures}))


def run_main(workload, seed, seconds, trace):
    from tracer import Tracer

    mods = import_modunits()
    load_oracles()
    in_process = workload != "cli_cold"
    runner = Runner(mods)
    stream = JobStream(workload, seed)
    tracer = Tracer(mods) if trace else None
    failures, attempted = [], 0
    walls, latencies = [], []
    traced_walls, untraced_walls, layer_windows, first_window = [], [], [], None
    cli_import, cli_sympy, cli_process = [], [], []

    def one_pass(jobs, traced):
        nonlocal attempted
        t = tracer if (traced and in_process) else None
        runner.trace_cli = traced and not in_process
        if t is not None:
            t.reset()
        wall, done = run_jobs(runner, jobs, t)
        attempted += len(done)
        check_jobs(runner, done, failures)
        return wall, done

    def merged_children(done):
        """Per-layer metrics summed over the traced CLI children of one pass."""
        states, imports, sympy_imports = cli_child_states(done)
        merged = Tracer(mods)
        for st in states:
            merged.merge(st)
        return merged.layer_metrics(), imports, sympy_imports

    # Cold part: the set-up job, the once-per-run jobs, then one warm-up pass
    # that fills the caches.
    warm = [SETUP_JOBS[workload]] + stream.once + (stream.next_pass() if in_process else [])
    _, done = one_pass(warm, traced=trace)
    if trace:
        cold = tracer.layer_metrics() if in_process else merged_children(done)[0]

    t_start = perf_counter()
    k = 0
    while perf_counter() - t_start < seconds or (trace and not (traced_walls and untraced_walls)):
        jobs = stream.next_pass()
        if jobs is None:
            break
        traced = bool(trace) and k % 2 == 0
        wall, done = one_pass(jobs, traced)
        k += 1
        if not trace:
            walls.append(wall)
            latencies += [dt for _, dt, _ in done]
        elif traced:
            traced_walls.append(wall)
            if in_process:
                window = tracer.layer_metrics()
                if first_window is None:
                    first_window = window
                    tracer.keep_spans = False
            else:
                window, imports, sympy_imports = merged_children(done)
                first_window = first_window or window
                cli_import += imports
                cli_sympy += sympy_imports
            layer_windows.append(window)
        else:
            untraced_walls.append(wall)
            if not in_process:
                cli_process += [dt for _, dt, _ in done]

    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    result = {
        "attempted": attempted,
        "failures": failures,
        "pass_walls": walls,
        "latencies": latencies,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "env": environment(),
    }
    if trace:
        layers = dict(first_window)
        for name in layers:
            if name.endswith("_s"):
                layers[name] = statistics.median(w[name] for w in layer_windows)
        # Work done once per process or per run is taken over the cold part:
        # the worker's sympy call (each CLI child makes its own), and the rank.
        if in_process:
            layers["cycloq.cyclopoly_s"] = cold["cycloq.cyclopoly_s"]
        layers["cusps.rank_matrix_cells"] = cold["cusps.rank_matrix_cells"]
        med = statistics.median
        layers["cli.process_s"] = med(cli_process) if cli_process else 0.0
        layers["cli.import_s"] = med(cli_import) if cli_import else 0.0
        layers["cli.sympy_import_s"] = med(cli_sympy) if cli_sympy else 0.0
        result.update(
            layers=layers,
            traced_pass_s=med(traced_walls),
            untraced_pass_s=med(untraced_walls),
            tracer_overhead_s=tracer.overhead_s,
            spans=[s for s in tracer.spans if s is not None],
        )
    print(json.dumps(result))


def environment() -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ.get("OMP_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup_main(sys.argv[2])
    elif mode == "run":
        run_main(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), int(sys.argv[5]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
