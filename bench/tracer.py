"""Per-layer tracing from outside: wrappers patched onto modunits' public callables.

Nothing under src/ changes.  Class methods are patched on their class; a module
function is patched in its own module and in every module that imported it by
name, so calls made inside the library are seen too.  Each call of a span layer
(qseries and up) records a span (name, start, end, parent span, job id);
cycloq operations, and series construction, are only aggregated per operation
(count, inclusive time, self time), since a single job makes tens of thousands
of them.  A call's self time is its duration minus the time its traced
children cover.  Work the tracer itself does after a call (counting pairs,
coefficient bits, ellipsoid points) is kept out of every self time and summed
as overhead.  thetag's ``itertools`` is swapped for a proxy that counts the
summation boxes thetag builds and the points in them.
"""
from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

import numpy as np

from oracles import ellipsoid_points

CYCLOTOMIC_OPS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "inverse", "__truediv__", "__rtruediv__", "__pow__", "__eq__", "lifted_coeffs",
)
SERIES_SPANS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "scaled",
    "inverse", "__pow__", "__truediv__", "substitute_q_power", "truncated_to", "same_series",
    "first_mismatch", "evaluate", "to_json_dict",
)
MODULE_SPANS = {
    "classical": ("eta", "theta_classical", "eisenstein", "discriminant", "j_function"),
    "units": (
        "siegel_function", "siegel_power_ord", "klein_form_0_half", "wp_expansion", "wp_lattice_sum",
        "weierstrass_unit", "h1N", "hN", "g14",
    ),
    "cusps": (
        "cusp_count", "enumerate_cusps", "gamma_for_cusp", "divisor_of_siegel_power",
        "siegel_index_vectors", "rational_rank", "unit_group_rank",
    ),
    "thetag": (
        "truncation_radius", "theta_constant", "theta_diag_factorization_residual",
        "phi_siegel_identity_residual",
    ),
    "verify": (
        "verify_jacobi", "verify_theta_eta", "verify_g14_eta", "verify_g14_theta", "verify_delta_eta",
        "verify_j_coeffs", "verify_rank", "verify_wp_oracle", "verify_theta_diag", "verify_phi_siegel",
    ),
}
# Functions that other modules imported by name: (home module, name, importers).
BY_NAME = (
    ("qseries", "product_family", ("classical", "units", "verify")),
    ("classical", "eta", ("units",)),
    ("units", "siegel_function", ("thetag",)),
    ("cycloq", "e_of", ("units", "thetag")),
)


def _coeff_bits(c) -> int:
    return max(max(f.numerator.bit_length(), f.denominator.bit_length()) for f in c.coeffs)


class _BoxCountingItertools:
    """Stands in for thetag's ``itertools``: thetag builds each summation box
    with ``itertools.product(range(-R, R + 1), repeat=g)``, so counting those
    calls counts the boxes, and their sizes the points thetag sums."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(itertools, name)

    def product(self, *iterables, repeat=1):
        counts = self._tracer.counts
        counts["thetag.lattice_builds"] += 1
        counts["thetag.points_summed"] += math.prod(len(it) for it in iterables) ** repeat
        return itertools.product(*iterables, repeat=repeat)


class Tracer:
    """Spans and counters for one process; install() patches, uninstall() restores."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.patches = []
        self.stack = []  # one [covered_child_time, span_id] frame per active call
        self.job = None
        self.keep_spans = True
        self.spans = []
        self.overhead_s = 0.0  # the whole run's bookkeeping time
        self.reset()

    def reset(self):
        """Start a new aggregation window; stored spans are kept."""
        self.ops = defaultdict(lambda: [0, 0.0, 0.0])  # op -> [count, inclusive s, self s]
        self.layer_self = defaultdict(float)
        self.layer_calls = Counter()
        self.span_calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.active = Counter()

    # ------------------------------------------------------------------
    # patching

    def _patch(self, owner, name, wrapper):
        original = owner.__dict__[name]
        self.patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def install(self):
        m = self.mods
        cyc, series = m["cycloq"].Cyclotomic, m["qseries"].PuiseuxSeries
        for name in CYCLOTOMIC_OPS:
            self._patch(cyc, name, self._wrap("cycloq", name, cyc.__dict__[name], span=False))
        self._patch(m["cycloq"], "cyclotomic_polynomial",
                    self._wrap("cycloq", "cyclotomic_polynomial", m["cycloq"].cyclotomic_polynomial, span=False))
        self._patch(series, "__init__", self._wrap("qseries", "__init__", series.__init__, span=False))
        for name in SERIES_SPANS:
            self._patch(series, name, self._wrap("qseries", name, series.__dict__[name]))
        for layer, names in MODULE_SPANS.items():
            for name in names:
                self._patch(m[layer], name, self._wrap(layer, name, m[layer].__dict__[name]))
        self._patch(m["thetag"], "itertools", _BoxCountingItertools(self))
        self._patch(m["thetag"].SiegelPoint, "__init__",
                    self._wrap("thetag", "SiegelPoint", m["thetag"].SiegelPoint.__init__))
        for home, name, importers in BY_NAME:
            if home in ("qseries", "cycloq"):
                fn = m[home].__dict__[name]
                if name == "product_family":
                    fn = self._counting_product_family(fn)
                self._patch(m[home], name, self._wrap(home, name, fn, span=home == "qseries"))
            for mod in importers:
                self._patch(m[mod], name, m[home].__dict__[name])

    def _counting_product_family(self, fn):
        @functools.wraps(fn)
        def product_family(factors, trunc):
            factors = list(factors)
            self.counts["qseries.product_family_factors"] += len(factors)
            return fn(factors, trunc)

        return product_family

    def uninstall(self):
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # recording

    def _wrap(self, layer, name, fn, span=True):
        tracer = self
        label = f"{layer}.{name}"
        post = getattr(self, f"_post_{layer}_{name.strip('_')}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = None
            if span:
                tracer.active[label] += 1
                if tracer.keep_spans:
                    span_id = len(tracer.spans)
                    tracer.spans.append(None)
            frame = [0.0, span_id if span_id is not None else (parent[1] if parent else None)]
            stack.append(frame)
            done = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self_s = duration - frame[0]
                if span:
                    tracer.active[label] -= 1
                    tracer.layer_calls[layer] += 1
                    tracer.span_calls[label] += 1
                    if span_id is not None:
                        tracer.spans[span_id] = (label, t0, t1, parent[1] if parent else None, tracer.job)
                else:
                    op = tracer.ops[label]
                    op[0] += 1
                    op[1] += duration
                    op[2] += self_s
                tracer.layer_self[layer] += self_s
                if done and post is not None:
                    post(args, kwargs, result)
                t2 = perf_counter()
                tracer.overhead_s += t2 - t1
                if parent is not None:
                    parent[0] += t2 - t0

        return wrapper

    # Counters computed after a call; their cost is tracer overhead.

    def _post_cycloq_init(self, args, kwargs, result):
        c = args[0]
        self.maxima["cycloq.max_order"] = max(self.maxima["cycloq.max_order"], c.order)
        self.maxima["cycloq.max_coeff_bits"] = max(self.maxima["cycloq.max_coeff_bits"], _coeff_bits(c))

    def _post_cycloq_mul(self, args, kwargs, result):
        a, b = args
        b_rational = isinstance(b, (int, Fraction)) or getattr(b, "order", None) == 1
        if a.order == 1 and b_rational:
            self.counts["cycloq.rational_muls"] += 1

    _post_cycloq_rmul = _post_cycloq_mul

    def _post_qseries_mul(self, args, kwargs, result):
        a, b = args
        if not isinstance(b, type(a)) or not a.terms or not b.terms:
            return
        d = result.denom
        bound = result.trunc * d
        ka = [k * (d // a.denom) for k in a.terms]
        kb = sorted(k * (d // b.denom) for k in b.terms)
        self.counts["qseries.term_pairs"] += len(ka) * len(kb)
        self.counts["qseries.pairs_kept"] += sum(bisect_left(kb, math.ceil(bound - k)) for k in ka)

    _post_qseries_rmul = _post_qseries_mul

    def _post_qseries_add(self, args, kwargs, result):
        if self.active["units.wp_expansion"]:
            self.counts["units.wp_series_adds"] += 1

    # __sub__ adds through __add__, so each series subtraction counts once.
    _post_qseries_radd = _post_qseries_add

    def _post_qseries_inverse(self, args, kwargs, result):
        self.counts["qseries.inverse_terms"] += len(result.terms)

    def _post_cusps_rational_rank(self, args, kwargs, result):
        rows = args[0]
        self.counts["cusps.rank_matrix_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _post_thetag_theta_constant(self, args, kwargs, result):
        ch, point = args[0], args[1]
        tol = kwargs.get("tol", args[2] if len(args) > 2 else 1e-12)
        # Terms outside this ellipsoid are below thetag's own tail bound.
        bound = -math.log(tol * 0.5)
        r = np.array([float(x) for x in ch.r])
        self.counts["thetag.points_in_ellipsoid"] += len(ellipsoid_points(point.Z.imag, r, bound))

    # ------------------------------------------------------------------
    # windows from other processes (one traced CLI child each)

    def state(self) -> dict:
        return {
            "ops": dict(self.ops),
            "layer_self": dict(self.layer_self),
            "layer_calls": dict(self.layer_calls),
            "span_calls": dict(self.span_calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def merge(self, state: dict):
        for op, (count, incl, self_s) in state["ops"].items():
            acc = self.ops[op]
            acc[0] += count
            acc[1] += incl
            acc[2] += self_s
        for name in ("layer_self", "layer_calls", "span_calls", "counts"):
            target = getattr(self, name)
            for key, value in state[name].items():
                target[key] += value
        for key, value in state["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)

    # ------------------------------------------------------------------
    # per-layer metrics of the current window

    def layer_metrics(self) -> dict:
        ops, calls, counts = self.ops, self.span_calls, self.counts

        def op_sum(names, field):
            return sum(ops[f"cycloq.{n}"][field] for n in names if f"cycloq.{n}" in ops)

        def ratio(num, den):
            return num / den if den else 0.0

        muls = op_sum(("__mul__", "__rmul__"), 0)
        return {
            "cycloq.mul_calls": muls,
            "cycloq.mul_self_s": op_sum(("__mul__", "__rmul__"), 2),
            "cycloq.inverse_calls": op_sum(("inverse",), 0),
            "cycloq.add_calls": op_sum(("__add__", "__radd__", "__sub__", "__rsub__"), 0),
            "cycloq.self_s": self.layer_self["cycloq"],
            "cycloq.max_order": self.maxima["cycloq.max_order"],
            "cycloq.max_coeff_bits": self.maxima["cycloq.max_coeff_bits"],
            "cycloq.rational_share": ratio(counts["cycloq.rational_muls"], muls),
            "cycloq.cyclopoly_s": op_sum(("cyclotomic_polynomial",), 1),
            "qseries.mul_calls": calls["qseries.__mul__"] + calls["qseries.__rmul__"],
            "qseries.term_pairs": counts["qseries.term_pairs"],
            "qseries.pairs_kept_ratio": ratio(counts["qseries.pairs_kept"], counts["qseries.term_pairs"]),
            "qseries.inverse_calls": calls["qseries.inverse"],
            "qseries.inverse_terms": counts["qseries.inverse_terms"],
            "qseries.pow_calls": calls["qseries.__pow__"],
            "qseries.product_family_calls": calls["qseries.product_family"],
            "qseries.product_family_factors": counts["qseries.product_family_factors"],
            "qseries.self_s": self.layer_self["qseries"],
            "classical.calls": self.layer_calls["classical"],
            "classical.self_s": self.layer_self["classical"],
            "units.calls": self.layer_calls["units"],
            "units.self_s": self.layer_self["units"],
            "units.wp_series_adds": counts["units.wp_series_adds"],
            "cusps.calls": self.layer_calls["cusps"],
            "cusps.self_s": self.layer_self["cusps"],
            "cusps.enumerate_calls": calls["cusps.enumerate_cusps"],
            "cusps.rank_matrix_cells": counts["cusps.rank_matrix_cells"],
            "thetag.theta_calls": calls["thetag.theta_constant"],
            "thetag.points_summed": counts["thetag.points_summed"],
            "thetag.ellipsoid_ratio": ratio(counts["thetag.points_in_ellipsoid"], counts["thetag.points_summed"]),
            "thetag.lattice_builds": counts["thetag.lattice_builds"],
            "thetag.self_s": self.layer_self["thetag"],
            "verify.calls": self.layer_calls["verify"],
            "verify.self_s": self.layer_self["verify"],
        }
