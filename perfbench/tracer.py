"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the program, the public functions of every
`sicherman` module plus the hot methods (`IntPoly.__init__`, `__mul__`,
`div_exact`, `is_nonnegative`, `CyclotomicCache.get`).  Modules bind one
another's names with `from ... import`, so each wrapper is installed under
every name in the package that refers to the original, not only in the
defining module.  `uninstall` puts the originals back.

Spans are aggregated in memory per span name, as call count and self time,
and handed to the caller by `take`; nothing is written while ops run.
Self time is a span's duration minus the time its child spans cover.  A
child's coverage includes the wrapper's own bookkeeping, so that overhead
lands in no layer's self time; it shows only in the traced pass time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("polyint", "cyclotomic", "dice", "solver", "counting", "oracle", "cli")

# Solver entry points that run the candidate enumeration.
ENUMERATIONS = ("enumerate_pairs", "enumerate_mixed", "enumerate_unequal", "solve")

# Figures that cannot be seen by wrapping names from outside the program.
GAPS = (
    "oracle search nodes visited and pruned",
    "per-stage time inside solver._enumerate (candidate generation, side "
    "expansion, nonnegativity test, product check, label conversion, dedup)",
    "candidates rejected per check, with the witness power and coefficient",
    "dedup hits in solver._enumerate",
    "prefilter rejections (no prefilter exists yet)",
)


def compositions(total: int, caps: list[int]) -> int:
    """Ways to write total as an ordered sum of terms 0 <= x_i <= caps[i]."""
    ways = [1] + [0] * total
    for cap in caps:
        ways = [
            sum(ways[t - j] for j in range(min(cap, t) + 1)) for t in range(total + 1)
        ]
    return ways[total]


def candidate_count(sizes, left_size, divisors, prime_factors) -> int:
    """Size of the candidate space the solver walks for one problem.

    Each prime's slot exponents must sum to its multiplicity in the left
    face count; composite divisors are free up to their multiplicity.
    """
    mults: Counter = Counter(d for m in sizes for d in divisors(m) if d > 1)
    caps: dict[int, list[int]] = defaultdict(list)
    count = 1
    for d, mult in mults.items():
        factors = prime_factors(d)
        if len(factors) == 1:
            caps[next(iter(factors))].append(mult)
        else:
            count *= mult + 1
    left = prime_factors(left_size)
    for p, slot_caps in caps.items():
        count *= compositions(left.get(p, 0), slot_caps)
    return count


class _NumpyProxy:
    """Stands in for `numpy` inside polyint so its calls become spans."""

    def __init__(self, np, **overrides):
        self._np = np
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._np, name)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {
            layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS
        }
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = [[0.0]]
        self._depth = dict.fromkeys(LAYERS + ("numpy", "enum"), 0)
        self._patches: list[tuple[object, str, object]] = []
        cyclo = self.modules["cyclotomic"]
        self._divisors = cyclo.divisors
        self._prime_factors = cyclo.prime_factors
        self._int64_safe = getattr(self.modules["polyint"], "_INT64_SAFE", 1 << 62)

    # -- bookkeeping ---------------------------------------------------------

    def take(self) -> dict:
        """Aggregates since the last call, then reset them."""
        out = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out

    def _span(self, name, keys, fn, after=None):
        stack, self_s, calls, depth = self._stack, self.self_s, self.calls, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            frame = [0.0]
            stack.append(frame)
            for key in keys:
                depth[key] += 1
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = clock()
                for key in keys:
                    depth[key] -= 1
                stack.pop()
                self_s[name] += t1 - t0 - frame[0]
                calls[name] += 1
                if not returned:
                    stack[-1][0] += t1 - t0
            if after is not None:
                after(args, kwargs, result)
            stack[-1][0] += clock() - t0
            return result

        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _after_mul(self, args, kwargs, result):
        a, b = args
        counts = self.counts
        if self._depth["enum"]:
            counts["enum_mul"] += 1
        if not isinstance(b, type(a)) or not a.coeffs or not b.coeffs:
            return
        ca, cb = a.coeffs, b.coeffs
        counts["products"] += 1
        counts["mul_terms"] += len(ca) * len(cb)
        l1a, l1b = sum(map(abs, ca)), sum(map(abs, cb))
        bound = min(l1a * max(map(abs, cb)), l1b * max(map(abs, ca)))
        if bound >= self._int64_safe:
            counts["bigint_products"] += 1

    def _after_enumeration(self, name):
        def after(args, kwargs, result):
            if name == "solve":
                problem = args[0]
                sizes, left = problem.sizes, problem.face_counts[0]
            elif name == "enumerate_pairs":
                sizes, left = (args[0], args[0]), args[0]
            elif name == "enumerate_mixed":
                sizes, left = (args[0], args[1]), args[0]
            else:
                sizes, left = (args[0], args[0]), args[1]
            self.counts["candidates"] += candidate_count(
                sizes, left, self._divisors, self._prime_factors
            )
            self.counts["solver_pairs"] += len(result)

        return after

    def _after_oracle(self, args, kwargs, result):
        self.counts["oracle_pairs"] += len(result)

    # -- installation --------------------------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace_everywhere(self, original, wrapper):
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def install(self) -> None:
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                keys = (layer,)
                after = None
                if layer == "solver" and name in ENUMERATIONS:
                    keys = (layer, "enum")
                    after = self._after_enumeration(name)
                elif layer == "oracle" and name == "brute_force_pairs":
                    after = self._after_oracle
                span = self._span(f"{layer}.{name}", keys, fn, after)
                self._replace_everywhere(fn, span)

        polyint = self.modules["polyint"]
        poly = polyint.IntPoly
        self._set(poly, "__init__", self._span("polyint.new", ("polyint",), poly.__init__))
        mul = self._span("polyint.mul", ("polyint",), poly.__mul__, self._after_mul)
        self._set(poly, "__mul__", mul)
        self._set(poly, "__rmul__", mul)
        self._set(
            poly,
            "div_exact",
            self._span("polyint.div_exact", ("polyint",), poly.div_exact),
        )
        self._set(poly, "is_nonnegative", property(self._nonneg(poly.is_nonnegative.fget)))
        np = getattr(polyint, "np", None)
        if np is not None:
            proxy = _NumpyProxy(
                np,
                convolve=self._span("numpy.convolve", ("numpy",), np.convolve),
                asarray=self._span("numpy.asarray", ("numpy",), np.asarray),
            )
            self._set(polyint, "np", proxy)

        cache_cls = self.modules["cyclotomic"].CyclotomicCache
        get = self._span("cyclotomic.get", ("cyclotomic",), cache_cls.get)
        counts = self.counts

        def counted_get(cache, n):
            if n not in getattr(cache, "_table", ()):
                counts["get_misses"] += 1
            return get(cache, n)

        self._set(cache_cls, "get", counted_get)

    def _nonneg(self, fget):
        counts, depth = self.counts, self._depth

        def is_nonnegative(poly):
            ok = fget(poly)
            if depth["solver"]:
                counts["nonneg_checks"] += 1
                if ok:
                    counts["nonneg_pass"] += 1
            return ok

        return is_nonnegative

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def layer_metrics(agg: dict, json_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    self_s, calls, counts = agg["self_s"], agg["calls"], agg["counts"]

    def layer_self(layer):
        return sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    get_calls = calls.get("cyclotomic.get", 0)
    products = counts.get("products", 0)
    candidates = counts.get("candidates", 0)
    return {
        "polyint.mul_calls": (calls.get("polyint.mul", 0), "count"),
        "polyint.mul_terms": (counts.get("mul_terms", 0), "count"),
        "polyint.mul_self_s": (self_s.get("polyint.mul", 0.0), "s"),
        "polyint.new_calls": (calls.get("polyint.new", 0), "count"),
        "polyint.new_self_s": (self_s.get("polyint.new", 0.0), "s"),
        "polyint.numpy_s": (layer_self("numpy"), "s"),
        "polyint.mul_bigint_frac": (
            ratio(counts.get("bigint_products", 0), products),
            "ratio",
        ),
        "polyint.div_exact_calls": (calls.get("polyint.div_exact", 0), "count"),
        "polyint.div_exact_self_s": (self_s.get("polyint.div_exact", 0.0), "s"),
        "cyclotomic.get_calls": (get_calls, "count"),
        "cyclotomic.get_misses": (counts.get("get_misses", 0), "count"),
        "cyclotomic.hit_ratio": (
            ratio(get_calls - counts.get("get_misses", 0), get_calls),
            "ratio",
        ),
        "cyclotomic.get_self_s": (self_s.get("cyclotomic.get", 0.0), "s"),
        "solver.candidates": (candidates, "count"),
        "solver.mul_per_candidate": (
            ratio(counts.get("enum_mul", 0), candidates),
            "ratio",
        ),
        "solver.nonneg_ratio": (
            ratio(counts.get("nonneg_pass", 0), counts.get("nonneg_checks", 0)),
            "ratio",
        ),
        "solver.pairs": (counts.get("solver_pairs", 0), "count"),
        "solver.self_s": (layer_self("solver"), "s"),
        "dice.poly_to_die_self_s": (self_s.get("dice.poly_to_die", 0.0), "s"),
        "dice.sum_histogram_calls": (calls.get("dice.sum_histogram", 0), "count"),
        "dice.sum_histogram_self_s": (self_s.get("dice.sum_histogram", 0.0), "s"),
        "oracle.self_s": (layer_self("oracle"), "s"),
        "oracle.pairs": (counts.get("oracle_pairs", 0), "count"),
        "counting.self_s": (layer_self("counting"), "s"),
        "cli.main_self_s": (layer_self("cli"), "s"),
        "cli.json_bytes": (json_bytes, "bytes"),
    }
