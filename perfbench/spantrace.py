"""In-memory span tracer for the public functions of the singlim modules.

The tracer wraps every public function and public method of each module
in the singlim package from outside the package: the wrapper is installed
in every module namespace that holds the original object (``verification``
imports names with ``from .profiles import ...``), and methods are
replaced on their class.  Each call records one span (name, start, end,
parent span) in flat arrays; ``write`` dumps them at exit and
``layer_metrics`` folds them into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import gzip
import inspect
import sys
import time

import numpy as np

# Methods left unwrapped: ForcingTerm.value is the right-hand side of the
# oracle ODE and runs about a million times per oracle run; a span per call
# would dominate that run and its memory.
UNTRACED = {"singlim.modes.ForcingTerm.value"}

# Dunder methods that are part of the public algebra of a class.
PUBLIC_DUNDERS = {"__add__", "__sub__"}

EXPPOLY_ALGEBRA = [
    f"singlim.exppoly.ExpPoly.{m}"
    for m in (
        "build", "zero", "constant", "exponential", "derivative",
        "__add__", "__sub__", "scale", "multiply", "squared",
    )
]
PROFILE_CONSTRUCTORS = [
    f"singlim.profiles.{f}"
    for f in (
        "kernel_profile", "exact_solution", "parabolic_profile", "theta_layer",
        "main_expansion_profile", "derivative_expansion_profile",
        "split_components", "corrector_primary", "corrector_halfpower",
        "corrector_split", "corrector_profile", "corrector_remainder",
        "remainder_direct_solve", "layer_equation_source",
    )
]
SPECTRAL_OPERATORS = [
    f"singlim.spectral.{f}"
    for f in ("apply_power", "resolvent", "semigroup", "weighted_kernel", "inner", "norm")
]
GRID_CONSTRUCTORS = ["singlim.timegrid.standard_grid", "singlim.timegrid.TimeGrid.with_layer_points"]
CHECK_GROUPS = (
    "identity_checks",
    "remainder_data_checks",
    "energy_inequality_checks",
    "explicit_sup_bound",
    "l2_deviation_bounds",
    "byparts_convolution_bound",
    "duhamel_residual",
    "max_reg_checks",
    "run_rate_experiment",
    "sup_norm_error",
)
CLI_COMMANDS = ("simulate", "verify", "rates")


def _points_arg(args, kwargs, result):
    return float(np.size(args[1] if len(args) > 1 else next(iter(kwargs.values()))))


def _grid_points(args, kwargs, result):
    return float(result.times.size)


def _escalated(args, kwargs, result):
    return float(result.resonance_escalation > 0)


# Per-span measurements beyond timing, stored in the span's ``extra`` field.
EXTRA = {
    "singlim.exppoly.ExpPoly.value": _points_arg,
    "singlim.profiles.ProfileFunction.sample": _points_arg,
    "singlim.timegrid.standard_grid": _grid_points,
    "singlim.timegrid.TimeGrid.with_layer_points": _grid_points,
    "singlim.modes.solve_forced": _escalated,
}


def _key(x):
    """Hashable value identity of a constructor argument."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            _key(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    if isinstance(x, (tuple, list)):
        return tuple(_key(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _key(v)) for k, v in x.items()))
    return x


def _eps_of(args, kwargs):
    pd = args[0] if args else kwargs.get("pd")
    return getattr(pd, "eps", None)


class Tracer:
    """Collects spans for wrapped callables; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.extra = array.array("d")
        self._stack = [-1]
        self.constructor_keys: set = set()
        self.remainder_eps: set = set()

    # -- installation -----------------------------------------------------

    def install(self, package: str = "singlim") -> int:
        """Wrap the public callables of every loaded module of ``package``."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        replaced: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(f"{mod.__name__}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(mod.__name__, obj)
        # every namespace that imported a wrapped function gets the wrapper
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        return len(self._ids)

    def _wrap_class(self, modname: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in PUBLIC_DUNDERS:
                continue
            name = f"{modname}.{cls.__name__}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        extra = EXTRA.get(name)
        keyed = name in PROFILE_CONSTRUCTORS
        remainder = name == "singlim.profiles.corrector_remainder"
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end, extra_a = (
            self.name_id, self.parent, self.start, self.end, self.extra,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            extra_a.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if extra is not None:
                extra_a[idx] = extra(args, kwargs, result)
            if keyed:
                self.constructor_keys.add((nid, _key(args), _key(kwargs)))
            if remainder:
                self.remainder_eps.add(_eps_of(args, kwargs))
            return result

        return functools.wraps(fn)(traced)

    # -- output -----------------------------------------------------------

    def write(self, path) -> int:
        """Write the raw spans as gzip TSV: id, parent, name, start, end, extra."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart\tend\textra\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\t{self.extra[i]!r}\n"
                )
        return len(self.start)

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, total_s (inclusive), self_s and extra sum per span name."""
        n = len(self.start)
        out: dict[str, dict[str, float]] = {}
        if n == 0:
            return out
        ids = np.array(self.name_id, dtype=np.int64)
        par = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        covered = np.zeros(n)
        has_parent = par >= 0
        np.add.at(covered, par[has_parent], dur[has_parent])
        self_t = dur - covered
        extra = np.array(self.extra)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selfs = np.bincount(ids, weights=self_t, minlength=k)
        extras = np.bincount(ids, weights=extra, minlength=k)
        for i, name in enumerate(self.names):
            if calls[i]:
                out[name] = {
                    "calls": int(calls[i]),
                    "total_s": float(total[i]),
                    "self_s": float(selfs[i]),
                    "extra": float(extras[i]),
                }
        return out

    def unique_constructions(self) -> int:
        return len(self.constructor_keys)


def layer_metrics(funcs: dict, unique_constructions: int, remainder_eps: int) -> dict:
    """Fold per-function span totals into the benchmark's per-layer metrics."""

    def get(names, field):
        if isinstance(names, str):
            names = [names]
        return sum(funcs.get(n, {}).get(field, 0) for n in names)

    m: dict[str, float] = {}
    value = "singlim.exppoly.ExpPoly.value"
    m["exppoly.value.calls"] = get(value, "calls")
    m["exppoly.value.self_s"] = get(value, "self_s")
    m["exppoly.value.points"] = get(value, "extra")
    m["exppoly.value.points_per_call"] = (
        m["exppoly.value.points"] / m["exppoly.value.calls"] if m["exppoly.value.calls"] else 0.0
    )
    sample = "singlim.profiles.ProfileFunction.sample"
    m["profiles.sample.calls"] = get(sample, "calls")
    m["profiles.sample.self_s"] = get(sample, "self_s")
    m["profiles.sample.points"] = get(sample, "extra")
    m["exppoly.build.calls"] = get("singlim.exppoly.ExpPoly.build", "calls")
    m["exppoly.build.self_s"] = get(EXPPOLY_ALGEBRA, "self_s")
    for fn, name in (
        ("exppoly.integral", "singlim.exppoly.ExpPoly.integral"),
        ("exppoly.power_exp_moment", "singlim.exppoly.power_exp_moment"),
    ):
        m[f"{fn}.calls"] = get(name, "calls")
        m[f"{fn}.self_s"] = get(name, "self_s")
    m["profiles.construct.calls"] = get(PROFILE_CONSTRUCTORS, "calls")
    m["profiles.construct.self_s"] = get(PROFILE_CONSTRUCTORS, "self_s")
    m["profiles.construct.unique_frac"] = (
        unique_constructions / m["profiles.construct.calls"]
        if m["profiles.construct.calls"] else 0.0
    )
    rem = get("singlim.profiles.corrector_remainder", "calls")
    m["profiles.corrector_remainder.calls"] = rem
    m["profiles.corrector_remainder.calls_per_eps"] = rem / remainder_eps if remainder_eps else 0.0
    for fn in ("solve_homogeneous", "solve_forced", "rk_reference_path"):
        m[f"modes.{fn}.calls"] = get(f"singlim.modes.{fn}", "calls")
        m[f"modes.{fn}.self_s"] = get(f"singlim.modes.{fn}", "self_s")
    m["modes.solve_forced.escalated"] = get("singlim.modes.solve_forced", "extra")
    m["timegrid.build.calls"] = get(GRID_CONSTRUCTORS, "calls")
    m["timegrid.build.self_s"] = get(GRID_CONSTRUCTORS, "self_s")
    m["timegrid.build.points"] = get(GRID_CONSTRUCTORS, "extra")
    m["spectral.calls"] = get(SPECTRAL_OPERATORS, "calls")
    m["spectral.self_s"] = get(SPECTRAL_OPERATORS, "self_s")
    for fn in CHECK_GROUPS:
        m[f"verification.{fn}.total_s"] = get(f"singlim.verification.{fn}", "total_s")
        m[f"verification.{fn}.self_s"] = get(f"singlim.verification.{fn}", "self_s")
    m["verification.fit_rate.calls"] = get("singlim.verification.fit_rate", "calls")
    m["cli.fmt.calls"] = get("singlim.cli.fmt", "calls")
    m["cli.fmt.self_s"] = get("singlim.cli.fmt", "self_s")
    for cmd in CLI_COMMANDS:
        m[f"cli.cmd_{cmd}.self_s"] = get(f"singlim.cli.cmd_{cmd}", "self_s")
    m["cli.parse.self_s"] = get("singlim.cli.ExperimentConfig.parse", "self_s")
    return m
