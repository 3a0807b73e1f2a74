"""Per-layer tracer for one totprog CLI command, installed from outside the package.

Usage::

    python tracer.py TRACE.json <totprog cli arguments...>

The tracer wraps, at run time, the public functions of every totprog module
(the layers), a few named methods, and the mpmath kernels those functions call;
then it runs ``totprog.cli.main`` on the arguments and writes what it recorded
to TRACE.json.  Nothing is written to stdout, so the command's output stays
byte-identical to an untraced run.

Accounting:

* A layer's self time is the time inside its wrapped calls minus the time
  spent in nested wrapped calls of *other* layers.  Calls within one layer do
  not open a new frame.  Time outside every layer frame (tracer start to the
  end of ``main``) is ``unwrapped_s``; self times plus ``unwrapped_s`` equal
  the traced wall time.
* An mpmath kernel call is charged to the innermost open layer: its time stays
  in that layer's self time and is also summed into ``kernel_s[layer]``.
* ``lru_cache`` statistics are read from the original function objects,
  because a wrapper hides ``cache_info()``.
* ``found`` lists every wrapped name and every cache read.  Names that are not
  found (removed or renamed by a later change) are simply missing there, or
  listed under ``absent`` when named explicitly, instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("characters", "primes", "lvalues", "constants", "criterion", "cli")

# Module-level public functions are found automatically; methods are named.
METHODS = {
    "characters": (
        "CharacterGroup.by_label",
        "DirichletCharacter.primitive",
        "DirichletCharacter.conjugate",
        "DirichletCharacter.power",
    ),
    "primes": (
        "PrimeTable.__init__",
        "ProgressionStats.__init__",
        "ProgressionStats.theta",
        "ProgressionStats.psi",
        "ProgressionStats.log_one_minus",
        "ProgressionStats.primorials",
    ),
}

KERNELS = ("stieltjes", "digamma", "zeta", "loggamma")

# Per-entry logged values of a ProgressionStats build, grouped by the index
# they share: one entry per progression prime, and one per prime power.
_LOGGED_LISTS = (("theta_cum", "log1m_cum"), ("power_cum",))


class _ReadTracker(list):
    """A list that remembers how far into it anyone has read."""

    __slots__ = ("extent",)

    def __init__(self, items):
        super().__init__(items)
        self.extent = 0

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            span = range(*i.indices(n))
            if span:
                self.extent = max(self.extent, max(span[0], span[-1]) + 1)
        else:
            self.extent = max(self.extent, (i if i >= 0 else n + i) + 1)
        return list.__getitem__(self, i)

    def __iter__(self):
        self.extent = len(self)
        return list.__iter__(self)


class Tracer:
    def __init__(self):
        # frame stack: the layer that owns each open frame, and the time its
        # nested frames of other layers took
        self.layers = ["unwrapped"]
        self.child = [0.0]
        self.self_s = defaultdict(float)
        self.kernel_s = defaultdict(float)
        self.kernel_calls = defaultdict(int)
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.active = defaultdict(int)
        self.in_kernel = False
        self.wrapped = []
        self.absent = []
        self.caches = {}
        self.counters = defaultdict(int)
        self.trackers = []
        self._undo = []
        self.t0 = None

    # --- installation -----------------------------------------------------

    def install(self, methods=METHODS, kernels=KERNELS):
        import mpmath

        modules = {layer: importlib.import_module(f"totprog.{layer}") for layer in LAYERS}
        replacement = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if not _is_function(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, functools._lru_cache_wrapper):
                    self.caches[f"{layer}.{name}"] = obj
                if not name.startswith("_"):
                    replacement[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
        # rebind in every module, which covers names bound by `from ... import`
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacement:
                    self._set(mod, name, replacement[id(obj)])
        for layer, specs in methods.items():
            for spec in specs:
                cls_name, meth = spec.split(".")
                cls = getattr(modules[layer], cls_name, None)
                fn = vars(cls).get(meth) if isinstance(cls, type) else None
                key = f"{layer}.{spec}"
                if fn is None:
                    self.absent.append(key)
                    continue
                self._set(cls, meth, self._wrap(layer, key, fn))
        for name in kernels:
            fn = getattr(mpmath, name, None)
            if fn is None:
                self.absent.append(f"mpmath.{name}")
                continue
            self._set(mpmath, name, self._wrap_kernel(name, fn))
            self.wrapped.append(f"mpmath.{name}")
        self.t0 = perf_counter()

    def uninstall(self):
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer, key, fn):
        tr = self
        post = _POST_HOOKS.get(key)
        self.wrapped.append(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.calls[key] += 1
            outer = tr.active[key] == 0
            tr.active[key] += 1
            new_frame = tr.layers[-1] != layer
            if new_frame:
                tr.layers.append(layer)
                tr.child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tr.active[key] -= 1
                if outer:
                    tr.incl_s[key] += dt
                if new_frame:
                    tr.layers.pop()
                    tr.self_s[layer] += dt - tr.child.pop()
                    tr.child[-1] += dt
            if post is not None:
                try:
                    post(tr, args, result)
                except (AttributeError, TypeError):
                    if key not in tr.absent:
                        tr.absent.append(key)
            return result

        return wrapper

    def _wrap_kernel(self, name, fn):
        tr = self

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            if tr.in_kernel:  # a kernel calling a kernel counts once
                return fn(*args, **kwargs)
            layer = tr.layers[-1]
            tr.in_kernel = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tr.kernel_s[layer] += perf_counter() - t0
                tr.kernel_calls[f"{layer}.{name}"] += 1
                tr.in_kernel = False

        return kernel

    # --- report -------------------------------------------------------------

    def report(self) -> dict:
        wall = perf_counter() - self.t0
        return {
            "wall_s": wall,
            "unwrapped_s": wall - self.child[0],
            "self_s": dict(self.self_s),
            "kernel_s": dict(self.kernel_s),
            "kernel_calls": dict(self.kernel_calls),
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "cache_hits": {k: f.cache_info().hits for k, f in self.caches.items()},
            "cache_misses": {k: f.cache_info().misses for k, f in self.caches.items()},
            # entries read: per group, the furthest read into any of its lists
            "counters": dict(self.counters, primes_read=sum(max(t.extent for t in g) for g in self.trackers)),
            "found": sorted(set(self.wrapped) | set(self.caches)),
            "absent": self.absent,
        }


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


def _after_stats_build(tr, args, _result):
    st = args[0]
    for group in _LOGGED_LISTS:
        trackers = []
        for name in group:
            trackers.append(_ReadTracker(getattr(st, name)))
            setattr(st, name, trackers[-1])
        tr.counters["primes_logged"] += len(trackers[0])
        tr.trackers.append(trackers)


def _after_series(tr, _args, result):
    tr.counters["points_evaluated"] += len(result.rows)


def _after_point(tr, _args, _result):
    tr.counters["points_evaluated"] += 1


_POST_HOOKS = {
    "primes.ProgressionStats.__init__": _after_stats_build,
    "criterion.log_f_series": _after_series,
    "criterion.log_f": _after_point,
}


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["totprog.cli"]
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
