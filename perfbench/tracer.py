"""Module-boundary tracing of the program, installed from outside.

`Tracer.install` replaces the public functions and methods of the traced
modules with wrappers; nothing under `src/` changes.  A module-level function
is bound by name in every module that imports it (`driver` holds
`ffield.factor` as `ffactor`, `types` holds `phi_expand` and `vpoly`), so each
of those bindings is replaced too.  `uninstall` puts the originals back.

A span opens whenever a call crosses from one module into another, and a
module's self time is the time of its spans minus the time of the spans they
opened.  A few named functions are also timed inclusively (outermost call
only, so recursion is not counted twice) or counted on every call.  The one
private function wrapped is `driver._initialize`, because initialization has
no public entry point.  Trivial accessors (`IntPolynomial.degree`,
`.is_zero`, `.lc`, `.is_monic`, `Field.is_zero`) stay unwrapped: a wrapper
would cost more than they do, so their time counts to the caller.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

MODULES = ("cli", "driver", "types", "zpoly", "ffield", "polygon", "idealgen")

# wrapped function -> metric, timed inclusively
TIMED = {
    "zpoly.pval": "zpoly.pval_s",
    "zpoly.IntPolynomial.divmod_monic": "zpoly.divmod_monic_s",
    "zpoly.is_squarefree": "zpoly.squarefree_s",
    "zpoly.resultant": "zpoly.resultant_s",
    "zpoly.xgcd_rat": "zpoly.xgcd_rat_s",
    "types.Type.newton_data": "types.newton_data_s",
    "types.Type.residual_on_side": "types.residual_s",
    "types.Level.__init__": "types.level_s",
    "types.Type.representative": "types.representative_s",
    "driver._initialize": "driver.initialize_s",
    "driver.disc_valuation": "driver.disc_s",
    "idealgen.compute_generators": "idealgen.generators_s",
    "idealgen.beta": "idealgen.beta_s",
}
# wrapped function -> metric, counting every call
COUNTED = {
    "zpoly.pval": "zpoly.pval_calls",
    "zpoly.IntPolynomial.divmod_monic": "zpoly.divmod_monic_calls",
    "ffield.Field.mul": "ffield.mul_calls",
    "ffield.factor": "ffield.factor_calls",
    "types.Type.v": "types.v_calls",
    "types.Type.cval": "types.cval_calls",
    "polygon.lower_hull": "polygon.hull_calls",
    "idealgen.elem_mul": "idealgen.elem_mul_calls",
}
# ffield.factor time, split by the driver function that asked for it
FACTOR_CALLERS = {"_initialize": "ffield.factor_init_s", "_run_branch": "ffield.factor_residual_s"}
PRIVATE = {"driver._initialize"}
SKIPPED = {
    "zpoly.IntPolynomial.degree",
    "zpoly.IntPolynomial.is_zero",
    "zpoly.IntPolynomial.lc",
    "zpoly.IntPolynomial.is_monic",
    "zpoly.IntPolynomial.__setattr__",
    "ffield.Field.is_zero",
    "ffield.Field.elements",  # a generator: its work runs after the call returns
}


def _bits(coeffs) -> int:
    return max((abs(c).bit_length() for c in coeffs), default=0)


class Tracer:
    """Counts, inclusive times, self times per module and maxima."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.maxima: Counter = Counter()
        self.stack: List[list] = [["bench", 0.0, 0.0]]
        self.depth: Counter = Counter()
        self._saved: List[tuple] = []

    def _wrap(self, fn, module: str, key: str):
        tracer, stack, depth = self, self.stack, self.depth
        counts, times = self.counts, self.times
        clock = time.perf_counter
        counted = COUNTED.get(key)
        timed = TIMED.get(key)
        on_call = _ON_CALL.get(key)
        on_result = _ON_RESULT.get(key)
        is_factor = key == "ffield.factor"

        def wrapper(*args, **kwargs):
            if counted:
                counts[counted] += 1
            if on_call:
                on_call(tracer, args)
            tk = FACTOR_CALLERS.get(sys._getframe(1).f_code.co_name) if is_factor else timed
            cross = stack[-1][0] != module
            if tk is None and not cross and on_result is None:
                return fn(*args, **kwargs)
            outer = tk is not None and depth[tk] == 0
            if tk is not None:
                depth[tk] += 1
            frame = [module, clock(), 0.0]
            if cross:
                stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                if tk is not None:
                    depth[tk] -= 1
                    if outer:
                        times[tk] += dur
                if cross:
                    stack.pop()
                    times[f"{module}.self_s"] += dur - frame[2]
                    stack[-1][2] += dur
            if on_result:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installing and removing the wrappers ---

    def install(self) -> None:
        mods = [importlib.import_module(f"montes.{name}") for name in MODULES]
        wrapped = {}  # id(original) -> (original, wrapper)
        for name, mod in zip(MODULES, mods):
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{name}.{attr}"
                if attr.startswith("_") and key not in PRIVATE:
                    continue
                if isinstance(obj, type):
                    self._install_class(obj, name, key)
                elif inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, name, key))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, obj, hit[1])

    def _install_class(self, cls, module: str, prefix: str) -> None:
        filename = sys.modules[cls.__module__].__file__
        for attr, raw in list(vars(cls).items()):
            key = f"{prefix}.{attr}"
            dunder = attr.startswith("__") and attr.endswith("__")
            if key in SKIPPED or attr in ("__repr__", "__str__"):
                continue
            if attr.startswith("_") and not dunder:
                continue
            if isinstance(raw, property):
                fn = raw.fget
                make = lambda w, raw=raw: property(w, raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, (staticmethod, classmethod)):
                fn, make = raw.__func__, type(raw)
            else:
                fn, make = raw, (lambda w: w)
            code = getattr(fn, "__code__", None)
            if code is None or code.co_filename != filename:
                continue  # slots, data, and methods generated by dataclasses
            self._set(cls, attr, raw, make(self._wrap(fn, module, key)))

    def _set(self, owner, attr, old, new) -> None:
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    # --- reading and rolling back the figures ---

    def state(self) -> Tuple[dict, dict, dict]:
        return dict(self.counts), dict(self.times), dict(self.maxima)

    def restore(self, state: Tuple[dict, dict, dict]) -> None:
        """Roll the figures back to `state` and drop any spans left open."""
        for live, saved in zip((self.counts, self.times, self.maxima), state):
            live.clear()
            live.update(saved)
        del self.stack[1:]
        self.stack[0][2] = 0.0
        self.depth.clear()

    def figures(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for part in self.state():
            out.update(part)
        return out


def _divmod_bits(tracer, args) -> None:
    m = tracer.maxima
    m["zpoly.divmod_monic_max_bits"] = max(m["zpoly.divmod_monic_max_bits"], _bits(args[0].coeffs))


def _branch_move(metric):
    def note(tracer, args):
        if tracer.stack[-1][0] == "driver":
            tracer.counts[metric] += 1

    return note


def _run_result(tracer, result) -> None:
    tracer.counts["driver.pops"] += result.pop_count
    order = max((len(r.tipo.levels) for r in result.primes if r.tipo is not None), default=0)
    tracer.maxima["driver.max_order"] = max(tracer.maxima["driver.max_order"], order)


def _generator_bits(tracer, result) -> None:
    m = tracer.maxima
    bits = max((_bits(a.num.coeffs) for a in result), default=0)
    m["idealgen.generator_max_bits"] = max(m["idealgen.generator_max_bits"], bits)


# hooks on the arguments of a call, and on the value it returns
_ON_CALL = {
    "zpoly.IntPolynomial.divmod_monic": _divmod_bits,
    "types.Type.refined": _branch_move("driver.refinements"),
    "types.Type.extended": _branch_move("driver.extensions"),
}
_ON_RESULT = {
    "driver.factor_prime": _run_result,
    "idealgen.compute_generators": _generator_bits,
}
