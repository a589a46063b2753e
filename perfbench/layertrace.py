"""Per-layer tracing of knotfloer from outside the package.

`LayerTracer.install()` replaces every public function and method of the
package's computational modules, at every place it is bound (a name
imported into another module is a separate binding), with a wrapper.
Layer-boundary calls record a span (name, parent span, start, end); hot
tiny calls (ring arithmetic, basis lookups, `LinMap.__init__`, ...) are
only counted, so the trace does not drown them in timer overhead.
`uninstall()` puts every original object back.

Self time of a span is its duration minus the durations of its child
spans; a counted-only call's time stays in its caller's self time.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("ring", "complexes", "linalg", "homology", "morphism",
          "localequiv", "tensorsum", "cfk", "knotlib")

# Module-level public functions that are hot or tiny: counted, not spanned.
# All of `ring` is counted.
COUNTED_FUNCTIONS = {
    "complexes.add_term", "complexes.add_elements", "complexes.scale_element",
    "complexes.reduce_element", "linalg.bits_of", "linalg.reduce_mod_span",
    "homology.torsion_order", "morphism.differential_map",
    "morphism.identity_map", "morphism.zero_map", "morphism.auto_cap",
    "tensorsum.pair_name",
}
# Methods that mark a layer boundary: spanned.  Other methods are counted.
SPANNED_METHODS = {
    "complexes.Complex.validate",
    "linalg.GF2System.add_equation", "linalg.GF2System.add_equations",
    "linalg.GF2System.copy", "linalg.GF2System.particular_solution",
    "linalg.GF2System.nullspace_basis", "linalg.GF2System.solution_space",
    "homology.UHomology.__init__",
    "morphism.LinMap.compose", "morphism.MapSpace.build",
    "localequiv.SelfLocalFamily.__init__", "localequiv.KernelSpace.contains",
}
# Dunders wrapped (others are left alone).
WRAPPED_DUNDERS = {
    "ring.RingElt.__init__", "ring.RingElt.__add__", "ring.RingElt.__mul__",
    "morphism.LinMap.__init__", "morphism.LinMap.__add__",
    "homology.UHomology.__init__", "localequiv.SelfLocalFamily.__init__",
}


class LayerTracer:
    """Spans and counts for one traced region; `reset()` starts a new one."""

    def __init__(self, extra_modules=()):
        self._extra = tuple(extra_modules)
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        # spans: [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._homology_seen: set = set()
        self._iota_seen: set = set()

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers hold these objects,
        so they are cleared in place)."""
        for record in (self.counts, self.sums, self.spans, self._stack,
                       self._homology_seen, self._iota_seen):
            record.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"knotfloer.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{layer}.{name}"
                    spanned = layer != "ring" and key not in COUNTED_FUNCTIONS
                    wrapped[id(obj)] = self._wrap(obj, key, spanned)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, layer)
        # rebind every module-level binding of a wrapped function
        modules = [m for name, m in sys.modules.items()
                   if name == "knotfloer" or name.startswith("knotfloer.")]
        for mod in modules + list(self._extra):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_class(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            key = f"{layer}.{cls.__name__}.{name}"
            if name.startswith("__"):
                if key not in WRAPPED_DUNDERS:
                    continue
            elif name.startswith("_"):
                continue
            spanned = key in SPANNED_METHODS
            if isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(
                    self._wrap(raw.__func__, key, spanned)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self._wrap(raw, key, spanned))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, key: str, spanned: bool):
        counts, spans, stack = self.counts, self.spans, self._stack
        if not spanned:
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        tracer = self
        hook = _HOOKS.get(key)

        def spanned_call(*args, **kwargs):
            counts[key] += 1
            idx = len(spans)
            span = [key, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            before = hook.before(tracer, args) if hook else None
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook:
                hook.after(tracer, args, result, before)
            return result
        return spanned_call

    # -- derived figures -----------------------------------------------------

    def _self_times(self) -> list[float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[3] - s[2] - c for s, c in zip(spans, child)]

    def _inclusive(self, names) -> float:
        """Time in spans named `names`, not counting nested ones twice."""
        spans = self.spans
        total = 0.0
        for name, parent, t0, t1 in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][1]
            if p < 0:
                total += t1 - t0
        return total

    def _under(self, name: str, ancestor: str) -> float:
        spans = self.spans
        total = 0.0
        for sname, parent, t0, t1 in spans:
            if sname != name:
                continue
            p = parent
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][1]
            if p >= 0:
                total += t1 - t0
        return total

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures for everything recorded since `reset()`."""
        c, s = self.counts, self.sums
        self_t = self._self_times()

        def self_of(name):
            return sum((t for sp, t in zip(self.spans, self_t) if sp[0] == name), 0.0)

        def incl(*names):
            return self._inclusive(set(names))

        gf2 = {k for k in SPANNED_METHODS if k.startswith("linalg.GF2System.")}
        equations = c["linalg.GF2System.add_equation"]
        return {
            "ring.mul_calls": c["ring.RingElt.__mul__"] + c["ring.mul"],
            "ring.reduce_calls": c["ring.RingElt.reduce"] + c["ring.reduce"],
            "ring.elt_created": c["ring.RingElt.__init__"],
            "complexes.validate_calls": c["complexes.Complex.validate"],
            "complexes.validate_s": incl("complexes.Complex.validate"),
            "complexes.apply_d_calls": c["complexes.Complex.apply_d"],
            "linalg.gf2_equations": equations,
            "linalg.gf2_useful_ratio": s["gf2_useful"] / equations if equations else 0.0,
            "linalg.gf2_s": self._inclusive(gf2),
            "linalg.rref_calls": c["linalg.rref_basis"],
            "linalg.rref_vectors": s["rref_vectors"],
            "linalg.rref_s": incl("linalg.rref_basis"),
            "linalg.smith_calls": c["linalg.smith_form"],
            "linalg.smith_entries": s["smith_entries"],
            "linalg.smith_s": incl("linalg.smith_form"),
            "homology.uhomology_calls": c["homology.UHomology.__init__"],
            "homology.uhomology_repeat_calls": s["uhomology_repeat"],
            "homology.uhomology_s": incl("homology.UHomology.__init__"),
            "morphism.linmap_created": c["morphism.LinMap.__init__"],
            "morphism.compose_calls": c["morphism.LinMap.compose"],
            "morphism.compose_s": incl("morphism.LinMap.compose"),
            "morphism.chain_defect_calls": c["morphism.chain_defect"],
            "morphism.map_from_bits_calls": c["morphism.MapSpace.map_from_bits"],
            "morphism.mapspace_builds": c["morphism.MapSpace.build"],
            "morphism.mapspace_dim_sum": s["mapspace_dim"],
            "morphism.validate_iota_calls": c["morphism.validate_iota"],
            "morphism.validate_iota_repeat_calls": s["validate_iota_repeat"],
            "morphism.validate_iota_s": incl("morphism.validate_iota"),
            "morphism.enum_calls": c["morphism.enumerate_almost_iotas"],
            "morphism.enum_s": incl("morphism.enumerate_almost_iotas"),
            "morphism.enum_self_s": self_of("morphism.enumerate_almost_iotas"),
            "morphism.iotas_found": s["iotas_found"],
            "localequiv.search_calls": c["localequiv.search_local_map"],
            "localequiv.search_s": incl("localequiv.search_local_map"),
            "localequiv.search_self_s": self_of("localequiv.search_local_map"),
            "localequiv.unknowns": s["token_unknowns"],
            "localequiv.equations": s["token_equations"],
            "localequiv.iota_pairs": s["token_iota_pairs"],
            "localequiv.self_local_family_s": incl(
                "localequiv.SelfLocalFamily.__init__"),
            "localequiv.maximal_self_local_calls": c[
                "localequiv.maximal_self_local_map"],
            "localequiv.kernel_space_s": incl("localequiv.kernel_space"),
            "localequiv.kernel_space_discarded_s": self._under(
                "localequiv.kernel_space", "localequiv.connected_complex"),
            "localequiv.image_complex_s": incl("localequiv.image_complex"),
            "localequiv.verify_s": incl("localequiv.verify_almost_local"),
            "tensorsum.tensor_s": incl("tensorsum.tensor"),
            "tensorsum.product_gens": s["product_gens"],
            "tensorsum.product_iota_s": incl("tensorsum.product_iota"),
            "tensorsum.product_equivalence_s": incl("tensorsum.product_equivalence"),
            "cfk.render_s": incl("cfk.render_cfk"),
            "cfk.parse_s": incl("cfk.parse_cfk"),
            "cfk.bytes": s["cfk_bytes"],
            "knotlib.build_s": incl("knotlib.build_cable", "knotlib.build_unknot",
                                    "knotlib.build_figure_eight"),
        }


# -- per-function hooks: extra quantities read from arguments and results -----
# Hooks read plain attributes only, never wrapped functions, so they do not
# disturb the counts.

class _Hook:
    def before(self, tracer, args):
        return None

    def after(self, tracer, args, result, before):
        pass


class _Gf2Equation(_Hook):
    def before(self, tracer, args):
        return len(args[0].rows)

    def after(self, tracer, args, result, before):
        if len(args[0].rows) > before:
            tracer.sums["gf2_useful"] += 1


class _Sum(_Hook):
    def __init__(self, key, measure):
        self.key, self.measure = key, measure

    def after(self, tracer, args, result, before):
        tracer.sums[self.key] += self.measure(args, result)


class _Repeat(_Hook):
    """Counts calls on inputs already seen since the last reset."""

    def __init__(self, key, identity, seen_attr):
        self.key, self.identity, self.seen_attr = key, identity, seen_attr

    def before(self, tracer, args):
        seen = getattr(tracer, self.seen_attr)
        ident = self.identity(args)
        if ident in seen:
            tracer.sums[self.key] += 1
        seen.add(ident)


def _iota_identity(args):
    C, iota = args[0], args[1]
    action = frozenset((src, tgt, coeff.terms)
                       for src, row in iota.map.action.items()
                       for tgt, coeff in row.items())
    return C, iota.mode, action


class _Token(_Hook):
    """Search-space dimensions from a nonexistence certificate."""

    def after(self, tracer, args, result, before):
        if result.token is not None:
            for field in ("unknowns", "equations", "iota_pairs"):
                tracer.sums["token_" + field] += getattr(result.token, field)


_HOOKS = {
    "linalg.GF2System.add_equation": _Gf2Equation(),
    "linalg.rref_basis": _Sum("rref_vectors", lambda a, r: len(a[0])),
    "linalg.smith_form": _Sum("smith_entries",
                              lambda a, r: len(a[0].row_gr) * len(a[0].col_gr)),
    "homology.UHomology.__init__": _Repeat("uhomology_repeat", lambda a: a[1],
                                           "_homology_seen"),
    "morphism.MapSpace.build": _Sum("mapspace_dim", lambda a, r: len(r.pairs)),
    "morphism.validate_iota": _Repeat("validate_iota_repeat", _iota_identity,
                                      "_iota_seen"),
    "morphism.enumerate_almost_iotas": _Sum("iotas_found", lambda a, r: len(r)),
    "localequiv.search_local_map": _Token(),
    "tensorsum.tensor": _Sum("product_gens", lambda a, r: len(r.basis)),
    "cfk.render_cfk": _Sum("cfk_bytes", lambda a, r: len(r.encode())),
    "cfk.parse_cfk": _Sum("cfk_bytes", lambda a, r: len(a[0].encode())),
}
