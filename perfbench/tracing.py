"""Per-layer tracing from the benchmark's own files.

The tracer replaces each listed function where its caller looks it up (a
module global or a class attribute) with a wrapper that counts calls and
times them.  Functions at layer boundaries also record a span (item, name,
start, end, parent span); hot inner functions (series multiply, local-map
apply, echelon steps) are only tallied, so that tracing stays affordable.
A group's time counts only the outermost of its own nested calls.  Spans
stay in memory and are written out once, at the end of the run.  A listed
name that no longer exists is reported as missing and skipped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

# (owner, attribute, group or groups, kind): owner is a dotted path below the
# program's modules namespace; kind "span" records spans, "tally" only counts.
TARGETS = [
    ("cli", "parse", "parse", "span"),
    ("invariant", "cable", "cable", "span"),
    ("invariant", "writhe_gamma", "cable", "span"),
    ("invariant", "boundary_states", "cable", "span"),
    ("tangle", "enumerate_move_sites", "moves", "span"),
    ("tangle", "apply_move", "moves", "span"),
    ("cli", "normalized_invariant", "eval", "span"),
    ("invariant", "normalized_invariant", "eval", "span"),
    ("invariant", "link_invariant", "eval", "span"),
    ("invariant", "phi_coloured", "phi_coloured", "span"),
    ("invariant", "_phi_coloured_once", "pass", "span"),
    ("invariant", "_apply_local", "apply", "tally"),
    ("qseries.LaurentSeries", "__mul__", "mul", "tally"),
    ("qseries.LaurentSeries", "invert", "invert", "tally"),
    ("invariant", "projection", "projector", "span"),
    ("invariant", "inclusion", "projector", "span"),
    ("invariant", "projection_list", "projector", "span"),
    ("invariant", "inclusion_list", "projector", "span"),
    ("intertwiner", "projection", "projector", "span"),
    ("intertwiner", "inclusion", "projector", "span"),
    ("intertwiner.Intertwiner", "tensor", "tensor", "tally"),
    ("intertwiner.Intertwiner", "eq_upto", "compare", "span"),
    ("intertwiner.Intertwiner", "compose", "compose", "tally"),
    ("cli", "jones_wenzl", "jw_check", "span"),
    ("cli", "jones_wenzl_divided", "jw_check", "span"),
    ("cli", "charJW_check", "jw_check", "span"),
    ("intertwiner", "divided_power_act", "divided_power", "span"),
    ("uqsl2", "divided_power_act_closed", "divided_power", "tally"),
    ("exactla", "rref", "rref", "tally"),
    ("grasscoh", "rref", "rref", "tally"),
    ("algebra", "rref", "rref", "tally"),
    ("cli", "wolffhardt_complex", "resolution", "span"),
    ("grasscoh.WolffhardtComplex", "check_resolution", "resolution", "span"),
    ("gl4.Span", "add", ("span", "span_add"), "tally"),
    ("gl4.Span", "contains", "span", "tally"),
    ("gl4", "span_dim", "span", "tally"),
    ("algebra.GradedQuotientAlgebra", "_build", "algebra_build", "span"),
    ("cli", "main", "main", "span"),
    # methods the CLI calls on program objects, so they are not CLI self time
    ("qseries.LaurentSeries", "to_json", "report", "span"),
    ("intertwiner.Intertwiner", "to_json", "report", "span"),
    ("grasscoh.GrCohomology", "graded_dimensions", "report", "span"),
    ("complexes.BimoduleComplex", "verify_complex", "report", "span"),
    ("complexes.BimoduleComplex", "homogeneity_report", "report", "span"),
]

# sizes recorded per call: nnz of a state after a local map, series length
SIZES = {
    "apply": lambda r: len(r.coords),
    "mul": lambda r: len(r.coeffs),
}


@dataclass
class Tally:
    calls: int = 0
    seconds: float = 0.0
    size_sum: int = 0
    size_max: int = 0


class Tracer:
    def __init__(self, qt):
        self.qt = qt
        self.spans: list[tuple] = []    # (item, name, start, end, parent)
        self.tallies: dict[str, Tally] = {}
        self.missing: list[str] = []
        self.item = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)
        self._build()

    def _owner(self, path: str):
        obj = self.qt
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def _build(self) -> None:
        specs = list(TARGETS)
        # every program function the CLI calls gets a span, so that the
        # CLI's self time is only what no child covers
        cli = getattr(self.qt, "cli", None)
        listed = {(o, a) for o, a, _, _ in TARGETS}
        for attr, val in sorted(vars(cli).items()) if cli else ():
            if callable(val) and not isinstance(val, type) and \
                    getattr(val, "__module__", "").startswith("qtangle.") and \
                    val.__module__ != "qtangle.cli" and ("cli", attr) not in listed:
                specs.append(("cli", attr, "cli:" + attr, "span"))
        for owner_path, attr, groups, kind in specs:
            groups = (groups,) if isinstance(groups, str) else groups
            for g in groups:
                self.tallies.setdefault(g, Tally())
                self._depth.setdefault(g, 0)
            owner = self._owner(owner_path)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, f"{owner_path}.{attr}", groups,
                                 kind == "span")
            self._patches.append((owner, attr, original, wrapper))

    def _wrap(self, fn, name: str, groups: tuple, span: bool):
        tallies = [self.tallies[g] for g in groups]
        size = SIZES.get(groups[0])
        depth = self._depth
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = [depth[g] == 0 for g in groups]
            for g in groups:
                depth[g] += 1
            if span:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                for g, tally, top in zip(groups, tallies, outer):
                    depth[g] -= 1
                    tally.calls += 1
                    if top:
                        tally.seconds += t1 - t0
                if span:
                    stack.pop()
                    spans[idx] = (self.item, name, t0, t1, parent)
            if size is not None:
                n = size(result)
                tallies[0].size_sum += n
                if n > tallies[0].size_max:
                    tallies[0].size_max = n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def self_time(self, name: str) -> float:
        """Total duration of `name` spans minus what their children cover."""
        total = 0.0
        covered: dict[int, float] = {}
        for item, n, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
        for idx, (item, n, t0, t1, parent) in enumerate(self.spans):
            if n == name:
                total += (t1 - t0) - covered.get(idx, 0.0)
        return total

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing,
                       "spans": [{"item": s[0], "name": s[1], "start": s[2],
                                  "end": s[3], "parent": s[4]}
                                 for s in self.spans]}, fh)


def per_layer(tr: Tracer, items: int, projection_hits: int,
              projection_misses: int, overhead_pct: float,
              scale: float) -> dict:
    """The per-layer metrics; counts and times are per item, and times are
    multiplied by `scale` into reference seconds."""
    t = tr.tallies

    def per(x):
        return x / items

    def sec(x):
        return scale * x / items

    passes = t["pass"].calls / t["phi_coloured"].calls \
        if t["phi_coloured"].calls else 0.0
    m = {
        "tangle.parse_s": (sec(t["parse"].seconds), "s"),
        "tangle.cable_s": (sec(t["cable"].seconds), "s"),
        "tangle.moves_s": (sec(t["moves"].seconds), "s"),
        "invariant.eval_s": (sec(t["eval"].seconds), "s"),
        "invariant.passes": (passes, "count"),
        "invariant.apply_calls": (per(t["apply"].calls), "count"),
        "invariant.apply_s": (sec(t["apply"].seconds), "s"),
        "invariant.state_nnz_max": (t["apply"].size_max, "count"),
        "invariant.state_nnz_sum": (per(t["apply"].size_sum), "count"),
        "qseries.mul_calls": (per(t["mul"].calls), "count"),
        "qseries.mul_s": (sec(t["mul"].seconds), "s"),
        "qseries.series_len_mean": (
            t["mul"].size_sum / t["mul"].calls if t["mul"].calls else 0.0,
            "count"),
        "qseries.invert_calls": (per(t["invert"].calls), "count"),
        "qseries.invert_s": (sec(t["invert"].seconds), "s"),
        "intertwiner.projection_hits": (per(projection_hits), "count"),
        "intertwiner.projection_misses": (per(projection_misses), "count"),
        "intertwiner.projector_build_s": (sec(t["projector"].seconds), "s"),
        "intertwiner.tensor_s": (sec(t["tensor"].seconds), "s"),
        "intertwiner.compare_s": (sec(t["compare"].seconds), "s"),
        "intertwiner.compose_s": (sec(t["compose"].seconds), "s"),
        "intertwiner.jw_check_s": (sec(t["jw_check"].seconds), "s"),
        "uqsl2.divided_power_s": (sec(t["divided_power"].seconds), "s"),
        "exactla.rref_calls": (per(t["rref"].calls), "count"),
        "exactla.rref_s": (sec(t["rref"].seconds), "s"),
        "grasscoh.resolution_s": (sec(t["resolution"].seconds), "s"),
        "quiverkat.span_add_calls": (per(t["span_add"].calls), "count"),
        "quiverkat.span_s": (sec(t["span"].seconds), "s"),
        "quiverkat.algebra_build_s": (sec(t["algebra_build"].seconds), "s"),
        "cli.self_s": (sec(tr.self_time("cli.main")), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
