"""Span tracing of the lasagna layers from outside the package.

Each function in TARGETS is replaced, at every place a caller looks it up,
by a wrapper that records a span: name, start, end and parent span.  Spans
are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# (module under lasagna, qualified name); a layer entry point also gets .total_s
TARGETS = [
    ("cobcat", "MorphismCombo.then"),
    ("cobcat", "reduce"),
    ("cobcat", "MorphismCombo.invertible_scalar"),
    ("cobcat", "identity_cobordism"),
    ("complexes", "planar_tensor"),
    ("complexes", "glue_tangle"),
    ("complexes", "glue_cobordism"),
    ("complexes", "BigradedComplex.simplify"),
    ("complexes", "BigradedComplex.deloop_generator"),
    ("complexes", "BigradedComplex.gaussian_eliminate"),
    ("complexes", "BigradedComplex.homology_dims"),
    ("khovanov", "scan_complex"),
    ("projector", "twisted_tilde_table"),
    ("rw", "rw_plus"),
    ("linalg", "row_reduce"),
    ("linalg", "Echelon.reduce"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve_in_span"),
    ("densecube", "Cube.__init__"),
    ("densecube", "Cube.homology_basis"),
    ("densecube", "ChainMap.apply"),
    ("densecube", "ChainMap.compose"),
    ("densecube", "ChainMap.is_chain_map"),
    ("densecube", "TrackedReduction.eliminate_all"),
    ("densecube", "TrackedReduction.project"),
    ("cobmaps", "saddle_map"),
    ("cobmaps", "reduction_equivalence"),
    ("skein", "build_stage"),
    ("skein", "_Symmetrizer.__init__"),
    ("skein", "_Symmetrizer.apply"),
    ("skein", "_permutation_chain_map"),
    ("skein", "transition_down"),
    ("skein", "s02_dims"),
    ("skein", "belt_capping_class"),
    ("diagram", "parse_diagram"),
    ("diagram", "LinkDiagram.insert_full_twists"),
    ("catalog", "encircle"),
    ("cli", "run"),
    ("cli", "_cache_get"),
    ("cli", "_cache_put"),
]
ENTRY_POINTS = {
    "khovanov.scan_complex",
    "complexes.BigradedComplex.homology_dims",
    "projector.twisted_tilde_table",
    "rw.rw_plus",
    "skein.s02_dims",
    "skein.belt_capping_class",
    "cli.run",
}
# (name, unit) of every metric metrics() returns besides the per-target ones
DERIVED = [
    ("complexes.gens_peak", "count"),
    ("complexes.elim_yield", "ratio"),
    ("projector.twist_levels", "count"),
    ("skein.perm_maps", "count"),
    ("cli.hit_ratio", "ratio"),
    ("cli.import_s", "s"),  # measured by run.py in fresh interpreters
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.covered_share", "ratio"),
    ("trace.spans", "count"),
]


def target_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for module, qualname in TARGETS:
        name = target_name(module, qualname)
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        if name in ENTRY_POINTS:
            units[name + ".total_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self):
        self.names = [target_name(m, q) for m, q in TARGETS]
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.patches: list[tuple[object, str, object]] = []
        self.gens_peak = 0
        self.cache_hits = 0

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site; raise if one is missing."""
        for nid, (module_name, qualname) in enumerate(TARGETS):
            module = importlib.import_module("lasagna." + module_name)
            owner = module
            *path, attr = qualname.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.restore()
                raise LookupError(f"traced function lasagna.{module_name}.{qualname} no longer resolves")
            after = self._observer(qualname)
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(self._wrap(raw.__func__, nid, after)))
            elif path:
                self._patch(owner, attr, self._wrap(raw, nid, after))
            else:
                # `from .x import f` copies the binding: patch every module holding it
                wrapper = self._wrap(raw, nid, after)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "lasagna" or mod_name.startswith("lasagna."):
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._patch(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _observer(self, qualname: str):
        if qualname == "BigradedComplex.simplify":
            def after(result):
                self.gens_peak = max(self.gens_peak, len(result.gens))
            return after
        if qualname == "_cache_get":
            def after(result):
                self.cache_hits += result is not None
            return after
        return None

    def _wrap(self, fn, nid: int, after):
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        now = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = now()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- results ----------------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float, entry_points) -> dict[str, float]:
        """Per-layer metrics; `entry_points` are the workload's, for trace.covered_share."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        total_s = [0.0] * n_names
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        entry_ids = {self.names.index(name) for name in ENTRY_POINTS}
        workload_ids = {self.names.index(name) for name in entry_points}

        def outermost(i, ids):
            p = self.parent[i]
            while p >= 0 and self.name_id[p] not in ids:
                p = self.parent[p]
            return p < 0

        covered = 0.0
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            # an entry point that recurses counts its outermost call only
            if nid in entry_ids and outermost(i, {nid}):
                total_s[nid] += dur[i]
            # a workload entry point called under another one is covered already
            if nid in workload_ids and outermost(i, workload_ids):
                covered += dur[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid]
            out[name + ".self_s"] = self_s[nid]
            if name in ENTRY_POINTS:
                out[name + ".total_s"] = total_s[nid]

        def count(name):
            return calls[self.names.index(name)]

        out["complexes.gens_peak"] = self.gens_peak
        checks = count("cobcat.MorphismCombo.invertible_scalar")
        out["complexes.elim_yield"] = count("complexes.BigradedComplex.gaussian_eliminate") / checks if checks else 0.0
        out["projector.twist_levels"] = count("projector.twisted_tilde_table")
        out["skein.perm_maps"] = count("skein._permutation_chain_map")
        requests = count("cli.run")
        out["cli.hit_ratio"] = self.cache_hits / requests if requests else 0.0
        out["trace.wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.covered_share"] = covered / traced_wall
        out["trace.spans"] = len(dur)
        return out

    def write_spans(self, path: str) -> None:
        """gzip file: one JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", self.name_id.typecode], ["parent", self.parent.typecode],
                       ["start", self.start.typecode], ["end", self.end.typecode]],
            "clock": "time.perf_counter seconds",
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.start, self.end):
                fh.write(arr.tobytes())
