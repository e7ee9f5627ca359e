"""Per-layer tracing from outside the program.

The traced run wraps horopoly's public functions at module level: every
module attribute that is one of the listed functions is replaced by a
wrapper that records a span (name, parent span, duration) and a few
counts.  Spans are aggregated in memory per (parent, name) edge and
written out when the run ends.  A layer's self time is its spans'
duration minus the time of the spans they caused.  A listed function
that a later version no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name); span names are the layer metric stems
WRAPPED = (
    ("horopoly._linalg", "rref", "linalg.rref"),
    ("horopoly._linalg", "solve_square", "linalg.solve"),
    ("horopoly._linalg", "solve_system", "linalg.solve"),
    ("horopoly.polytope", "convex_hull", "polytope.convex_hull"),
    ("horopoly.polytope", "face_lattice", "polytope.face_lattice"),
    ("horopoly.polytope", "face_of", "polytope.face_of"),
    ("horopoly.polytope", "dual_face", "polytope.dual_face"),
    ("horopoly.polytope", "polar_dual", "polytope.polar_dual"),
    ("horopoly.norm", "gauge", "norm.gauge"),
    ("horopoly.norm", "pseudo_norm", "norm.pseudo_norm"),
    ("horopoly.horoboundary", "limit_of_ray", "horoboundary.limit_of_ray"),
    ("horopoly.horoboundary", "make_horofunction", "horoboundary.make_horofunction"),
    ("horopoly.horoboundary", "evaluate", "horoboundary.evaluate"),
    ("horopoly.horoboundary", "psi", "horoboundary.psi"),
    ("horopoly.horoboundary", "enumerate_strata", "horoboundary.enumerate_strata"),
    ("horopoly.rootsys", "weyl_group", "rootsys.weyl_group"),
    ("horopoly.rootsys", "weyl_orbit", "rootsys.weyl_orbit"),
    ("horopoly.rootsys", "weyl_weight_matrices", "rootsys.weyl_weight_matrices"),
    ("horopoly.satake", "weight_spec", "satake.weight_spec"),
    ("horopoly.satake", "weight_hull", "satake.weight_hull"),
    ("horopoly.satake", "classify", "satake.classify"),
    ("horopoly.satake", "same_compactification", "satake.same_compactification"),
    ("horopoly.flatspace", "cartan_projection", "flatspace.cartan_projection"),
    ("horopoly.flatspace", "finsler_distance", "flatspace.finsler_distance"),
    ("horopoly.flatspace", "invariance_suite", "flatspace.invariance_suite"),
    ("horopoly.flatspace", "flat_limit_consistency", "flatspace.flat_limit_consistency"),
    ("horopoly.render", "render_svg", "render.render_svg"),
    ("horopoly.render", "render_off", "render.render_off"),
)

CLI_VERBS = ("hull", "dual", "satake", "classify", "strata", "limit-ray", "render",
             "flat-test", "compare")


class Tracer:
    def __init__(self):
        self.stack: list = []  # [span name, time covered by child spans]
        self.edges: dict = {}  # (parent, name) -> [calls, total s, self s]
        self.counts: dict = defaultdict(int)
        self.absent: list = []
        self._built_groups: dict = {}

    def reset(self) -> None:
        """Forget spans and counts of set-up; groups built there stay known."""
        self.edges.clear()
        self.counts.clear()

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name, hook=None):
        stack, edges = self.stack, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    # -- counts taken at the same boundaries ---------------------------------

    def _hull(self, args, result):
        self.counts["polytope.hull_input_points"] += len(args[0])
        self.counts["polytope.hull_facets"] += len(result.facets)

    def _lattice(self, args, result):
        self.counts["polytope.faces_built"] += len(result)
        if any(frame[0].startswith("satake.") for frame in self.stack):
            self.counts["satake.lattices"] += 1

    def _group(self, args, result):
        # a group object not seen before was built by this call
        if id(result) not in self._built_groups:
            self._built_groups[id(result)] = result
            self.counts["rootsys.group_elements_built"] += len(result.elements)

    def install(self) -> None:
        """Wrap every listed function in every loaded horopoly module."""
        hooks = {"polytope.convex_hull": self._hull,
                 "polytope.face_lattice": self._lattice,
                 "rootsys.weyl_group": self._group}
        mods = {n: m for n, m in sys.modules.items()
                if n == "horopoly" or n.startswith("horopoly.")}
        for modname, attr, name in WRAPPED:
            original = getattr(mods.get(modname), attr, None)
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(original, name, hooks.get(name))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- per-pass layer metrics --------------------------------------------

    def metrics(self, passes: int) -> dict:
        self_ms: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for (_, name), (n, _, own) in self.edges.items():
            self_ms[name] += own * 1000.0
            calls[name] += n
        out = {}
        for name in {n for _, _, n in WRAPPED} | {f"cli.{v}" for v in CLI_VERBS}:
            out[f"{name}_ms"] = self_ms.get(name, 0.0) / passes
            out[f"{name}_calls"] = calls.get(name, 0) / passes
        for key in ("polytope.hull_input_points", "polytope.hull_facets",
                    "polytope.faces_built", "rootsys.group_elements_built"):
            out[key] = self.counts.get(key, 0) / passes
        specs = calls.get("satake.weight_spec", 0)
        out["satake.hull_builds_per_spec"] = (calls.get("satake.weight_hull", 0) / specs
                                              if specs else 0.0)
        out["satake.lattices_per_spec"] = (self.counts.get("satake.lattices", 0) / specs
                                           if specs else 0.0)
        return out

    def span_table(self, passes: int) -> list:
        return [{"parent": p, "name": n, "calls_per_pass": c / passes,
                 "total_ms_per_pass": t * 1000.0 / passes,
                 "self_ms_per_pass": s * 1000.0 / passes}
                for (p, n), (c, t, s) in sorted(self.edges.items(), key=lambda e: -e[1][2])]


# ---------------------------------------------------------------------------
# import costs, from fresh interpreters


def _import_tree(stderr: str) -> list:
    """Parse `-X importtime` output into (name, cumulative us, children)."""
    pending: list = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop()[1])
        pending.append((depth, (name.strip(), int(cum), children)))
    return [node for _, node in pending]


def _outermost(nodes, roots) -> int:
    total = 0
    for name, cum, children in nodes:
        if name.split(".")[0] in roots:
            total += cum
        else:
            total += _outermost(children, roots)
    return total


def import_costs(env: dict, repeats: int = 3) -> dict:
    """Interpreter start, `import horopoly.cli` and its numpy/scipy share."""
    start, cli, floats = [], [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        start.append((perf_counter() - t0) * 1000.0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import horopoly.cli"],
                              env=env, check=True, capture_output=True, text=True)
        tree = _import_tree(proc.stderr)
        cli.append(_outermost(tree, {"horopoly"}) / 1000.0)
        floats.append(_outermost(tree, {"numpy", "scipy"}) / 1000.0)
    return {"import.interpreter_ms": statistics.median(start),
            "import.cli_ms": statistics.median(cli),
            "import.float_stack_ms": statistics.median(floats)}
