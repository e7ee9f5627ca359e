"""The four workloads: seeded inputs, the timed operations, their checks.

Each workload builds a fixed list of operations from the seed.  An
operation's `run` calls horopoly and returns its raw answers; `check`
runs afterwards, outside the timed region, and either returns None
(success), returns a reason string (the operation failed), or raises
checks.CheckError (a wrong answer).  Only public functions that back a
CLI verb or an acceptance guarantee are called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import calibrate
import checks as ck
from checks import require

FAR = 10 ** 8


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable


def rand_frac(rng, num, den) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_vec(rng, dim, num=6, den=4) -> tuple:
    return tuple(rand_frac(rng, num, den) for _ in range(dim))


def rand_nonzero(rng, dim, num=6, den=4) -> tuple:
    while True:
        v = rand_vec(rng, dim, num, den)
        if any(v):
            return v


def rand_scale(rng, max_den=4) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, max_den))


def centred_points(rng, dim, count) -> list:
    """count distinct full-dimensional rational points, shifted so their
    barycentre is the origin, which is then interior to their hull."""
    while True:
        pts = {rand_vec(rng, dim, 12, 6) for _ in range(count)}
        if len(pts) < count or ck.affine_rank(pts) < dim:
            continue
        mean = tuple(sum(c) / count for c in zip(*pts))
        return sorted(tuple(a - b for a, b in zip(p, mean)) for p in pts)


def facets_of(P) -> list:
    return [(h.functional, h.offset) for h in P.facets]


def lattice_pairs(faces) -> list:
    return [(F.vertex_indices, F.dim) for F in faces]


def clear_caches(caches) -> None:
    for clear in caches:
        clear()


def find_caches() -> list:
    """cache_clear of every lru cache in the loaded horopoly modules."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "horopoly" or name.startswith("horopoly."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    seen[id(value)] = clear
    return list(seen.values())


class Workload:
    """Common shape: inputs and ops from the seed, per-pass preparation."""

    clear_each_pass = True
    # a calibration block (calibrate.py) before every CAL_EVERY-th
    # operation: a small share of the time it scales
    CAL_EVERY = 1
    cal_ref_s = calibrate.REF_S

    def __init__(self, hp, seed: int, workdir: Path, traced: bool, caches: list):
        self.hp = hp
        self.rng = random.Random(f"{type(self).__name__}:{seed}")
        self.workdir = workdir
        self.traced = traced
        self.caches = caches
        self.ops: list = []

    def before_pass(self) -> None:
        # every pass starts from empty caches, as a fresh process would,
        # so that every pass does the same work
        if self.clear_each_pass:
            clear_caches(self.caches)

    def peak_rss_kb(self, self_kb: int) -> int:
        return self_kb

    def calibration(self) -> float:
        """Seconds one calibration block takes now; cal_ref_s at the
        reference speed."""
        return calibrate.block(1)


# ---------------------------------------------------------------------------
# hulls: random rational balls, the exact hull scan and the polar


class Hulls(Workload):
    # (dimension, points per input, operations per pass); dims 3 and 4 at
    # sizes where the C(n, m) subset scan dominates, dim 2 on the
    # monotone-chain path where a scan change should show nothing.  Of 52
    # operations the median (26th) is the middle of the dim-3 ones and the
    # tail (p80, the 42nd) the middle of the dim-4 ones: a middle value of
    # a group spread over the pass moves less with the machine's short
    # fast and slow stretches than the group's fastest or slowest.
    SIZES = ((2, 40, 20), (3, 20, 12), (4, 15, 20))

    def __init__(self, hp, seed, workdir, traced, caches):
        super().__init__(hp, seed, workdir, traced, caches)
        for dim, count, times in self.SIZES:
            for _ in range(times):
                pts = centred_points(self.rng, dim, count)
                self.ops.append(Op(f"d{dim}n{count}", self._run(pts),
                                   self._check(pts, dim)))
        self.rng.shuffle(self.ops)

    def _run(self, pts):
        hp = self.hp

        def run():
            B = hp.convex_hull(pts)
            Q = hp.polar_dual(B)
            back = hp.polar_dual(Q)
            LB = hp.face_lattice(B)
            LQ = hp.face_lattice(Q)
            picks = {}
            for F in LB:
                if F.is_proper:
                    picks.setdefault(F.dim, F)
            duals = [(F, hp.dual_face(B, F)) for F in picks.values()]
            return B, Q, back, LB, LQ, duals
        return run

    def _check(self, pts, dim):
        def check(result):
            B, Q, back, LB, LQ, duals = result
            bf, qf = facets_of(B), facets_of(Q)
            ck.check_hull(pts, B.vertices, bf, dim)
            require(all(c == -1 for _, c in bf), "the centred hull is not a unit ball")
            ck.check_polar(B.vertices, bf, Q.vertices, qf)
            require(back.vertices == B.vertices and facets_of(back) == bf,
                    "the polar of the polar is not the ball")
            latB = ck.check_lattice(lattice_pairs(LB), B.vertices, bf, dim)
            latQ = ck.check_lattice(lattice_pairs(LQ), Q.vertices, qf, dim)
            ck.check_face_pairing(latB, B.vertices, Q.vertices, latQ, dim)
            require(ck.f_vector_of(latQ, dim)[:-1] == ck.f_vector_of(latB, dim)[-2::-1],
                    "the polar's f-vector is not the ball's reversed")
            for F, G in duals:
                require(frozenset(G.vertex_indices)
                        == ck.polar_tight(Q.vertices, F.vertices)
                        and G.dim == dim - 1 - F.dim, "dual_face gave the wrong face")
        return check


# ---------------------------------------------------------------------------
# weights: Weyl orbit hulls, their balls, classification and comparison

# A4 adjoint is left out: its one operation takes as long as the rest of
# a pass together.  A4 fundamental:3 and D4 fundamental:4 are left out as
# repeats: their hulls are those of fundamental:2 and fundamental:3 under
# a diagram symmetry.  So eight operations (rank 4 but A4 fundamental:4,
# and A3 regular) are slower than the four rank-3 specs of adjoint size,
# which run three times each: the tail (p89, the 82nd of 92) is the 10th
# of those twelve, a steadier figure than one of four would be.
TAIL_SPECS = {("A", 3, "adjoint"), ("B", 3, "adjoint"), ("D", 3, "adjoint"),
              ("C", 3, "fundamental:2")}
RANK4 = {"A": ("standard", "fundamental:2", "fundamental:4"),
         "B": ("standard",), "C": ("standard", "adjoint"),
         "D": ("standard", "fundamental:3")}


def weight_specs() -> list:
    """(family, rank, weight) in a fixed order; fundamental:1 is standard."""
    specs = []
    for fam in "ABC":
        for name in ("standard", "adjoint", "fundamental:2"):
            specs.append((fam, 2, name))
    specs.append(("A", 2, "dual-standard"))
    specs += [("A", 3, n) for n in ("standard", "adjoint", "fundamental:2",
                                    "fundamental:3", "regular")]
    specs += [("B", 3, n) for n in ("standard", "adjoint", "fundamental:3")]
    specs += [(f, 3, n) for f in "CD" for n in ("standard", "adjoint",
                                                "fundamental:2", "fundamental:3")]
    specs += [(f, 4, n) for f in "ABCD" for n in RANK4[f]]
    return specs


class Weights(Workload):
    # rank-2 specs run six times per pass, with different scales, so that
    # the median falls in the middle of a cluster of like operations.  The
    # order is shuffled to spread each cluster over the pass, but does not
    # depend on the seed, so the same operations pay the Weyl-group builds
    # in every run.
    def __init__(self, hp, seed, workdir, traced, caches):
        super().__init__(hp, seed, workdir, traced, caches)
        for fam, rank, name in weight_specs():
            repeats = 6 if rank == 2 else 3 if (fam, rank, name) in TAIL_SPECS else 1
            for _ in range(repeats):
                # whole scales: fractional ones change the cost of the
                # small operations with the seed
                scale = rand_scale(self.rng, max_den=1)
                self.ops.append(Op(f"{fam}{rank}", self._run(fam, rank, name, scale),
                                   self._check(fam, rank, name, scale)))
        random.Random(0).shuffle(self.ops)

    def _weight(self, rs, name):
        hp = self.hp
        if name != "regular":
            return hp.named_weight(rs, name)
        w = hp.named_weight(rs, "fundamental:1")
        for k in range(2, rs.rank + 1):
            w = tuple(a + b for a, b in zip(w, hp.named_weight(rs, f"fundamental:{k}")))
        return w

    def _run(self, fam, rank, name, scale):
        hp = self.hp

        def run():
            rs = hp.build(fam, rank)
            w = self._weight(rs, name)
            spec = hp.weight_spec(rs, [w], scale)
            hull = hp.weight_hull(spec)
            ball = hp.satake_ball(hull)
            report = hp.classify(spec)
            same = hp.same_compactification(spec, hp.weight_spec(rs, [w], 2 * scale))
            return hull, ball, report, same
        return run

    def _check(self, fam, rank, name, scale):
        def check(result):
            hull, ball, report, same = result
            hf = facets_of(hull)
            ck.check_ball(hull.vertices, hf, rank)
            neg = [tuple(-x for x in v) for v in ball.vertices]
            negf = [(tuple(-x for x in f), c) for f, c in facets_of(ball)]
            ck.check_polar(hull.vertices, hf, neg, negf)
            ck.check_report({"hull_f_vector": report.hull_f_vector,
                             "ball_f_vector": report.ball_f_vector,
                             "vertices": report.vertices,
                             "facet_count": report.facet_count,
                             "regular": report.regular}, fam, rank, [name], scale)
            ref = ck.f_vector_of(ck.incidence_lattice(hull.vertices, hf), rank)
            require(tuple(report.hull_f_vector) == ref,
                    "report f-vector differs from the incidence lattice")
            require(same is True, "a spec and its double induce different compactifications")
        return check


# ---------------------------------------------------------------------------
# horo: ray queries against balls built in set-up


class Horo(Workload):
    clear_each_pass = False  # caches filled in set-up stay valid: same balls
    CAL_EVERY = 5

    # per pass: 375 plain queries on the plane fixtures, 625 plain and 250
    # strata queries on the Satake balls, so that the median falls inside
    # the plain Satake queries and p90 inside the strata queries
    PLAN = (("plane", False, 375), ("satake", False, 625), ("satake", True, 250))

    def __init__(self, hp, seed, workdir, traced, caches):
        super().__init__(hp, seed, workdir, traced, caches)
        plane = [[(1, 0), (0, 1), (-1, 0), (0, -1)],
                 [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                 [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)],
                 [(2, 0), (0, 1), (-1, 0), (0, -1)]]
        self.norms = {"plane": [hp.polyhedral_norm(hp.convex_hull(p)) for p in plane]}
        sat = []
        for fam, rank, name in (("A", 3, "adjoint"), ("A", 4, "fundamental:2")):
            rs = hp.build(fam, rank)
            hull = hp.weight_hull(hp.weight_spec(rs, [hp.named_weight(rs, name)]))
            sat.append(hp.polyhedral_norm(hp.satake_ball(hull)))
        self.norms["satake"] = sat
        self.dual_lattices = {}
        for group, strata, count in self.PLAN:
            norms = self.norms[group]
            for i in range(count):
                norm = norms[i % len(norms)]
                d = norm.dim
                q = rand_vec(self.rng, d)
                u = rand_nonzero(self.rng, d)
                ys = [rand_vec(self.rng, d, 5, 4) for _ in range(3)]
                v = rand_vec(self.rng, d)
                self.ops.append(Op(f"{group}{'+strata' if strata else ''}",
                                   self._run(norm, q, u, ys, v, strata),
                                   self._check(norm, q, u, ys, v)))
        self.rng.shuffle(self.ops)
        for norms in self.norms.values():
            for norm in norms:  # fill the lookup caches the queries rely on
                hp.limit_of_ray(norm, (0,) * norm.dim, (1,) + (0,) * (norm.dim - 1))

    def _run(self, norm, q, u, ys, v, strata):
        hp = self.hp
        z = tuple(a + FAR * b for a, b in zip(q, u))

        def run():
            h = hp.limit_of_ray(norm, q, u)
            ev = [hp.evaluate(h, y) for y in ys]
            ps = [hp.psi(norm, z, y) for y in ys]
            g = hp.gauge(norm, v)
            pn = hp.pseudo_norm(norm.dual_ball, v)
            st = hp.enumerate_strata(norm) if strata else None
            return h, ev, ps, g, pn, st
        return run

    def _dual_lattice(self, norm):
        key = id(norm)
        if key not in self.dual_lattices:
            bf = facets_of(norm.ball)
            dual = norm.dual_ball
            ck.check_ball(norm.ball.vertices, bf, norm.dim)
            ck.check_polar(norm.ball.vertices, bf, dual.vertices, facets_of(dual))
            self.dual_lattices[key] = ck.incidence_lattice(dual.vertices, facets_of(dual))
        return self.dual_lattices[key]

    def _check(self, norm, q, u, ys, v):
        def check(result):
            h, ev, ps, g, pn, st = result
            lattice = self._dual_lattice(norm)
            bf = facets_of(norm.ball)
            ck.check_ray_limit(norm.ball.vertices, bf, norm.dual_ball.vertices, q, u,
                               h.face.vertex_indices, h.basepoint, ys, FAR)
            ck.check_horo_values(ev, ps, [g], [pn], [ck.ref_gauge(bf, v)])
            if st is not None:
                ck.check_strata([(F.vertex_indices, d) for F, d in st], lattice)
        return check


# ---------------------------------------------------------------------------
# cli: every verb as a fresh interpreter


# one spec per round; rank 3 only in round 2, so that the median of a
# pass (the 26th of 51) lies inside the 29 or so exact verbs of rank-2
# cost, not at their edge
SATAKE_SPECS = (("A", 2, "adjoint"), ("B", 2, "standard"), ("A", 3, "adjoint"),
                ("C", 2, "standard"))
CLASSIFY_SPECS = (("A", 2, "standard"), ("B", 2, "adjoint"), ("D", 3, "adjoint"),
                  ("A", 2, "adjoint"))
# (family, rank, weights, weights2, same?): scaled copies induce the same
# compactification; a triangle and a hexagon cannot; standard against
# dual-standard is the answer of acceptance guarantee 09
COMPARE_CASES = (("A", 2, "standard", "dual-standard", False),
                 ("A", 2, "adjoint", "standard", False),
                 ("A", 3, "adjoint", "adjoint", True),
                 ("B", 2, "standard", "standard", True))
# flat-test balls: (n, file stem, runs per pass); inputs do not depend on
# the seed.  The 15 flat-tests are the slowest of 51 operations, and the
# tail (p80, the 41st) is the middle one of the nine at n = 2, below the
# six at n = 3 and 4: flatspace work, not only interpreter start, moves it.
FLAT_TESTS = ((2, "a1_adjoint", 9), (3, "skew_hexagon", 2), (3, "a2_adjoint", 2),
              (4, "a3_adjoint", 2))


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def fmt_vec(v) -> str:
    return ",".join(str(x) for x in v)


class Cli(Workload):
    ROUNDS = 4

    def __init__(self, hp, seed, workdir, traced, caches, src: Path):
        super().__init__(hp, seed, workdir, traced, caches)
        import horopoly.cli as cli
        self.cli = cli
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.max_child_kb = 0
        rng = self.rng
        fixtures = {"a1_adjoint": self._satake_ball("A", 1, "adjoint"),
                    "a2_adjoint": self._satake_ball("A", 2, "adjoint"),
                    "a3_adjoint": self._satake_ball("A", 3, "adjoint"),
                    "skew_hexagon": hp.convex_hull([(1, 0), (0, 1), (1, 1), (-1, 0),
                                                    (0, -1), (-1, -1)])}
        files = {k: write_json(workdir / f"{k}.json", hp.polytope_to_json(P))
                 for k, P in fixtures.items()}
        for r in range(self.ROUNDS):
            pts = centred_points(rng, 2, 12)
            ptsfile = write_json(workdir / f"points{r}.json", [[str(c) for c in p] for p in pts])
            plane = hp.convex_hull(pts)
            solid = hp.convex_hull(centred_points(rng, 3, 10))
            pfile = write_json(workdir / f"plane{r}.json", hp.polytope_to_json(plane))
            sfile = write_json(workdir / f"solid{r}.json", hp.polytope_to_json(solid))
            ray_ball, ray_file = (plane, pfile) if r < 2 else (solid, sfile)
            d = ray_ball.ambient_dim
            q, u = rand_vec(rng, d), rand_nonzero(rng, d)
            ys = [rand_vec(rng, d, 5, 4) for _ in range(3)]
            sat, cls, cmp_ = SATAKE_SPECS[r], CLASSIFY_SPECS[r], COMPARE_CASES[r]
            s1, s2, s3, s4 = (rand_scale(rng) for _ in range(4))
            ops = [
                ("hull", [ptsfile], self._check_hull(pts)),
                ("dual", [pfile], self._check_dual(plane)),
                ("satake", self._spec_args(sat, s1), self._check_satake(sat, s1)),
                ("classify", self._spec_args(cls, s2), self._check_classify(cls, s2)),
                ("strata", ["--ball", sfile if r % 2 else pfile],
                 self._check_strata(solid if r % 2 else plane)),
                # the = form keeps a leading minus sign from reading as a flag
                ("limit-ray", ["--ball", ray_file, f"--q={fmt_vec(q)}", f"--u={fmt_vec(u)}"],
                 self._check_limit(ray_ball, q, u, ys)),
                ("render", [pfile, "--format", "svg"], self._check_svg(plane)),
                ("render", [sfile, "--format", "off"], self._check_off(solid)),
                ("compare", self._spec_args(cmp_[:3], s3)
                 + ["--weights2", cmp_[3], "--scale2", str(s4)], self._check_compare(cmp_[4])),
            ]
            for verb, args, check in ops:
                self.ops.append(Op(verb, self._run([verb] + args), self._exit_ok(check)))
        for n, stem, times in FLAT_TESTS:
            self.ops += [Op("flat-test", self._run(
                ["flat-test", "--n", str(n), "--ball", files[stem]]), self._check_flat(n))
                for _ in range(times)]
        rng.shuffle(self.ops)

    def _satake_ball(self, fam, rank, name):
        hp = self.hp
        rs = hp.build(fam, rank)
        return hp.satake_ball(hp.weight_hull(hp.weight_spec(rs, [hp.named_weight(rs, name)])))

    @staticmethod
    def _spec_args(spec, scale) -> list:
        fam, rank, name = spec
        return ["--type", fam, "--rank", str(rank), "--weights", name, "--scale", str(scale)]

    def _run(self, argv):
        if self.traced:
            return self._run_in_process(argv)
        cmd = [sys.executable, "-m", "horopoly.cli"] + argv
        out_path = self.workdir / "stdout.txt"

        def run():
            with open(out_path, "wb") as out:
                proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                        env=self.env)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_child_kb = max(self.max_child_kb, usage.ru_maxrss)
            return proc.returncode, out_path.read_text(encoding="utf-8")
        return run

    def _run_in_process(self, argv):
        def run():
            # a fresh process starts with empty caches
            clear_caches(self.caches)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(argv))
            return code, buf.getvalue()
        return run

    def peak_rss_kb(self, self_kb):
        return self_kb if self.traced else self.max_child_kb

    # a CLI call is mostly interpreter start and imports, which a process
    # block follows and an in-process one does not; the traced run calls
    # the CLI in-process
    def calibration(self):
        return super().calibration() if self.traced else calibrate.process_block()

    @property
    def cal_ref_s(self):
        return calibrate.REF_S if self.traced else calibrate.PROCESS_REF_S

    # checks see the stdout a user sees; a nonzero exit fails the operation

    @staticmethod
    def _exit_ok(check):
        def checked(result):
            code, text = result
            if code != 0:
                return f"exit code {code}"
            check(text)
            return None
        return checked

    def _check_hull(self, pts):
        def check(text):
            verts, facets = ck.polytope_doc(json.loads(text))
            ck.check_hull(pts, verts, facets, 2)
        return check

    def _check_dual(self, ball):
        def check(text):
            verts, facets = ck.polytope_doc(json.loads(text))
            ck.check_polar(ball.vertices, facets_of(ball), verts, facets)
            ck.check_ball(verts, facets, ball.ambient_dim)
        return check

    def _check_satake(self, spec, scale):
        fam, rank, name = spec

        def check(text):
            doc = json.loads(text)
            hv, hf = ck.polytope_doc(doc["hull"])
            bv, bf = ck.polytope_doc(doc["ball"])
            ck.check_ball(hv, hf, rank)
            ck.check_polar(hv, hf, [tuple(-x for x in v) for v in bv],
                           [(tuple(-x for x in f), c) for f, c in bf])
            ck.check_report(doc["report"], fam, rank, [name], scale)
            ref = ck.f_vector_of(ck.incidence_lattice(hv, hf), rank)
            require(tuple(doc["report"]["hull_f_vector"]) == ref,
                    "report f-vector differs from the incidence lattice")
        return check

    def _check_classify(self, spec, scale):
        fam, rank, name = spec

        def check(text):
            ck.check_report(json.loads(text), fam, rank, [name], scale)
        return check

    def _check_strata(self, ball):
        dual_v = sorted(f for f, _ in facets_of(ball))
        dual_f = [(v, Fraction(-1)) for v in ball.vertices]

        def check(text):
            doc = json.loads(text)
            lattice = ck.incidence_lattice(dual_v, dual_f)
            ck.check_strata([(s["face"], s["dim"]) for s in doc["strata"]], lattice)
            require(doc["stratum_count"] == len(lattice)
                    and doc["extreme_set_count"] == len(lattice) + 1
                    and doc["finite_boundary"] is True, "strata counts are inconsistent")
        return check

    def _check_limit(self, ball, q, u, ys):
        dual_v = sorted(f for f, _ in facets_of(ball))

        def check(text):
            doc = json.loads(text)
            ck.check_ray_limit(ball.vertices, facets_of(ball), dual_v, q, u,
                               doc["face"], ck.fvec(doc["p"]), ys, FAR)
        return check

    def _check_svg(self, ball):
        def check(text):
            ck.check_svg(text, len(ball.vertices))
        return check

    def _check_off(self, ball):
        fv = ck.f_vector_of(ck.incidence_lattice(ball.vertices, facets_of(ball)), 3)

        def check(text):
            ck.check_off(text, fv)
        return check

    def _check_compare(self, expected):
        def check(text):
            require(json.loads(text)["same"] is expected, "compare gave the wrong answer")
        return check

    def _check_flat(self, n):
        def check(result):
            code, text = result
            doc = json.loads(text) if text.strip() else {}
            if code == 1:
                reason = ck.flat_test_failure(doc)
                return reason or "flat-test exit 1 for an unnamed reason"
            if code != 0:
                return f"flat-test exit {code}"
            ck.check_flat_test(doc, n)
            return None
        return check


WORKLOADS = {"cli": Cli, "hulls": Hulls, "weights": Weights, "horo": Horo}
