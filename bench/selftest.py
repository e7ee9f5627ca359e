"""Show that every check can fail: feed each a correct answer, which it
must accept, and corrupted answers, which it must reject.

    python3 bench/selftest.py

Corruptions: a dropped facet, a moved vertex, a dropped or misdimensioned
face, a flipped compare answer, a swapped limit face, a wrong basepoint,
perturbed values, a broken SVG path, wrong OFF counts, a loosened or
failed flat-test verdict.  Exits 1 if any check accepts a corrupted
answer or rejects a correct one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import horopoly as hp  # noqa: E402
from horopoly.cli import main as cli_main  # noqa: E402

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402

F = Fraction
results = []


def expect(label, fn, *args, ok):
    try:
        # operation checks return a reason string when the operation failed
        accepted = not isinstance(fn(*args), str)
    except ck.CheckError:
        accepted = False
    good = accepted == ok
    results.append(good)
    print(f"{'ok ' if good else 'BAD'} {'accepts' if ok else 'rejects'} {label}")


def moved(v):
    return (v[0] + F(1, 7),) + tuple(v[1:])


def cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def polytope_checks():
    pts = [(F(2), F(0)), (F(0), F(2)), (F(-2), F(1)), (F(-1), F(-2)), (F(1), F(-1)),
           (F(0), F(0)), (F(1, 2), F(1, 2))]
    B = hp.convex_hull(pts)
    V, fs = list(B.vertices), wl.facets_of(B)
    expect("hull", ck.check_hull, pts, V, fs, 2, ok=True)
    expect("hull with a dropped facet", ck.check_hull, pts, V, fs[1:], 2, ok=False)
    expect("hull with a moved vertex", ck.check_hull, pts, [moved(V[0])] + V[1:], fs, 2,
           ok=False)
    expect("hull missing a vertex", ck.check_hull, pts, V[1:], fs, 2, ok=False)

    cube = hp.convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    Q = hp.polar_dual(cube)
    cf, qf = wl.facets_of(cube), wl.facets_of(Q)
    lat = wl.lattice_pairs(hp.face_lattice(cube))
    expect("cube lattice", ck.check_lattice, lat, cube.vertices, cf, 3, ok=True)
    expect("lattice with a dropped face", ck.check_lattice, lat[1:], cube.vertices, cf, 3,
           ok=False)
    wrong_dim = [(i, d + 1 if k == 0 else d) for k, (i, d) in enumerate(lat)]
    expect("lattice with a misdimensioned face", ck.check_lattice, wrong_dim,
           cube.vertices, cf, 3, ok=False)
    expect("lattice of a ball with a dropped facet", ck.check_lattice, lat,
           cube.vertices, cf[1:], 3, ok=False)
    expect("polar", ck.check_polar, cube.vertices, cf, Q.vertices, qf, ok=True)
    expect("polar with a moved vertex", ck.check_polar, cube.vertices, cf,
           [moved(Q.vertices[0])] + list(Q.vertices[1:]), qf, ok=False)
    latB = ck.incidence_lattice(cube.vertices, cf)
    latQ = ck.incidence_lattice(Q.vertices, qf)
    expect("face pairing", ck.check_face_pairing, latB, cube.vertices, Q.vertices, latQ, 3,
           ok=True)
    expect("face pairing against the wrong polar", ck.check_face_pairing, latB,
           cube.vertices, Q.vertices, latB, 3, ok=False)
    expect("Euler on a bad f-vector", ck.check_euler, (8, 12, 5, 1), ok=False)


def workload_checks():
    hulls = wl.Hulls(hp, 5, Path("."), False, [])
    op = hulls.ops[0]
    res = op.run()
    expect("hulls operation", op.check, res, ok=True)
    B = res[0]
    expect("hulls operation with a dropped facet", op.check,
           (dataclasses.replace(B, facets=B.facets[1:]),) + res[1:], ok=False)
    expect("hulls operation with a moved vertex", op.check,
           (dataclasses.replace(B, vertices=(moved(B.vertices[0]),) + B.vertices[1:]),)
           + res[1:], ok=False)

    weights = wl.Weights(hp, 5, Path("."), False, [])
    op = next(o for o in weights.ops if o.kind == "A3")
    res = op.run()
    expect("weights operation", op.check, res, ok=True)
    expect("weights operation with a flipped compare answer", op.check,
           res[:3] + (not res[3],), ok=False)
    hull = res[0]
    expect("weights operation with a moved vertex", op.check,
           (dataclasses.replace(hull, vertices=(moved(hull.vertices[0]),)
                                + hull.vertices[1:]),) + res[1:], ok=False)

    horo = wl.Horo(hp, 5, Path("."), False, [])
    op = next(o for o in horo.ops if o.kind == "satake+strata")
    res = op.run()
    expect("horo operation", op.check, res, ok=True)
    h = res[0]
    dual = h.norm.dual_ball
    other = next(f for f in hp.face_lattice(dual)
                 if f.is_proper and f.vertex_indices != h.face.vertex_indices)
    expect("horo operation with a swapped limit face", op.check,
           (dataclasses.replace(h, face=other),) + res[1:], ok=False)
    expect("horo operation with a wrong basepoint", op.check,
           (dataclasses.replace(h, basepoint=moved(h.basepoint)),) + res[1:], ok=False)
    expect("horo operation with a perturbed evaluate", op.check,
           (h, [res[1][0] + F(1, 1000)] + res[1][1:]) + res[2:], ok=False)
    expect("horo operation with a wrong gauge", op.check,
           res[:3] + (res[3] + 1,) + res[4:], ok=False)
    expect("horo operation with a dropped stratum", op.check,
           res[:5] + (res[5][1:],), ok=False)


def cli_checks(work: Path):
    c = wl.Cli(hp, 5, work, True, wl.find_caches(), src=BENCH.parent / "src")
    seen = set()
    for op in c.ops:
        code, text = op.run() if op.kind != "flat-test" else (None, "")
        kind = (op.kind, text[:3])
        if kind in seen or op.kind == "flat-test":
            continue
        seen.add(kind)
        expect(f"cli {op.kind}", op.check, (code, text), ok=True)
        if op.kind == "compare":
            doc = json.loads(text)
            doc["same"] = not doc["same"]
            bad = json.dumps(doc)
        elif op.kind == "render" and text.startswith("OFF"):
            lines = text.splitlines()
            nv, nf, ne = lines[1].split()
            lines[1] = f"{nv} {int(nf) + 1} {ne}"
            bad = "\n".join(lines)
        elif op.kind == "render":
            bad = text.replace(" L ", " M ", 1).replace("M ", "", 1)
        elif op.kind == "limit-ray":
            doc = json.loads(text)
            doc["face"] = doc["face"][1:] or [doc["face"][0] + 1]
            bad = json.dumps(doc)
        elif op.kind == "strata":
            doc = json.loads(text)
            doc["strata"] = doc["strata"][1:]
            bad = json.dumps(doc)
        elif op.kind in ("satake", "classify"):
            doc = json.loads(text)
            rep = doc.get("report", doc)
            rep["vertices"] = rep["vertices"][1:]
            bad = json.dumps(doc)
        else:  # hull, dual: drop a facet
            doc = json.loads(text)
            doc["facets"] = doc["facets"][1:]
            bad = json.dumps(doc)
        expect(f"cli {op.kind} with a corrupted answer", op.check, (code, bad), ok=False)
    expect("cli operation that exits 2", c.ops[0].check, (2, ""), ok=False)

    code, text = cli("flat-test", "--n", "2", "--ball", str(c.workdir / "a1_adjoint.json"))
    flat = wl.Cli._check_flat(c, 2)
    expect("flat-test report", flat, (code, text), ok=True)
    doc = json.loads(text)
    doc["invariance"]["limit_tol"] = 1e-2
    expect("flat-test with a loosened limit_tol", flat, (code, json.dumps(doc)), ok=False)
    doc = json.loads(text)
    doc["consistency"]["regular"]["status"] = "inconclusive"
    expect("flat-test with an inconclusive ray", flat, (code, json.dumps(doc)), ok=False)
    code, text = cli("flat-test", "--n", "4", "--ball", str(c.workdir / "a3_adjoint.json"))
    reason = ck.flat_test_failure(json.loads(text)) if code == 1 else None
    print(f"{'ok ' if code != 1 or reason else 'BAD'} flat-test --n 4 exits {code}: {reason}")
    results.append(code != 1 or reason is not None)
    doc = json.loads(text)
    doc["invariance"]["basepoint_ok"] = False
    other = ck.flat_test_failure(doc) is None
    print(f"{'ok ' if other else 'BAD'} a failure for another reason is not the named fault")
    results.append(other)


if __name__ == "__main__":
    work = BENCH / "out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    polytope_checks()
    workload_checks()
    cli_checks(work)
    bad = results.count(False)
    print(f"selftest: {len(results) - bad} of {len(results)} cases behaved")
    sys.exit(1 if bad else 0)
