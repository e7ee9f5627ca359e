"""Tests for the matrix model: spectral projections, distances, reports.

The exact chart gauge serves as the oracle for every floating quantity:
the eigensolver route must land on it wherever both apply.
"""

import json
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

import horopoly.flatspace as flatspace
from geomtest import (coords_in_basis, oracle_cartan_projection,
                      oracle_finsler_gauge, oracle_flat_gauge,
                      oracle_flat_limit_consistency, oracle_invariance_suite,
                      oracle_psi_flat, psi, rand_ball, validate_spd)
from horopoly._linalg import vdot, vec
from horopoly.cli import _emit_json
from horopoly.errors import DimensionMismatch, InputError, PreconditionError
from horopoly.flatspace import (InvarianceConfig, act, cartan_projection,
                                exp_flat, finsler_distance, flat_chart,
                                flat_gauge, flat_limit, flat_limit_consistency,
                                flat_space, invariance_suite, psi_flat,
                                sample_block_rotation, sample_block_unipotent,
                                sample_rotation, sample_spd,
                                sequence_type_of_ray)
from horopoly.horoboundary import evaluate
from horopoly.polytope import convex_hull
from horopoly.rootsys import (build, named_weight, point_ambient, point_coords,
                              weyl_point_matrices)
from horopoly.satake import invariant_under, satake_ball, weight_hull, weight_spec

F = Fraction

GRID25 = [(a, b, -a - b) for a, b in product(range(-2, 3), repeat=2)]


@pytest.fixture(scope="module")
def fs3(skew_hexagon):
    return flat_space(3, skew_hexagon)


@pytest.fixture(scope="module")
def fs3_asym():
    # permutation-invariant but not centrally symmetric: the chart hull of
    # all coordinate permutations of (3, -1, -2)
    rs = build("A", 2)
    pts = [point_coords(rs, p) for p in permutations((3, -1, -2))]
    return flat_space(3, convex_hull(pts))


@pytest.fixture(scope="module")
def fs2():
    return flat_space(2, convex_hull([(-1,), (1,)]))


def adjoint_ball(rank):
    rs = build("A", rank)
    return satake_ball(weight_hull(weight_spec(rs, [named_weight(rs, "adjoint")])))


@pytest.fixture(scope="module")
def fs4():
    return flat_space(4, adjoint_ball(3))


def rand_spd_pair(rng, n):
    return sample_spd(rng, n), sample_spd(rng, n)


class TestValidation:
    def test_validate_returns_array(self):
        M = validate_spd([[2.0, 0.0], [0.0, 0.5]])
        assert isinstance(M, np.ndarray) and M.shape == (2, 2)

    def test_validate_rejections(self):
        with pytest.raises(InputError):
            validate_spd(np.ones((2, 3)))
        with pytest.raises(InputError):
            validate_spd(np.eye(5))
        with pytest.raises(InputError):
            validate_spd([[1.0]])
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(InputError):
            validate_spd(bad)
        with pytest.raises(InputError):
            validate_spd(np.diag([1.0, -1.0, -1.0]))
        with pytest.raises(InputError):
            validate_spd(2 * np.eye(3))
        nan = np.eye(3)
        nan[1, 1] = np.nan
        with pytest.raises(InputError):
            validate_spd(nan)
        with pytest.raises(PreconditionError):
            validate_spd(np.diag(np.exp([15.0, 15.0, -30.0])))

    def test_transposition_check_matches_group(self, skew_hexagon, square_ball):
        # closure under adjacent transpositions against all n! chart matrices
        rng = random.Random(25)
        balls = [adjoint_ball(1), adjoint_ball(2), adjoint_ball(3), skew_hexagon,
                 square_ball, convex_hull([(-1,), (2,)])]
        for n in (2, 3, 4):
            rs = build("A", n - 1)
            for _ in range(2):
                lopsided = rand_ball(rng, n - 1, n + 2)
                v = lopsided.vertices[0]
                orbit = [point_coords(rs, p) for p in permutations(point_ambient(rs, v))]
                balls += [lopsided, convex_hull(orbit),
                          convex_hull(orbit + [tuple(2 * x for x in v)])]
        verdicts = []
        for ball in balls:
            n = ball.ambient_dim + 1
            try:
                flat_space(n, ball)
                invariant = True
            except PreconditionError:
                invariant = False
            assert invariant == invariant_under(ball, weyl_point_matrices(build("A", n - 1)))
            verdicts.append(invariant)
        assert verdicts.count(True) == verdicts.count(False) == 12

    def test_flat_space_rejections(self, skew_hexagon, square_ball):
        with pytest.raises(InputError):
            flat_space(5, skew_hexagon)
        with pytest.raises(InputError):
            flat_space(True, skew_hexagon)
        with pytest.raises(DimensionMismatch):
            flat_space(4, skew_hexagon)
        # the sup-norm square is not invariant under the chart permutations
        with pytest.raises(PreconditionError):
            flat_space(3, square_ball)


class TestCartanProjection:
    def test_diagonal_case_frozen(self):
        Q = np.diag(np.exp([2.0, -1.0, -1.0]))
        H = cartan_projection(np.eye(3), Q)
        assert np.allclose(H, (2.0, -1.0, -1.0), atol=1e-12)

    def test_equal_points_project_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            P = sample_spd(rng, 3)
            assert max(abs(v) for v in cartan_projection(P, P)) <= 1e-12

    def test_descending_and_trace_zero(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            for _ in range(20):
                P, Q = rand_spd_pair(rng, n)
                H = cartan_projection(P, Q)
                assert abs(sum(H)) <= 1e-12
                assert all(H[i] >= H[i + 1] - 1e-12 for i in range(n - 1))

    def test_rotation_bi_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            P, Q = rand_spd_pair(rng, 3)
            k = sample_rotation(rng, 3)
            H = cartan_projection(P, Q)
            Hk = cartan_projection(act(k, P), act(k, Q))
            assert max(abs(a - b) for a, b in zip(H, Hk)) <= 1e-9

    def test_against_unsymmetric_eigensolver(self):
        # independent route: plain eigenvalues of P^{-1} Q
        rng = np.random.default_rng(6)
        for _ in range(20):
            P, Q = rand_spd_pair(rng, 3)
            H = cartan_projection(P, Q)
            vals = np.linalg.eigvals(np.linalg.solve(P, Q))
            logs = np.sort(np.log(vals.real))[::-1]
            logs = logs - logs.mean()
            assert max(abs(a - b) for a, b in zip(H, logs)) <= 1e-9

    def test_condition_guard_and_shape(self):
        spread = np.diag(np.exp([15.0, 15.0, -30.0]))
        with pytest.raises(PreconditionError):
            cartan_projection(np.eye(3), spread)
        with pytest.raises(DimensionMismatch):
            cartan_projection(np.eye(2), np.eye(3))
        # every input check on both points comes before the guard
        with pytest.raises(DimensionMismatch):
            cartan_projection(spread, np.eye(2))
        with pytest.raises(InputError):
            cartan_projection(spread, np.diag([1.0, -1.0, -1.0]))


class TestDistance:
    def test_flat_restriction_identity(self, fs3):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            H = (a, b, -a - b)
            via_matrix = finsler_distance(fs3, np.eye(3), exp_flat(H))
            dominant = sorted((F(a), F(b), F(-a - b)), reverse=True)
            assert abs(via_matrix - float(flat_gauge(fs3, dominant))) <= 1e-10

    def test_self_distance_vanishes(self, fs3):
        rng = np.random.default_rng(8)
        for _ in range(10):
            P = sample_spd(rng, 3)
            assert finsler_distance(fs3, P, P) <= 1e-12

    def test_triangle_inequality(self, fs3):
        rng = np.random.default_rng(9)
        for _ in range(200):
            P = sample_spd(rng, 3)
            Q = sample_spd(rng, 3)
            R = sample_spd(rng, 3)
            direct = finsler_distance(fs3, P, R)
            around = finsler_distance(fs3, P, Q) + finsler_distance(fs3, Q, R)
            assert direct <= around + 1e-9

    def test_congruence_isometry(self, fs3):
        rng = np.random.default_rng(10)
        for _ in range(50):
            P, Q = rand_spd_pair(rng, 3)
            k = sample_rotation(rng, 3)
            d = finsler_distance(fs3, P, Q)
            dk = finsler_distance(fs3, act(k, P), act(k, Q))
            assert abs(d - dk) <= 1e-9

    def test_flat_permutation_invariance_exact(self, fs3):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            H = (a, b, -a - b)
            base = finsler_distance(fs3, np.eye(3), exp_flat(H))
            for perm in permutations(H):
                assert finsler_distance(fs3, np.eye(3), exp_flat(perm)) == base

    def test_asymmetric_ball_gives_asymmetric_distance(self, fs3_asym):
        # negation changes the log-spectrum (2,-1,-1), so the two gauges
        # differ (2/3 one way, 1 the other)
        P = np.eye(3)
        Q = exp_flat((2.0, -1.0, -1.0))
        assert abs(finsler_distance(fs3_asym, P, Q)
                   - finsler_distance(fs3_asym, Q, P)) > 0.1

    def test_two_by_two_flat(self, fs2):
        Q = exp_flat((0.5, -0.5))
        assert abs(finsler_distance(fs2, np.eye(2), Q) - 0.5) <= 1e-12


class TestNormalizedDistance:
    def test_vanishes_at_basepoint(self, fs3):
        rng = np.random.default_rng(12)
        z = sample_spd(rng, 3)
        assert psi(fs3, z, np.eye(3)) == 0.0

    def test_exact_route_matches_matrix_route(self, fs3):
        rng = np.random.default_rng(13)
        for _ in range(30):
            hz = rng.uniform(-2.0, 2.0, size=2)
            hx = rng.uniform(-2.0, 2.0, size=2)
            Hz = (hz[0], hz[1], -hz.sum())
            Hx = (hx[0], hx[1], -hx.sum())
            exact = float(psi_flat(fs3, Hz, Hx))
            numeric = psi(fs3, exp_flat(Hz), exp_flat(Hx))
            assert abs(exact - numeric) <= 1e-10

    def test_flat_restriction_of_limit(self, fs3):
        # on diagonal points the matrix psi tends to the exact ray limit
        h = flat_limit(fs3, (0, 0, 0), (F(1, 100), 0, F(-1, 100)))
        Hz = (F(1, 100) * 1000, 0, -F(1, 100) * 1000)
        for Hx in GRID25[:5]:
            far = psi(fs3, exp_flat(Hz), exp_flat(Hx))
            lim = float(evaluate(h, flat_chart(fs3, Hx)))
            assert abs(far - lim) <= 1e-6


class TestIntegerGaugeRows:
    """The flat's integer gauge rows against the Fraction chart route, with ==."""

    @pytest.fixture(scope="class")
    def spaces(self, fs2, fs3, fs3_asym, fs4):
        return [fs2, fs3, fs3_asym, fs4]

    def test_distances_of_random_pairs(self, spaces):
        rng = np.random.default_rng(21)
        for fs in spaces:
            for _ in range(100):
                P, Q = rand_spd_pair(rng, fs.n)
                H = cartan_projection(P, Q)
                assert finsler_distance(fs, P, Q) == oracle_finsler_gauge(fs, H)
                assert flat_gauge(fs, H) == oracle_flat_gauge(fs, H)

    def test_mixed_exponents_and_nonzero_trace(self, spaces, monkeypatch):
        # spectra no eigensolver returns, fed to finsler_distance directly
        entries = (1e-300, 5e-324, 1e15, -2.5, 0.1, -7e-5)
        for fs in spaces:
            for H in permutations(entries, fs.n):
                monkeypatch.setattr(flatspace, "cartan_projection", lambda P, Q: H)
                assert finsler_distance(fs, None, None) == oracle_finsler_gauge(fs, H)
                assert flat_gauge(fs, H) == oracle_flat_gauge(fs, H)

    def test_psi_flat_at_far_times(self, spaces):
        rng = random.Random(22)
        for fs in spaces:
            for t in (F(1), F(10**4), F(10**8 - 1, 3), F(10**8)):
                for _ in range(10):
                    d = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(fs.n)]
                    Hz = [t * x + F(rng.randint(-5, 5), 3) for x in d]
                    Hx = [rng.uniform(-3.0, 3.0) for _ in range(fs.n)]
                    assert psi_flat(fs, Hz, Hx) == oracle_psi_flat(fs, Hz, Hx)
                    assert psi_flat(fs, Hx, Hz) == oracle_psi_flat(fs, Hx, Hz)


class TestStackedRoute:
    """The stacked matrix route against one pair of matrices at a time, with ==."""

    def test_random_stacks(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4):
            P = [sample_spd(rng, n) for _ in range(30)]
            Q = [sample_spd(rng, n) for _ in range(30)]
            rows = flatspace._spectra(P, Q).tolist()
            assert rows == [list(oracle_cartan_projection(p, q)) for p, q in zip(P, Q)]
            assert all(cartan_projection(p, q) == tuple(row)
                       for p, q, row in zip(P, Q, rows))

    def test_moved_points_against_ray_points(self):
        # the invariance suite's stacks: points, their block-rotated and
        # cross-block unipotent copies and the basepoint, seen from exp_flat
        # ray points up to t = 1000
        rng = np.random.default_rng(24)
        for n, indices in ((2, ()), (3, ()), (3, (0,)), (4, (1,))):
            xs = [sample_spd(rng, n) for _ in range(4)]
            movers = [sample_block_rotation(rng, n, indices),
                      sample_block_unipotent(rng, n, indices)]
            P = xs + [act(g, x) for x in xs for g in movers] + [np.eye(n)]
            direction = flatspace._default_ray_direction(n)
            for t in flatspace._T_SCHEDULE:
                z = exp_flat(vec(F(t) * x for x in direction))
                rows = flatspace._spectra(P, np.broadcast_to(z, (len(P), n, n))).tolist()
                assert rows == [list(oracle_cartan_projection(p, z)) for p in P]


class TestSequenceTypes:
    def test_regular_ray(self, fs3):
        st = sequence_type_of_ray(fs3.root_system, (0, 0, 0), (1, 0, -1))
        assert st.indices == ()
        assert st.limit == (0, 0, 0)

    def test_wall_ray_frozen(self, fs3):
        rs = fs3.root_system
        st = sequence_type_of_ray(rs, (1, 0, -1), (1, 1, -2))
        assert st.indices == (0,)
        assert st.limit == (F(1, 2), F(-1, 2), 0)
        # the limit realizes the bounded pairing inside the wall's root span
        assert vdot(rs.simple_roots[0], st.limit) == vdot(rs.simple_roots[0], vec((1, 0, -1)))
        assert coords_in_basis([rs.simple_roots[0]], st.limit) is not None

    def test_ray_rejections(self, fs3):
        rs = fs3.root_system
        with pytest.raises(PreconditionError):
            sequence_type_of_ray(rs, (0, 0, 0), (-1, 0, 1))
        with pytest.raises(PreconditionError):
            sequence_type_of_ray(rs, (-1, 1, 0), (1, 1, -2))
        with pytest.raises(PreconditionError):
            sequence_type_of_ray(rs, (1, 0, -1), (0, 0, 0))
        with pytest.raises(PreconditionError):
            sequence_type_of_ray(rs, (1, 0, -1), (1, 1, 1))
        with pytest.raises(DimensionMismatch):
            sequence_type_of_ray(rs, (1, 0), (1, 0))


class TestLimitConsistency:
    def test_regular_ray_converges(self, fs3):
        d = F(1, 1000)
        rep = flat_limit_consistency(fs3, (0, 0, 0), (d, 0, -d), GRID25,
                                     t_max=1e4, tol=1e-5)
        assert rep.status == "converged"
        assert rep.matrix_route_max_t == 1e4
        assert rep.defects[-1][1] <= 1e-5
        assert all(rep.defects[k + 1][1] <= rep.defects[k][1] + 1e-9
                   for k in range(len(rep.defects) - 1))

    def test_wall_ray_converges(self, fs3):
        d = F(1, 2000)
        rep = flat_limit_consistency(fs3, (1, 0, -1), (d, d, -2 * d), GRID25,
                                     t_max=1e4, tol=1e-5)
        assert rep.status == "converged"
        assert rep.ray_type.indices == (0,)
        assert rep.matrix_route_max_t == 1e4

    def test_short_horizon_is_inconclusive(self, fs3):
        d = F(1, 1000)
        rep = flat_limit_consistency(fs3, (0, 0, 0), (d, 0, -d), GRID25,
                                     t_max=10.0, tol=1e-5)
        assert rep.status == "inconclusive"

    def test_steep_ray_drops_matrix_route(self, fs3):
        d = F(1, 100)
        rep = flat_limit_consistency(fs3, (0, 0, 0), (d, 0, -d), GRID25,
                                     t_max=1e4, tol=1e-5)
        assert rep.status == "converged"
        assert rep.matrix_route_max_t == 1000.0

    def test_rejections(self, fs3):
        d = F(1, 1000)
        with pytest.raises(InputError):
            flat_limit_consistency(fs3, (0, 0, 0), (d, 0, -d), [])
        with pytest.raises(InputError):
            flat_limit_consistency(fs3, (0, 0, 0), (d, 0, -d), GRID25, t_max=0.0)
        with pytest.raises(InputError):
            flat_limit_consistency(fs3, (0, 0, 0), (d, 0, -d), GRID25, tol=-1.0)
        with pytest.raises(PreconditionError):
            flat_limit_consistency(fs3, (0, 0, 0), (-d, 0, d), GRID25)


class TestInvarianceSuite:
    def test_default_config_passes(self, fs3):
        rep = invariance_suite(fs3)
        assert rep.basepoint_ok and rep.basepoint_defect <= 1e-9
        assert rep.equivariance_ok and rep.equivariance_defect <= 1e-9
        assert rep.ray_type.indices == ()
        assert rep.limit_ok and rep.limit_defects[-1][1] <= 1e-3
        assert rep.limit_monotone

    def test_wall_ray_config(self, fs3):
        cfg = InvarianceConfig(ray_direction=(F(1, 150), F(1, 150), F(-2, 150)),
                               samples=25, seed=11)
        rep = invariance_suite(fs3, cfg)
        assert rep.ray_type.indices == (0,)
        assert rep.basepoint_ok and rep.equivariance_ok
        assert rep.limit_ok and rep.limit_monotone

    def test_identity_mover_has_zero_defect(self, fs3):
        rng = np.random.default_rng(14)
        x = sample_spd(rng, 3)
        z = exp_flat((1.0, 0.0, -1.0))
        assert finsler_distance(fs3, act(np.eye(3), x), z) == finsler_distance(fs3, x, z)

    def test_config_rejections(self, fs3):
        with pytest.raises(InputError):
            invariance_suite(fs3, InvarianceConfig(samples=0))
        with pytest.raises(InputError):
            invariance_suite(fs3, InvarianceConfig(invariance_tol=0.0))
        steep = InvarianceConfig(ray_direction=(1, 0, -1))
        with pytest.raises(InputError):
            invariance_suite(fs3, steep)
        with pytest.raises(InputError):
            invariance_suite(fs3, InvarianceConfig(seed=-1))


class TestSamplers:
    def test_block_rotation_structure(self):
        rng = np.random.default_rng(15)
        g = sample_block_rotation(rng, 3, (0,))
        assert g[2, 2] == 1.0 and g[0, 2] == g[2, 0] == g[1, 2] == g[2, 1] == 0.0
        blk = g[:2, :2]
        assert np.allclose(blk @ blk.T, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(blk) - 1.0) <= 1e-12
        assert np.array_equal(sample_block_rotation(rng, 3, ()), np.eye(3))

    def test_block_unipotent_structure(self):
        rng = np.random.default_rng(16)
        g = sample_block_unipotent(rng, 3, (0,))
        assert np.array_equal(np.diagonal(g), np.ones(3))
        assert g[0, 1] == 0.0 and g[1, 0] == g[2, 0] == g[2, 1] == 0.0
        full = sample_block_unipotent(rng, 4, ())
        assert np.all(full[np.tril_indices(4, -1)] == 0.0)
        assert np.all(full[np.triu_indices(4, 1)] != 0.0)

    def test_action_preserves_validity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = sample_spd(rng, 3)
            validate_spd(act(sample_rotation(rng, 3), x))
            validate_spd(act(sample_block_unipotent(rng, 3, (1,)), x))


class TestReportOracle:
    """Whole reports against their per-pair oracles in geomtest, with ==."""

    CFG = InvarianceConfig(samples=5, point_samples=3, group_samples=2)

    def test_invariance_reports(self, fs3, fs3_asym, fs4):
        for fs in (fs3, fs3_asym, fs4):
            assert invariance_suite(fs, self.CFG) == oracle_invariance_suite(fs, self.CFG)

    def test_consistency_reports(self, fs3, fs3_asym, fs4):
        d = F(1, 1000)
        rays = [(fs3, (0, 0, 0), (d, 0, -d), GRID25[::3]),
                (fs3_asym, (1, 0, -1), (d, d, -2 * d), GRID25[::3]),
                (fs4, (0, 0, 0, 0), (3 * d, d, -d, -3 * d),
                 [(1, 0, 0, -1), (0, 1, -1, 0), (1, -1, 1, -1), (2, 0, -1, -1)])]
        for fs, start, direction, grid in rays:
            assert (flat_limit_consistency(fs, start, direction, grid)
                    == oracle_flat_limit_consistency(fs, start, direction, grid))


class TestReports:
    """Reports as the command line writes them."""

    @staticmethod
    def document(capsys, report):
        _emit_json(report, None)
        return json.loads(capsys.readouterr().out)

    def test_consistency_report_json(self, fs3, capsys):
        d = F(1, 1000)
        rep = flat_limit_consistency(fs3, (0, 0, 0), (d, 0, -d), GRID25[:4],
                                     t_max=100.0, tol=1e-5)
        doc = self.document(capsys, rep)
        assert doc["status"] == rep.status
        assert doc["ray_type"]["indices"] == []
        assert len(doc["defects"]) == 5
        json.dumps(doc)

    def test_invariance_report_json(self, fs3, capsys):
        cfg = InvarianceConfig(samples=5, point_samples=4, group_samples=2)
        doc = self.document(capsys, invariance_suite(fs3, cfg))
        assert set(doc) >= {"basepoint_defect", "equivariance_defect",
                            "limit_defects", "limit_monotone", "ray_type"}
        json.dumps(doc)
