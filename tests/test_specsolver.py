"""Analytic spectra and the Sturm-Liouville numerical oracle."""

import math
from fractions import Fraction as F

import pytest

from pseudosphere.specsolver import (
    SpectrumLevel,
    SLProblem,
    GridSpec,
    ConvergenceError,
    analytic_spectrum_h2,
    analytic_spectrum_s2,
    solve_sturm_liouville,
    angular_problem,
    radial_problem_h2,
    radial_problem_s2,
    pde_spectrum,
    group_numeric,
    H2_THRESHOLD,
)

L_H2 = (F(1, 2), F(1, 2), F(13, 2))
L_S2 = (F(1, 2), F(1, 2), F(1, 2))


class TestAnalytic:
    def test_h2_worked_example(self):
        lv = analytic_spectrum_h2(L_H2)
        assert [(x.E, x.degeneracy) for x in lv] == [(F(-12), 1), (F(-2), 2)]

    def test_h2_empty(self):
        assert analytic_spectrum_h2((F(1, 2), F(1, 2), F(2))) == []

    def test_h2_below_threshold(self):
        lv = analytic_spectrum_h2((F(3, 2), F(1, 2), F(21, 2)))
        assert lv and all(x.E < F(1, 4) for x in lv)

    def test_s2_worked_example(self):
        lv = analytic_spectrum_s2(L_S2, max_levels=3)
        assert [(x.E, x.degeneracy) for x in lv] == \
            [(F(12), 1), (F(30), 2), (F(56), 3)]
        # P = 0 level is L(L+1) with L = 3; P = 1 is L(L+1) with L = 5
        assert lv[0].E == 3 * 4 and lv[1].E == 5 * 6

    def test_s2_level_count(self):
        assert len(analytic_spectrum_s2(L_S2, max_levels=7)) == 7

    def test_degeneracy_law(self):
        for lv in analytic_spectrum_s2((F(1), F(2), F(3)), max_levels=5):
            pairs = [(n, lv.P - n) for n in range(lv.P + 1)]
            assert len(pairs) == lv.degeneracy == lv.P + 1


class TestSolver:
    def test_free_particle(self):
        prob = SLProblem(potential=lambda x: 0.0, x0=0.0, x1=math.pi / 2)
        vals = solve_sturm_liouville(prob, GridSpec(nodes=4096), 3)
        for got, want in zip(vals, [4.0, 16.0, 36.0]):
            assert abs(got - want) <= 1e-6 * want

    def test_angular_free_case(self):
        vals = solve_sturm_liouville(angular_problem(F(1, 2), F(1, 2)),
                                     GridSpec(nodes=2048), 3)
        for m, got in enumerate(vals):
            assert abs(got - (2 * m + 2)**2) < 1e-3

    def test_angular_poschl_teller(self):
        l1, l2 = F(3, 2), F(3, 4)
        vals = solve_sturm_liouville(angular_problem(l1, l2),
                                     GridSpec(nodes=2048), 3)
        for m, got in enumerate(vals):
            want = float((l1 + l2 + 2 * m + 1)**2)
            assert abs(got - want) < 1e-3 * want

    def test_radial_h2_ground_state(self):
        lam = 4.0  # angular channel m = 0 for l1 = l2 = 1/2
        vals = solve_sturm_liouville(radial_problem_h2(lam, F(13, 2), 20.0),
                                     GridSpec(nodes=2048), 1)
        assert abs(vals[0] - (-12.0)) < 1e-3 * 12

    def test_convergence_order(self):
        # halving h must shrink the error by ~4 before extrapolation
        prob = SLProblem(potential=lambda x: 0.0, x0=0.0, x1=math.pi)
        errs = []
        from pseudosphere.specsolver import _eigs_on_grid
        for n in (256, 512, 1024):
            errs.append(abs(_eigs_on_grid(prob, n, 1)[0] - 1.0))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 1.9 and order2 >= 1.9

    def test_nonconvergence_flagged(self):
        prob = SLProblem(potential=lambda x: 0.0, x0=0.0, x1=math.pi)
        with pytest.raises(ConvergenceError):
            solve_sturm_liouville(prob, GridSpec(nodes=128, levels=2), 1,
                                  tol=1e-14)

    def test_richardson_levels_halve_the_spacing(self):
        # with h halving exactly, the extrapolated angular levels of
        # l = (1/2, 5/2) lie within 2e-9 (relative) of (l1 + l2 + 2m + 1)^2
        l1, l2 = F(1, 2), F(5, 2)
        vals = solve_sturm_liouville(angular_problem(l1, l2),
                                     GridSpec(nodes=2048), 3)
        for m, got in enumerate(vals):
            want = float((l1 + l2 + 2 * m + 1)**2)
            assert abs(got - want) <= 2e-9 * want

    def test_grid_levels_halve_nodes(self):
        grid = GridSpec(nodes=2048, levels=3)
        assert grid.coarsest == 512

    def test_grid_rejects_clamped_levels(self):
        # 256 // 2^4 = 16 intervals: the coarse levels would be clamped
        with pytest.raises(ValueError):
            GridSpec(nodes=256, levels=5)
        assert GridSpec(nodes=256, levels=3).coarsest == 64

    def test_probe_grid_valid_for_smallest_grid(self):
        from pseudosphere.specsolver import _adaptive_L
        L = _adaptive_L(4.0, F(13, 2), GridSpec(nodes=128, levels=2), count=2)
        assert 10.0 <= L <= 60.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(nodes=32)
        with pytest.raises(ValueError):
            GridSpec(levels=1)
        with pytest.raises(ValueError):
            solve_sturm_liouville(
                SLProblem(potential=lambda x: 0.0, x0=0.0, x1=1.0),
                GridSpec(), 0)


class TestPotentials:
    """Each potential, evaluated once on a node array, against a pointwise
    math.* evaluation of the closed form in its docstring."""

    @staticmethod
    def _assert_matches(prob, reference):
        import numpy as np
        x = np.linspace(prob.x0, prob.x1, 1003)[1:-1]
        got = prob.potential(x)
        assert got.shape == x.shape
        for xi, gi in zip(x, got):
            want = reference(float(xi))
            assert abs(gi - want) <= 1e-12 * max(1.0, abs(want))

    def test_angular(self):
        l1, l2 = F(3, 2), F(5, 4)
        self._assert_matches(
            angular_problem(l1, l2),
            lambda x: (float(l1)**2 - 0.25) / math.sin(x)**2
            + (float(l2)**2 - 0.25) / math.cos(x)**2)

    def test_radial_s2(self):
        lam, l3 = 17.3, F(7, 2)
        self._assert_matches(
            radial_problem_s2(lam, l3),
            lambda x: (lam - 0.25) / math.sin(x)**2
            + (float(l3)**2 - 0.25) / math.cos(x)**2 - 0.25)

    def test_radial_h2(self):
        lam, l3 = 9.0, F(13, 2)
        self._assert_matches(
            radial_problem_h2(lam, l3, 30.0),
            lambda x: (lam - 0.25) / math.sinh(x)**2
            - (float(l3)**2 - 0.25) / math.cosh(x)**2 + 0.25)

    def test_constant_potential_broadcast(self):
        from pseudosphere.specsolver import _eigs_on_grid
        shifted = SLProblem(potential=lambda x: 3.0, x0=0.0, x1=math.pi)
        free = SLProblem(potential=lambda x: 0.0, x0=0.0, x1=math.pi)
        got = _eigs_on_grid(shifted, 255, 3)
        want = _eigs_on_grid(free, 255, 3) + 3.0
        assert got.shape == (3,)
        assert max(abs(got - want)) <= 1e-12 * max(abs(want))

    def test_scalar_only_potential_fails_loudly(self):
        prob = SLProblem(potential=lambda x: math.sin(x) + 1.0, x0=0.0,
                         x1=math.pi)
        with pytest.raises(TypeError):
            solve_sturm_liouville(prob, GridSpec(nodes=128, levels=2), 1)


class TestPdeSpectrum:
    def test_h2_matches_analytic(self):
        numeric = pde_spectrum("h2", L_H2, counts=(3, 3),
                               grid=GridSpec(nodes=2048))
        groups = group_numeric(numeric)
        analytic = analytic_spectrum_h2(L_H2)
        assert len(groups) == len(analytic)
        for (Enum, mult), lv in zip(groups, analytic):
            assert abs(Enum - float(lv.E)) <= 1e-3 * max(1.0, abs(float(lv.E)))
            assert mult == lv.degeneracy
        assert all(float(x.E) < H2_THRESHOLD for x in numeric)

    def test_h2_empty_spectrum(self):
        numeric = pde_spectrum("h2", (F(1, 2), F(1, 2), F(2)), counts=(2, 2),
                               grid=GridSpec(nodes=1024))
        assert numeric == []

    def test_s2_matches_analytic(self):
        numeric = pde_spectrum("s2", L_S2, counts=(3, 3),
                               grid=GridSpec(nodes=2048))
        analytic = analytic_spectrum_s2(L_S2, max_levels=3)
        groups = group_numeric([x for x in numeric if x.P <= 2])
        assert len(groups) == 3
        for (Enum, mult), lv in zip(groups, analytic):
            assert abs(Enum - float(lv.E)) <= 1e-3 * float(lv.E)
            assert mult == lv.degeneracy

    def test_s2_second_parameter_set(self):
        l = (F(3, 2), F(1, 2), F(5, 2))
        numeric = pde_spectrum("s2", l, counts=(2, 2),
                               grid=GridSpec(nodes=2048))
        analytic = analytic_spectrum_s2(l, max_levels=2)
        groups = group_numeric([x for x in numeric if x.P <= 1])
        for (Enum, mult), lv in zip(groups, analytic):
            assert abs(Enum - float(lv.E)) <= 1e-3 * float(lv.E)
            assert mult == lv.degeneracy

    def test_h2_second_parameter_set(self):
        l = (F(3, 2), F(1, 2), F(21, 2))
        numeric = pde_spectrum("h2", l, counts=(4, 4),
                               grid=GridSpec(nodes=2048))
        analytic = analytic_spectrum_h2(l)
        groups = group_numeric(numeric)
        assert len(groups) == len(analytic)
        for (Enum, mult), lv in zip(groups, analytic):
            assert abs(Enum - float(lv.E)) <= 1e-3 * max(1.0, abs(float(lv.E)))
            assert mult == lv.degeneracy

    @pytest.mark.parametrize("surface,l", [
        ("s2", (F(3, 4), F(5, 4), F(3, 4))), ("s2", (F(7, 4), F(3, 4), F(5, 4))),
        ("h2", (F(3, 4), F(5, 4), F(13, 2))), ("h2", (F(5, 4), F(3, 4), F(29, 4)))])
    def test_non_half_integer_l(self, surface, l):
        # l_i off the half-integers, every l_i >= 1/2: the singular endpoint
        # terms do not vanish, and the Dirichlet solve still finds every
        # closed-form level (worst 5.6e-6 relative) with its degeneracy
        numeric = pde_spectrum(surface, l, counts=(3, 3), grid=GridSpec(nodes=2048))
        analytic = (analytic_spectrum_s2(l, max_levels=3) if surface == "s2"
                    else analytic_spectrum_h2(l))
        groups = group_numeric([x for x in numeric if x.P <= 2])
        assert [mult for _, mult in groups] == [lv.degeneracy for lv in analytic]
        for (Enum, _), lv in zip(groups, analytic):
            assert abs(Enum - float(lv.E)) <= 2e-5 * max(1.0, abs(float(lv.E)))

    def test_bad_surface(self):
        with pytest.raises(ValueError):
            pde_spectrum("torus", L_S2)


class TestH2ChannelSolve:
    L = (F(5, 2), F(5, 2), F(23, 2))   # three bound levels, one above them

    def test_one_solve_per_channel(self, monkeypatch):
        # one angular solve, then per channel one probe (_adaptive_L) and
        # one solve; before, a channel whose drift check failed was solved
        # again with a looser tolerance
        from pseudosphere import specsolver
        calls = []
        solve = specsolver.solve_sturm_liouville

        def counted(prob, grid, count, tol=1e-6, below=math.inf):
            calls.append((prob, count, tol, below))
            return solve(prob, grid, count, tol, below)

        monkeypatch.setattr(specsolver, "solve_sturm_liouville", counted)
        grid = GridSpec(nodes=2048)
        levels = pde_spectrum("h2", self.L, counts=(4, 4), grid=grid)
        channels = [c for c in calls if c[3] < math.inf]
        assert len(channels) == 4 and len(calls) == 1 + 2 * 4
        # the kept levels equal the old route's bit for bit: every level
        # solved with no drift check, then those below the threshold kept
        want = []
        for m, (prob, count, _, _) in enumerate(channels):
            Es = solve(prob, grid, count, tol=math.inf)
            want += [(n + m, E) for n, E in enumerate(E for E in Es
                                                      if E < H2_THRESHOLD - 1e-6)]
        assert [(lv.P, lv.E) for lv in levels] == sorted(want)
        assert [(E, mult) for E, mult in group_numeric(levels)] == \
            [(pytest.approx(float(lv.E), abs=1e-4), lv.degeneracy)
             for lv in analytic_spectrum_h2(self.L)]

    def test_kept_level_that_drifts_raises(self):
        # on 512 intervals a bound level drifts by 2.5e-3
        with pytest.raises(ConvergenceError, match="tolerance 1.00e-03"):
            pde_spectrum("h2", self.L, counts=(4, 4),
                         grid=GridSpec(nodes=512, levels=3))

    def test_drift_checked_on_kept_levels_only(self):
        # free particle on (0, pi): levels 1, 4, 9, each drifting above 1e-14
        prob = SLProblem(potential=lambda x: 0.0, x0=0.0, x1=math.pi)
        grid = GridSpec(nodes=128, levels=2)
        assert solve_sturm_liouville(prob, grid, 3, tol=1e-14, below=0.5) == []
        for below in (2.0, 5.0):
            with pytest.raises(ConvergenceError):
                solve_sturm_liouville(prob, grid, 3, tol=1e-14, below=below)
        kept = solve_sturm_liouville(prob, grid, 3, tol=1.0, below=5.0)
        assert kept == solve_sturm_liouville(prob, grid, 3, tol=1.0)[:2]
