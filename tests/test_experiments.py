"""Tests for exhaustion runs, blow-up sweeps, and dichotomy bookkeeping."""

import numpy as np
import numpy.testing as npt
import pytest

import ellipot as ep
from ellipot.experiments import assemble_levels


def _weak_density(points):
    return 0.05 / (1.0 + np.sum(np.asarray(points) ** 2, axis=-1))


def _gaussian(points):
    return np.exp(-np.sum(np.asarray(points) ** 2, axis=-1))


@pytest.fixture(scope="module")
def square_exhaustion():
    grid = ep.build_grid(2, 25, (-2.5, 2.5))
    return ep.build_exhaustion(ep.box_mask(grid), 3)


@pytest.fixture(scope="module")
def scaling_runs():
    grid = ep.build_grid(2, 25, (-3.0, 3.0))
    exh = ep.build_exhaustion(ep.box_mask(grid), 2)
    phi = ep.power_phi(1.0, 0.5)
    return {c: ep.run_exhaustion(exh, phi, c) for c in (1.0, 2.0, 4.0)}


@pytest.fixture(scope="module")
def interval_op():
    grid = ep.build_grid(1, 129, (-1.0, 1.0))
    return ep.assemble(ep.box_mask(grid))


@pytest.fixture(scope="module")
def truncations():
    radii = [1.0, 2.0, 4.0]
    ops = []
    for R in radii:
        grid = ep.build_grid(3, 17, (-R, R))
        ops.append(ep.assemble(ep.box_mask(grid)))
    return radii, ops


class TestRunExhaustion:
    def test_levels_decrease_and_reports_line_up(self, square_exhaustion):
        run = ep.run_exhaustion(square_exhaustion, ep.power_phi(1.0, 0.5), 1.0)
        assert run.decreasing_ok
        assert run.max_increase <= 1e-8
        # growing the domain can only lower both the sup and the probe value
        assert np.all(np.diff(run.level_sups) <= 1e-12)
        assert np.all(np.diff(run.ref_values) <= 1e-12)
        assert len(run.per_level) == 3
        assert len(run.reports) == 3
        assert all(rep.converged for rep in run.reports)

    def test_limit_field_is_outermost_solution(self, square_exhaustion):
        run = ep.run_exhaustion(square_exhaustion, ep.power_phi(1.0, 0.5), 1.0)
        assert run.v_c.mask.same_as(run.fields[-1].mask)
        npt.assert_array_equal(run.v_c.values, run.fields[-1].values)
        # per_level rows all live on the innermost interior
        core = square_exhaustion.levels[0]
        assert all(len(v) == core.interior_flat.size for v in run.per_level)
        # the core restriction of the outermost field matches per_level[-1]
        npt.assert_allclose(
            run.per_level[-1],
            run.v_c.values.ravel()[core.interior_flat],
            rtol=0, atol=0,
        )

    def test_ref_point_defaults_to_deepest(self, square_exhaustion):
        run = ep.run_exhaustion(square_exhaustion, ep.power_phi(1.0, 0.5), 1.0)
        npt.assert_allclose(run.ref_point, [0.0, 0.0], atol=1e-12)

    def test_rejects_nonpositive_boundary_constant(self, square_exhaustion):
        with pytest.raises(ValueError):
            ep.run_exhaustion(square_exhaustion, ep.power_phi(1.0, 0.5), 0.0)
        with pytest.raises(ValueError):
            ep.run_exhaustion(square_exhaustion, ep.power_phi(1.0, 0.5), -2.0)

    def test_tables_shape(self, square_exhaustion):
        run = ep.run_exhaustion(square_exhaustion, ep.power_phi(1.0, 0.5), 1.0)
        header, rows = run.tables()["levels"]
        assert header == ["level", "n_core_points", "sup", "ref_value"]
        assert len(rows) == 3
        assert [r[0] for r in rows] == [1, 2, 3]
        npt.assert_allclose([r[2] for r in rows], run.level_sups)


class TestSupIdentity:
    def test_weak_absorption_saturates(self):
        grid = ep.build_grid(2, 25, (-1.0, 1.0))
        exh = ep.build_exhaustion(ep.box_mask(grid), 3)
        run = ep.run_exhaustion(exh, ep.power_phi(_weak_density, 0.5), 1.0)
        rep = ep.check_sup_identity(run)
        assert rep.verdict == "saturating"
        assert rep.sup_estimate >= 0.9 * run.c
        assert rep.core_sup >= 0.5 * rep.sup_estimate

    def test_strong_absorption_is_trivial(self):
        # wide square, unit density: the interior value collapses to a
        # dead core, so the sup lives in a boundary layer only
        grid = ep.build_grid(2, 25, (-8.0, 8.0))
        exh = ep.build_exhaustion(ep.box_mask(grid), 3)
        run = ep.run_exhaustion(exh, ep.power_phi(1.0, 0.5), 1.0)
        rep = ep.check_sup_identity(run)
        assert rep.verdict == "trivial"
        assert rep.core_sup <= 0.05 * run.c

    def test_middling_absorption_is_intermediate(self):
        grid = ep.build_grid(2, 25, (-2.5, 2.5))
        exh = ep.build_exhaustion(ep.box_mask(grid), 3)
        run = ep.run_exhaustion(exh, ep.power_phi(1.0, 0.5), 1.0)
        rep = ep.check_sup_identity(run)
        assert rep.verdict == "intermediate"

    def test_summary_dict_round_trips_verdict(self):
        rep = ep.SupIdentityReport("trivial", 1.0, 0.5, 0.01, 0.05, 0.9, 0.5)
        d = rep.summary_dict()
        assert d["verdict"] == "trivial"
        assert d["bands"]["core_fraction"] == 0.5


class TestScalingBound:
    def test_concave_bound_holds(self, scaling_runs):
        for lam in (2.0, 4.0):
            rep = ep.scaling_bound_check(scaling_runs[lam], scaling_runs[1.0])
            assert rep.holds
            assert rep.ratio == lam
            assert rep.min_gap >= -1e-8
            assert not rep.skipped

    def test_equal_constants_give_zero_gap(self, scaling_runs):
        rep = ep.scaling_bound_check(scaling_runs[1.0], scaling_runs[1.0])
        assert rep.holds
        assert rep.min_gap == 0.0

    def test_convex_reaction_is_skipped(self, scaling_runs):
        rep = ep.scaling_bound_check(scaling_runs[2.0], scaling_runs[1.0], concave=False)
        assert rep.skipped
        assert not rep.holds
        assert np.isnan(rep.min_gap)
        assert "concave" in rep.warning

    def test_misordered_constants_rejected(self, scaling_runs):
        with pytest.raises(ValueError):
            ep.scaling_bound_check(scaling_runs[1.0], scaling_runs[2.0])

    def test_mismatched_geometry_rejected(self, scaling_runs):
        grid = ep.build_grid(2, 17, (-3.0, 3.0))
        exh = ep.build_exhaustion(ep.box_mask(grid), 2)
        other = ep.run_exhaustion(exh, ep.power_phi(1.0, 0.5), 2.0)
        with pytest.raises(ValueError):
            ep.scaling_bound_check(other, scaling_runs[1.0])


class TestBlowupSweep:
    def test_input_validation(self, interval_op):
        phi = ep.power_phi(1.0, 0.5)
        with pytest.raises(ValueError):
            ep.blowup_sweep(interval_op, phi, [1.0, 10.0, 100.0])
        with pytest.raises(ValueError):
            ep.blowup_sweep(interval_op, phi, [1.0, 10.0, 5.0, 100.0])
        with pytest.raises(ValueError):
            ep.blowup_sweep(interval_op, phi, [1.0, 2.0, 4.0, 8.0])

    def test_sublinear_reaction_diverges(self, interval_op):
        sweep = ep.blowup_sweep(
            interval_op, ep.power_phi(1.0, 0.5), np.geomspace(1.0, 100.0, 9)
        )
        assert sweep.verdict == "diverges"
        assert sweep.monotone_ok
        # probe grows essentially linearly with the boundary constant
        assert sweep.ratios[:, 0].min() >= 0.5
        assert not sweep.failures

    def test_cubic_reaction_saturates(self, interval_op):
        sweep = ep.blowup_sweep(
            interval_op, ep.power_phi(1.0, 3.0), np.geomspace(1.0, 1.0e4, 17)
        )
        assert sweep.verdict == "saturates"
        assert sweep.last_decade_increment < 0.01
        assert sweep.monotone_ok

    def test_tables_and_probe_columns(self, interval_op):
        probes = [[0.0], [0.5]]
        sweep = ep.blowup_sweep(
            interval_op, ep.power_phi(1.0, 0.5), [1.0, 10.0, 50.0, 100.0],
            probes=probes,
        )
        tables = sweep.tables()
        header, rows = tables["sweep"]
        assert header[0] == "m"
        assert len(header) == 1 + 2 * len(probes)
        assert len(rows) == 4
        assert sweep.values.shape == (4, 2)


class TestGreenPotentialDiagnostic:
    def test_unit_density_apparently_divergent(self, truncations):
        radii, ops = truncations
        diag = ep.green_potential_diagnostic(ops, radii, 1.0)
        assert diag.verdict == "apparently divergent"
        assert diag.increment_ratio >= 0.9
        assert diag.nondecreasing_ok
        # Green sums of the unit density grow like the domain scale squared
        assert diag.exponent > 1.5

    def test_localized_density_apparently_finite(self, truncations):
        radii, ops = truncations
        diag = ep.green_potential_diagnostic(ops, radii, _gaussian)
        assert diag.verdict == "apparently finite"
        assert diag.increment_ratio < 0.9
        assert diag.nondecreasing_ok

    def test_excluded_set_lowers_partial_sums(self, truncations):
        radii, ops = truncations
        full = ep.green_potential_diagnostic(ops, radii, 1.0)
        inside = ep.green_potential_diagnostic(
            ops, radii, 1.0,
            excluded=lambda pts: np.sum(np.asarray(pts) ** 2, axis=-1) < 0.25,
        )
        assert np.all(inside.values < full.values)

    def test_tables_layout(self, truncations):
        radii, ops = truncations
        diag = ep.green_potential_diagnostic(ops, radii, 1.0)
        header, rows = diag.tables()["partial_sums"]
        assert header == ["radius", "green_sum"]
        npt.assert_allclose([r[0] for r in rows], radii)

    def test_validations(self, truncations):
        radii, ops = truncations
        with pytest.raises(ValueError):
            ep.green_potential_diagnostic(ops[:2], radii, 1.0)
        with pytest.raises(ValueError):
            ep.green_potential_diagnostic(ops, [4.0, 2.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            ep.green_potential_diagnostic(ops, radii, lambda pts: -_gaussian(pts))


class TestTruncationStudy:
    def test_odd_shape_required(self):
        with pytest.raises(ValueError):
            ep.cube_truncation_study([1.0, 2.0], ep.power_phi(1.0, 0.5),
                                     dim=2, shape=16, n_levels=2)

    def test_two_squares(self):
        study = ep.cube_truncation_study(
            [1.0, 2.0], ep.power_phi(1.0, 0.5), dim=2, shape=17, n_levels=2
        )
        assert len(study.records) == 2
        assert study.records[0].half_width == 1.0
        sups = study.sup_estimates()
        assert sups.shape == (2,)
        assert np.all((sups > 0) & (sups <= 1.0 + 1e-12))
        header, rows = study.tables()["truncations"]
        assert header[0] == "half_width"
        assert len(rows) == 2
        # every record probes the origin, a lattice point of the odd grid
        for rec in study.records:
            npt.assert_allclose(rec.run.ref_point, 0.0, atol=1e-12)

    @staticmethod
    def _prebuilt_study(coeffs):
        """Fresh and prebuilt-box studies agree; returns the prebuilt ops."""
        half_widths = [1.0, 2.0]
        phi = ep.power_phi(1.0, 0.5)
        ops = [ep.assemble(ep.box_mask(ep.build_grid(2, 17, (-R, R))), coeffs)
               for R in half_widths]
        fresh = ep.cube_truncation_study(half_widths, phi, dim=2, shape=17,
                                         n_levels=2, coeffs=coeffs)
        # the lattice of each cube is read from its operator
        reused = ep.cube_truncation_study(half_widths, phi, n_levels=2, ops=ops,
                                          coeffs=coeffs)
        for a, b in zip(fresh.records, reused.records):
            assert a.shape == b.shape
            npt.assert_allclose(b.run.level_sups, a.run.level_sups, atol=1e-12)
            assert b.origin_value == pytest.approx(a.origin_value, abs=1e-12)
        assert reused.records[-1].run.v_c.mask is ops[-1].mask
        return ops

    def test_prebuilt_boxes_give_the_same_study(self):
        # drift keeps the boxes on the LU path
        half_widths = [1.0, 2.0]
        phi = ep.power_phi(1.0, 0.5)
        ops = self._prebuilt_study(ep.CoefficientSet(b=np.array([0.5, 0.0])))
        # the whole-box operators served as outermost levels and keep their
        # factors for the caller
        assert all(op.is_factored for op in ops)
        with pytest.raises(ValueError):
            ep.cube_truncation_study(half_widths, phi, dim=2, shape=17,
                                     n_levels=2, ops=ops[:1])
        even = [ep.assemble(ep.box_mask(ep.build_grid(2, 16, (-R, R))))
                for R in half_widths]
        with pytest.raises(ValueError):
            ep.cube_truncation_study(half_widths, phi, n_levels=2, ops=even)

    def test_prebuilt_laplacian_boxes_are_never_factored(self):
        # B of a Laplacian box is solved by DST
        ops = self._prebuilt_study(None)
        assert not any(op.is_factored for op in ops)

    def test_origin_decay_with_floor_escape(self):
        def rec(value):
            return ep.TruncationRecord(1.0, (3, 3), None, None, value)

        good = ep.TruncationStudy([rec(1.0), rec(0.6), rec(1e-9), rec(5e-9)], 1.0)
        assert good.origin_decay_ok(factor=0.7)
        stalled = ep.TruncationStudy([rec(1.0), rec(0.8)], 1.0)
        assert not stalled.origin_decay_ok(factor=0.7)


class TestDichotomyReport:
    @staticmethod
    def _study(verdict, sups=(0.95, 0.96)):
        import types

        records = []
        for s in sups:
            rep = ep.SupIdentityReport(verdict, 1.0, s, 0.9 * s, 0.05, 0.9, 0.5)
            run = types.SimpleNamespace(sup_estimate=s)
            records.append(ep.TruncationRecord(1.0, (3, 3), run, rep, s))
        return ep.TruncationStudy(records, 1.0)

    @staticmethod
    def _sweep(verdict):
        import types

        return types.SimpleNamespace(verdict=verdict)

    def test_bounded_only_is_consistent(self):
        rep = ep.dichotomy_report(self._study("saturating"), self._sweep("diverges"))
        assert rep.bounded_indicated
        assert not rep.large_indicated
        assert rep.consistent

    def test_large_only_is_consistent(self):
        rep = ep.dichotomy_report(self._study("trivial"), self._sweep("saturates"))
        assert not rep.bounded_indicated
        assert rep.large_indicated
        assert rep.consistent

    def test_joint_yes_is_flagged(self):
        rep = ep.dichotomy_report(self._study("saturating"), self._sweep("saturates"))
        assert rep.bounded_indicated and rep.large_indicated
        assert not rep.consistent
        assert any("forbidden" in n for n in rep.notes)

    def test_broken_hypotheses_downgrade_the_verdict(self):
        rep = ep.dichotomy_report(
            self._study("saturating"), self._sweep("saturates"), hypotheses_ok=False
        )
        assert rep.consistent  # descriptive only, nothing to contradict
        assert not rep.hypotheses_ok
        assert any("hypotheses" in n for n in rep.notes)

    def test_unstable_sup_blocks_bounded_verdict(self):
        rep = ep.dichotomy_report(
            self._study("saturating", sups=(0.5, 0.95)), self._sweep("diverges")
        )
        assert not rep.bounded_indicated

    def test_render_mentions_every_verdict(self):
        rep = ep.dichotomy_report(self._study("saturating"), self._sweep("diverges"))
        text = rep.render()
        assert "saturating" in text
        assert "diverges" in text
        assert "yes" in text


class TestHelpers:
    def test_deepest_point_is_the_center(self):
        grid = ep.build_grid(2, 17, (-1.0, 1.0))
        mask = ep.box_mask(grid)
        npt.assert_allclose(ep.deepest_point(mask), [0.0, 0.0], atol=1e-12)

    def test_assemble_levels_one_operator_per_level(self):
        grid = ep.build_grid(2, 17, (-1.0, 1.0))
        exh = ep.build_exhaustion(ep.box_mask(grid), 2)
        ops = assemble_levels(exh)
        assert len(ops) == 2
        assert ops[0].mask.interior_flat.size < ops[1].mask.interior_flat.size
