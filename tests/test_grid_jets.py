"""One evaluation of the model's jets on the grid per check run, the Gram
truncation started at the vacuum pairing's cut, and integrals that give
up early where refinement cannot help."""

import dataclasses
import warnings

import numpy as np
import pytest

from pseudobosons import (
    ModelError,
    StateFamily,
    build_builtin,
    from_expressions,
    quad,
)
from pseudobosons.bicoherent import _overlap_bound
from pseudobosons.expressions import ExpressionDomainError
from pseudobosons.model import check_pb_conditions, commutator_residual
from pseudobosons.spectral import (
    HamiltonianCoeffs,
    eigen_residual,
    hsusy_shift_check,
    printed_hamiltonian_crosscheck,
)
from pseudobosons.states import GridJets, pair_envelope, verify_ladder

GRID = np.linspace(-3.0, 3.0, 201)
BUMPS = [quad.TestFunction(-0.8, 1.1), quad.TestFunction(0.4, 0.6)]


def _models(all_builtins):
    raw = from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                           "-2*x/(1+x^2)^2")
    return {**all_builtins, "raw_example1": raw}


def _same(a, b) -> bool:
    """Bitwise equality of results: arrays, floats, dataclasses or lists
    of them (nan equal to nan)."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return _same(dataclasses.astuple(a), dataclasses.astuple(b))
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class TestSharedJetsMatchStandalone:
    """Every grid check reads truncations of one GridJets and gets
    bitwise what it evaluates on its own."""

    @pytest.mark.parametrize("n_max", [4, 8, 20])
    def test_every_check(self, all_builtins, n_max):
        for name, m in _models(all_builtins).items():
            jets = GridJets(m, GRID, n_max)
            levels = range(n_max + 1)
            phi = StateFamily(m, "phi", max_n=n_max)
            psi = StateFamily(m, "psi", max_n=n_max)
            pairs = [
                (check_pb_conditions(m, GRID),
                 check_pb_conditions(m, GRID, jets=jets)),
                (commutator_residual(m, [b.jet for b in BUMPS], GRID),
                 commutator_residual(m, [b.jet for b in BUMPS], GRID,
                                     jets=jets)),
                (verify_ladder(phi, psi, range(n_max), GRID),
                 verify_ladder(phi, psi, range(n_max), GRID, jets=jets)),
                (hsusy_shift_check(m, levels, GRID),
                 hsusy_shift_check(m, levels, GRID, jets=jets)),
            ]
            for side in ("H", "H_dag"):
                pairs.append((eigen_residual(m, side, levels, GRID),
                              eigen_residual(m, side, levels, GRID,
                                             jets=jets)))
                pairs.append((HamiltonianCoeffs(m, side).values(GRID),
                              HamiltonianCoeffs(m, side).values(GRID,
                                                                jets=jets)))
            if name in ("example1", "example2"):
                pairs.append((
                    printed_hamiltonian_crosscheck(m, name, grid=GRID),
                    printed_hamiltonian_crosscheck(m, name, grid=GRID,
                                                   jets=jets)))
            for i, (alone, shared) in enumerate(pairs):
                assert _same(alone, shared), (name, n_max, i)

    def test_one_family_call_per_side(self, example2, monkeypatch):
        calls = []
        jet = StateFamily.jet

        def counted(self, n, x, order):
            calls.append((self.side, list(n), order))
            return jet(self, n, x, order)

        monkeypatch.setattr(StateFamily, "jet", counted)
        jets = GridJets(example2, GRID, 6)
        phi = StateFamily(example2, "phi", max_n=6)
        psi = StateFamily(example2, "psi", max_n=6)
        verify_ladder(phi, psi, range(6), GRID, jets=jets)
        for side in ("H", "H_dag"):
            eigen_residual(example2, side, range(7), GRID, jets=jets)
        hsusy_shift_check(example2, range(7), GRID, jets=jets)
        assert sorted(calls) == [("phi", list(range(7)), 2),
                                 ("psi", list(range(7)), 2)]

    def test_errors_are_the_standalone_errors(self):
        # vacua that do not pair: the psi side raises the stored pairing
        # error on every read, the phi side still works
        m = build_builtin("constant_alpha", alpha_a=1.0, alpha_b=-1.0, k=0.0)
        jets = GridJets(m, GRID, 4)
        with pytest.raises(ModelError) as alone:
            eigen_residual(m, "H_dag", range(5), GRID)
        for _ in range(2):
            with pytest.raises(ModelError) as shared:
                eigen_residual(m, "H_dag", range(5), GRID, jets=jets)
            assert str(shared.value) == str(alone.value)
        assert _same(hsusy_shift_check(m, range(5), GRID),
                     hsusy_shift_check(m, range(5), GRID, jets=jets))
        # a coefficient with a pole on the grid: each reader meets the
        # error of the first coefficient it reads
        pole = from_expressions("1/x", "0", "1/(x-0.3)", "x")
        jets = GridJets(pole, GRID, 2)
        for run in (lambda **kw: check_pb_conditions(pole, GRID, **kw),
                    lambda **kw: HamiltonianCoeffs(pole, "H").values(
                        GRID, **kw)):
            with pytest.raises(ExpressionDomainError) as alone:
                run()
            with pytest.raises(ExpressionDomainError) as shared:
                run(jets=jets)
            assert str(shared.value) == str(alone.value)

    def test_foreign_jets_are_refused(self, example1, example2):
        jets = GridJets(example2, GRID, 4)
        with pytest.raises(ModelError, match="another model or grid"):
            check_pb_conditions(example1, GRID, jets=jets)
        with pytest.raises(ModelError, match="another model or grid"):
            hsusy_shift_check(example2, range(3), GRID[::2], jets=jets)
        with pytest.raises(ModelError, match="outside 0..max_n = 4"):
            eigen_residual(example2, "H", range(6), GRID, jets=jets)


def _counting_truncate(monkeypatch) -> list:
    """(cuts, probe calls, the first L probed) of every truncation search
    from now on."""
    searches = []
    truncate = quad._truncate

    def counted(probe, tol, signs, start=None):
        if not signs:  # a finite interval (Antideriv segments) probes nothing
            return truncate(probe, tol, signs, start)
        calls = []

        def counted_probe(xs):
            calls.append(float(np.min(np.abs(xs))))
            return probe(xs)

        cuts = truncate(counted_probe, tol, signs, start)
        searches.append((cuts, len(calls), calls[0]))
        return cuts

    monkeypatch.setattr(quad, "_truncate", counted)
    return searches


class TestGramCutFromThePairing:
    """The Gram search starts at the vacuum pairing's cut and finds the
    cut a search from L = 1 finds."""

    @pytest.mark.parametrize("N", [4, 8, 20])
    def test_same_cut_as_from_one(self, all_builtins, N):
        for name, m in _models(all_builtins).items():
            env = pair_envelope(m, 2 * N)

            def probe(xs, env=env):
                return np.abs(env(xs))

            start_at = m.pairing_outcome.truncation_bounds
            start = {-1: -start_at[0], +1: start_at[1]}
            free = quad._truncate(probe, 1e-12, (-1, 1))
            assert quad._truncate(probe, 1e-12, (-1, 1), start) == free, \
                (name, N)
            # the pairing's own envelope is degree 0, never above this one
            assert free[-1] <= start_at[0] and free[1] >= start_at[1]

    def test_raw_example1_probes_one_doubling(self, monkeypatch):
        raw = from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                               "-2*x/(1+x^2)^2")
        raw.pairing_outcome  # the pairing's own search is not counted
        searches = _counting_truncate(monkeypatch)
        _, _, res = quad.biorthonormality_matrix(raw, 8,
                                                 return_integral=True)
        env = pair_envelope(raw, 16)
        quad._truncate(lambda xs: np.abs(env(xs)), 1e-12, (-1, 1))
        (cuts, probes, _), (free_cuts, free_probes, _) = searches
        assert (probes, free_probes) == (1, 3)
        assert cuts == free_cuts
        assert res.truncation_bounds == (cuts[-1], cuts[1])

    def test_looser_tolerance_searches_from_one(self, example2, monkeypatch):
        example2.pairing_outcome
        searches = _counting_truncate(monkeypatch)
        quad.biorthonormality_matrix(example2, 4, tol=1e-8)
        quad.biorthonormality_matrix(example2, 4)
        (_, _, loose_from), (_, _, tight_from) = searches
        assert loose_from == 1.0
        assert tight_from == example2.pairing_outcome.truncation_bounds[1]
        assert tight_from > 1.0


class TestFarBumpFailsFast:
    """A bump far from 0 makes its transform norm leave the reach of
    double precision: the norm is refused after a few passes, not
    refined until the panel budget is spent."""

    @staticmethod
    def _panels(monkeypatch) -> list:
        counts = []
        sums = quad._panel_sums

        def counted(f, lo, hi):
            counts.append(lo.size)
            return sums(f, lo, hi)

        monkeypatch.setattr(quad, "_panel_sums", counted)
        return counts

    @pytest.mark.parametrize("name", ["example2", "raw_example1"])
    def test_noise_limited_norm_stalls(self, all_builtins, name, monkeypatch):
        m = _models(all_builtins)[name]
        panels = self._panels(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(quad.QuadratureError, match="stalled"):
                _overlap_bound(m, quad.TestFunction(3.0, 0.7), "psi")
        assert sum(panels) < 1000

    def test_overflowing_norm_names_its_point(self, example2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(quad.QuadratureError,
                               match=r"\|h_minus\|\^2 is not finite at "
                                     r"s = 26\.8"):
                _overlap_bound(example2, quad.TestFunction(3.5, 0.9), "psi")

    def test_near_bumps_keep_their_bounds(self, example2):
        # the bound of a bump at 2.5 still converges where |s| reaches 12
        bound = _overlap_bound(example2, quad.TestFunction(2.5, 0.7), "psi")
        assert np.isfinite(bound(0))

    def test_a_jump_still_converges(self):
        # a jump halves the error of its panel at every pass: no stall
        r = quad.integrate_line(lambda x: np.where(x < 0.3, 1.0, 0.0),
                                -1.0, 1.0)
        assert abs(r.value - 1.3) < 1e-10
