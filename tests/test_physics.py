import numpy as np
import pytest

from gfdmflow import (
    ReservoirModel,
    SimState,
    UnphysicalValueError,
    kro,
    krw,
    pair_transmissibility_parts,
    porosity,
    upwind_nodes,
)


@pytest.fixture
def model():
    return ReservoirModel.uniform(4)


class TestRelativePermeability:
    def test_endpoints(self, model):
        assert krw(0.2, model) == 0.0
        assert krw(0.8, model) == 1.0
        assert kro(0.8, model) == 0.0
        assert kro(0.2, model) == 1.0

    def test_midpoint(self, model):
        assert krw(0.5, model) == pytest.approx(0.25)
        assert kro(0.5, model) == pytest.approx(0.25)

    def test_clamped_outside_range(self, model):
        assert krw(0.1, model) == 0.0
        assert krw(0.95, model) == 1.0
        assert kro(0.95, model) == 0.0

    def test_monotone_and_bounded(self, model):
        sw = np.linspace(0.2, 0.8, 10_000)
        w = krw(sw, model)
        o = kro(sw, model)
        assert np.all(np.diff(w) >= 0)
        assert np.all(np.diff(o) <= 0)
        assert np.all(w + o <= 1.0 + 1e-12)

    def test_frozen_saturation_hook(self, freeze_saturation):
        freeze_saturation(0.8)
        model = ReservoirModel.uniform(2)
        assert krw(0.3, model) == 1.0
        assert kro(0.3, model) == 0.0


class TestPorosity:
    def test_incompressible(self):
        model = ReservoirModel.uniform(2, Cr=0.0, phi0=0.3)
        assert porosity(25.0, model) == pytest.approx(0.3)

    def test_reference_pressure(self):
        model = ReservoirModel.uniform(2, Cr=1e-3, p_ref=10.0)
        assert porosity(10.0, model) == pytest.approx(0.3)
        assert porosity(11.0, model) == pytest.approx(0.301)

    def test_unphysical_flagged(self):
        model = ReservoirModel.uniform(2, Cr=1e-1, phi0=0.3, p_ref=10.0)
        with pytest.raises(UnphysicalValueError):
            porosity(20.0, model)


class TestPairAverages:
    def test_equal_permeabilities(self):
        model = ReservoirModel.uniform(2, permeability=100.0)
        k, mo, mw = pair_transmissibility_parts(np.array([0]), np.array([1]), model)
        assert k[0] == pytest.approx(100.0)

    def test_harmonic_and_arithmetic(self):
        model = ReservoirModel.uniform(2)
        object.__setattr__(model, "permeability", np.array([100.0, 50.0]))
        object.__setattr__(model, "mu_o", np.array([10.0, 2.0]))
        k, mo, mw = pair_transmissibility_parts(np.array([0]), np.array([1]), model)
        assert k[0] == pytest.approx(200.0 / 3.0)
        assert mo[0] == pytest.approx(6.0)

    def test_harmonic_below_arithmetic(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0.1, 1000.0, size=(2, 500))
        harm = 2.0 / (1.0 / a + 1.0 / b)
        assert np.all(harm <= 0.5 * (a + b) + 1e-9)


def pair_mobilities(p, sw, model, pair_i=0, pair_j=1):
    """Upwind oil and water mobilities of the pairs ``pair_i -> pair_j`` over
    the node arrays ``p`` and ``sw``, at pair viscosities 10 and 2."""
    p = np.asarray(p, dtype=float)
    sw_up = np.asarray(sw, dtype=float)[upwind_nodes(p[pair_j] - p[pair_i], pair_i, pair_j)]
    return kro(sw_up, model) / 10.0, krw(sw_up, model) / 2.0


class TestUpwind:
    def test_higher_pressure_neighbor_upstream(self, model):
        lam_o, lam_w = pair_mobilities([10.0, 15.0], [0.2, 0.8], model)
        assert lam_w == pytest.approx(krw(0.8, model) / 2.0)
        assert lam_o == pytest.approx(0.0)

    def test_tie_selects_neighbor(self, model):
        lam_o, lam_w = pair_mobilities([12.0, 12.0], [0.2, 0.8], model)
        assert lam_w == pytest.approx(0.5)  # krw(0.8) / 2

    def test_center_upstream(self, model):
        lam_o, lam_w = pair_mobilities([15.0, 10.0], [0.8, 0.2], model)
        assert lam_w == pytest.approx(0.5)
        assert lam_o == pytest.approx(0.0)

    def test_swap_symmetry(self, model):
        rng = np.random.default_rng(7)
        p = rng.uniform(9, 16, size=(200, 2))
        p = p[np.abs(p[:, 0] - p[:, 1]) > 1e-9]
        sw = rng.uniform(0.2, 0.8, size=(len(p), 2))
        first, second = 2 * np.arange(len(p)), 2 * np.arange(len(p)) + 1
        fwd = pair_mobilities(p.ravel(), sw.ravel(), model, first, second)
        rev = pair_mobilities(p.ravel(), sw.ravel(), model, second, first)
        assert np.allclose(fwd[0], rev[0]) and np.allclose(fwd[1], rev[1])


class TestModelValidation:
    def test_saturation_budget(self):
        with pytest.raises(UnphysicalValueError):
            ReservoirModel.uniform(2, Swc=0.6, Sor=0.5)

    def test_positive_properties(self):
        with pytest.raises(UnphysicalValueError):
            ReservoirModel.uniform(2, permeability=-1.0)
        with pytest.raises(UnphysicalValueError):
            ReservoirModel.uniform(2, mu_w=0.0)
        with pytest.raises(UnphysicalValueError):
            ReservoirModel.uniform(2, phi0=1.2)


class TestSimState:
    def test_vector_round_trip(self):
        state = SimState(np.array([1.0, 2.0]), np.array([0.3, 0.4]), t=5.0)
        x = state.to_vector()
        assert np.array_equal(x, [1.0, 0.3, 2.0, 0.4])
        back = SimState.from_vector(x, 5.0)
        assert np.array_equal(back.p, state.p)
        assert np.array_equal(back.sw, state.sw)
