import math
from dataclasses import replace

import numpy as np
import pytest

from bellsim import dispersion
from bellsim.dispersion import (
    BirefringentElement,
    element_delays,
    get_material,
    group_index,
    phase_matching_cut_angle,
    refractive_index,
)
from bellsim.errors import ConfigError, WavelengthRangeError
from bellsim.units import C_NM_PER_FS

BBO = get_material("BBO")
QUARTZ = get_material("quartz")

# Independent evaluation of the Ghosh crystalline-quartz fit at 400 nm,
# computed once with a standalone script.
QUARTZ_O_400 = 1.557730765267995


def _ghosh_quartz_o(wavelength_um):
    # Same published fit, typed fresh.
    lam2 = wavelength_um**2
    n2 = (
        1.28604141
        + 1.07044083 * lam2 / (lam2 - 0.0100585997)
        + 1.10202242 * lam2 / (lam2 - 100.0)
    )
    return math.sqrt(n2)


class TestRefractiveIndex:
    def test_quartz_o_400_matches_independent_evaluation(self):
        n = refractive_index(QUARTZ, "o", 400.0)
        assert abs(n - QUARTZ_O_400) / QUARTZ_O_400 < 1e-9
        assert abs(n - _ghosh_quartz_o(0.4)) / n < 1e-12

    def test_boundary_wavelength_is_included(self):
        lo, hi = QUARTZ.valid_range_nm
        assert refractive_index(QUARTZ, "o", hi) > 1.0
        assert refractive_index(QUARTZ, "e", lo) > 1.0

    def test_bbo_idler_index_physical(self):
        assert refractive_index(BBO, "o", 885.0) > 1.0

    def test_out_of_range_names_material_and_bounds(self):
        with pytest.raises(WavelengthRangeError) as err:
            refractive_index(QUARTZ, "o", 100.0)
        message = str(err.value)
        assert "quartz" in message
        assert "198" in message and "2050" in message

    def test_bad_polarization_rejected(self):
        with pytest.raises(ConfigError):
            refractive_index(BBO, "x", 400.0)


class TestGroupIndex:
    @pytest.mark.parametrize(
        "material,pol,wavelength",
        [(QUARTZ, "e", 400.0), (BBO, "o", 730.0), (QUARTZ, "o", 885.0), (BBO, "e", 500.0)],
    )
    def test_matches_central_difference(self, material, pol, wavelength):
        h = 0.01  # nm
        n_plus = refractive_index(material, pol, wavelength + h)
        n_minus = refractive_index(material, pol, wavelength - h)
        dn_dlam = (n_plus - n_minus) / (2.0 * h)  # per nm
        expected = refractive_index(material, pol, wavelength) - wavelength * dn_dlam
        got = group_index(material, pol, wavelength)
        assert abs(got - expected) / expected < 1e-6

    def test_normal_dispersion_group_exceeds_phase(self):
        for material in (BBO, QUARTZ):
            for pol in ("o", "e"):
                assert group_index(material, pol, 400.0) > refractive_index(material, pol, 400.0)

    def test_boundary_wavelength_rejected(self):
        lo, hi = BBO.valid_range_nm
        with pytest.raises(WavelengthRangeError):
            group_index(BBO, "o", hi)

    def test_analytic_vs_numeric_across_range(self):
        lo, hi = QUARTZ.valid_range_nm
        h = 0.01
        for wavelength in np.linspace(lo + 1.0, hi - 1.0, 40):
            fd = (
                refractive_index(QUARTZ, "o", wavelength + h)
                - refractive_index(QUARTZ, "o", wavelength - h)
            ) / (2.0 * h)
            expected = refractive_index(QUARTZ, "o", wavelength) - wavelength * fd
            assert abs(group_index(QUARTZ, "o", wavelength) - expected) / expected < 1e-6

    def test_indices_physical_over_valid_ranges(self):
        for material in (BBO, QUARTZ):
            lo, hi = material.valid_range_nm
            for wavelength in np.linspace(lo + 1.0, hi - 1.0, 120):
                for pol in ("o", "e"):
                    assert refractive_index(material, pol, wavelength) > 1.0
                    assert group_index(material, pol, wavelength) > 1.0


def _snell_ray_trace_path(thickness_mm, n, tilt_deg):
    """Path length through a plane-parallel plate by explicit vector tracing."""
    tilt = math.radians(tilt_deg)
    incident = np.array([math.sin(tilt), math.cos(tilt)])
    normal = np.array([0.0, 1.0])
    cos_i = float(incident @ normal)
    ratio = 1.0 / n
    cos_t = math.sqrt(1.0 - ratio**2 * (1.0 - cos_i**2))
    refracted = ratio * incident + (cos_t - ratio * cos_i) * normal
    refracted /= np.linalg.norm(refracted)
    # March until the ray crosses the exit plane y = thickness.
    return thickness_mm / float(refracted @ normal)


class TestElementDelays:
    def test_normal_incidence_reduces_exactly(self):
        elem = BirefringentElement(QUARTZ, 1.0, "vertical", 0.0)
        rep = element_delays(elem, "o", 730.0)
        n = refractive_index(QUARTZ, "o", 730.0)
        assert rep.phase_delay_fs == pytest.approx(n * 1.0e6 / C_NM_PER_FS, rel=1e-15)
        assert rep.group_delay_fs == pytest.approx(
            group_index(QUARTZ, "o", 730.0) * 1.0e6 / C_NM_PER_FS, rel=1e-15
        )
        assert rep.polarization == "o"

    def test_tilt_is_even(self):
        plus = element_delays(BirefringentElement(QUARTZ, 2.0, "vertical", 17.0), "e", 730.0)
        minus = element_delays(BirefringentElement(QUARTZ, 2.0, "vertical", -17.0), "e", 730.0)
        assert plus.phase_delay_fs == minus.phase_delay_fs
        assert plus.group_delay_fs == minus.group_delay_fs

    def test_tilt_matches_ray_trace_oracle(self):
        elem = BirefringentElement(QUARTZ, 1.0, "vertical", 10.0)
        n_o = refractive_index(QUARTZ, "o", 730.0)
        path_mm = _snell_ray_trace_path(1.0, n_o, 10.0)
        rep = element_delays(elem, "o", 730.0)
        expected = n_o * path_mm * 1.0e6 / C_NM_PER_FS
        assert abs(rep.phase_delay_fs - expected) / expected < 1e-6

    def test_delays_linear_in_thickness(self):
        one = element_delays(BirefringentElement(QUARTZ, 1.5, "vertical", 12.0), "o", 885.0)
        two = element_delays(BirefringentElement(QUARTZ, 3.0, "vertical", 12.0), "o", 885.0)
        assert two.phase_delay_fs == pytest.approx(2.0 * one.phase_delay_fs, rel=1e-12)
        assert two.group_delay_fs == pytest.approx(2.0 * one.group_delay_fs, rel=1e-12)

    @pytest.mark.parametrize("pol", ["o", "e"])
    def test_tilt_array_matches_per_tilt_elements(self, pol):
        plate = BirefringentElement(QUARTZ, 3.0, "vertical", 0.0)
        tilts = np.array([-30.0, -7.5, 0.0, 0.0, 12.0, 44.9])
        batch = element_delays(plate, pol, 730.0, tilts)
        for k, tilt in enumerate(tilts):
            one = element_delays(replace(plate, tilt_deg=float(tilt)), pol, 730.0)
            assert batch.phase_delay_fs[k] == pytest.approx(one.phase_delay_fs, rel=1e-14)
            assert batch.group_delay_fs[k] == pytest.approx(one.group_delay_fs, rel=1e-14)

    @pytest.mark.parametrize("tilts, named", [([10.0, 45.0, 50.0], "45.0"), ([30.0, -45.0], "-45.0"),
                                              ([0.0, np.nan], "nan")])
    def test_tilt_array_bound_names_the_tilt(self, tilts, named):
        plate = BirefringentElement(QUARTZ, 3.0, "vertical", 0.0)
        with pytest.raises(ConfigError, match=rf"\|tilt\| must be < 45 deg, got {named}$"):
            element_delays(plate, "o", 730.0, np.array(tilts))

    def test_delays_positive(self):
        rep = element_delays(BirefringentElement(BBO, 3.4, "horizontal", 0.0), "e", 400.0)
        assert rep.phase_delay_fs > 0.0 and rep.group_delay_fs > 0.0

    def test_invariants_rejected(self):
        with pytest.raises(ConfigError):
            BirefringentElement(QUARTZ, -1.0, "vertical")
        with pytest.raises(ConfigError):
            BirefringentElement(QUARTZ, 1.0, "vertical", 45.0)
        with pytest.raises(ConfigError):
            BirefringentElement(QUARTZ, 1.0, "diagonal")


class TestPhaseMatchingCut:
    def test_nondegenerate_cut_angle(self):
        theta = phase_matching_cut_angle(BBO, 400.0, 730.0, 885.0)
        assert 0.0 < theta < math.pi / 2
        # The angled index reproduces the collinear momentum condition.
        n_theta = dispersion.angled_extraordinary_index(BBO, theta, 400.0)
        target = 400.0 * (
            refractive_index(BBO, "o", 730.0) / 730.0
            + refractive_index(BBO, "o", 885.0) / 885.0
        )
        assert n_theta == pytest.approx(target, rel=1e-12)

    def test_crystal_two_crossing_differential(self):
        # The signal-idler group delay difference of the e-ray pairs crossing
        # the 3.4 mm second crystal on its 400 -> 730 + 885 nm cut.  The rigid
        # crossing gives both arms the mean delay and so drops this term.
        theta = phase_matching_cut_angle(BBO, 400.0, 730.0, 885.0)
        n_g = lambda nm: dispersion.angled_extraordinary_group_index(BBO, theta, nm)
        differential = (n_g(730.0) - n_g(885.0)) * 3.4 * dispersion.MM_TO_NM / C_NM_PER_FS
        assert differential == pytest.approx(108.93, abs=0.05)

    def test_angled_index_interpolates_principal_values(self):
        n_o = refractive_index(BBO, "o", 400.0)
        n_e = refractive_index(BBO, "e", 400.0)
        assert dispersion.angled_extraordinary_index(BBO, 0.0, 400.0) == pytest.approx(n_o)
        assert dispersion.angled_extraordinary_index(BBO, math.pi / 2, 400.0) == pytest.approx(n_e)

    def test_angled_group_index_matches_central_difference(self):
        theta = 0.5
        h = 0.01
        n_p = dispersion.angled_extraordinary_index(BBO, theta, 730.0 + h)
        n_m = dispersion.angled_extraordinary_index(BBO, theta, 730.0 - h)
        expected = dispersion.angled_extraordinary_index(BBO, theta, 730.0) - 730.0 * (n_p - n_m) / (2 * h)
        got = dispersion.angled_extraordinary_group_index(BBO, theta, 730.0)
        assert abs(got - expected) / expected < 1e-6


class TestMaterialData:
    def test_unknown_material(self):
        with pytest.raises(ConfigError):
            get_material("diamond")

    def test_custom_file_roundtrip(self, tmp_path):
        path = tmp_path / "materials.yaml"
        path.write_text(
            "- {name: toy, pol: o, coefficients: [1.0, 1.5, 0.01], valid_range_nm: [300, 1000], source_note: test}\n"
            "- {name: toy, pol: e, coefficients: [1.0, 1.6, 0.01], valid_range_nm: [300, 1000], source_note: test}\n"
        )
        table = dispersion.load_materials(path)
        assert refractive_index(table["toy"], "e", 500.0) > refractive_index(table["toy"], "o", 500.0)

    def test_missing_polarization_rejected(self, tmp_path):
        path = tmp_path / "materials.yaml"
        path.write_text(
            "- {name: toy, pol: o, coefficients: [1.0, 1.5, 0.01], valid_range_nm: [300, 1000]}\n"
        )
        with pytest.raises(ConfigError):
            dispersion.load_materials(path)
