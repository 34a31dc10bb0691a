import math
import random

import pytest

from vdwshock.errors import DomainError, RegionError
from vdwshock.geometry import (
    PseudoFlowState,
    SelfSimilarPoint,
    check_angle,
    eigenvalues_and_type,
    incident_locus,
    make_point,
    reflected_line,
    region_classify,
)
from vdwshock.linear_acoustics import diffracted_density_xi
from vdwshock.thermo import GasModel, reference_constants


class TestWedgeConfig:
    def test_valid(self):
        check_angle(0.7, "wedge half-angle")

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2, -0.1])
    def test_invalid(self, alpha):
        with pytest.raises(DomainError):
            check_angle(alpha, "wedge half-angle")


class TestIncidentLocus:
    def test_head_on(self, ideal_ref):
        assert incident_locus(0.0, ideal_ref) == ideal_ref.a0

    def test_sixty_degrees(self, ideal_ref):
        assert incident_locus(math.pi / 3, ideal_ref) == pytest.approx(
            2.0 * ideal_ref.a0, rel=1e-14
        )

    def test_grows_unbounded(self, ideal_ref):
        assert incident_locus(math.pi / 2 - 1e-9, ideal_ref) > 1e8 * ideal_ref.a0

    def test_vertical_rejected(self, ideal_ref):
        with pytest.raises(DomainError):
            incident_locus(math.pi / 2, ideal_ref)


class TestReflectedLine:
    @pytest.mark.parametrize("alpha", [0.2, 0.6, math.pi / 4, 1.2])
    @pytest.mark.parametrize("btilde", [0.0, 0.3, 0.6])
    def test_endpoints(self, alpha, btilde):
        ref = reference_constants(1.0, 1.0, GasModel(1.4, btilde))
        assert reflected_line(alpha, alpha, ref) == pytest.approx(
            ref.a0 / math.cos(alpha), rel=1e-12
        )
        assert reflected_line(2.0 * alpha, alpha, ref) == pytest.approx(ref.a0, rel=1e-12)

    def test_outside_segment_rejected(self, ideal_ref):
        with pytest.raises(DomainError):
            reflected_line(0.1, 0.5, ideal_ref)

    def test_monotone_in_covolume(self):
        alpha, theta = 0.6, 0.9
        values = [
            reflected_line(theta, alpha, reference_constants(1.0, 1.0, GasModel(1.4, bt)))
            for bt in (0.0, 0.2, 0.4, 0.6)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_centered_difference_positive(self):
        alpha, theta = 0.5, 0.8
        db = 1e-6
        hi = reflected_line(theta, alpha, reference_constants(1.0, 1.0, GasModel(1.4, 0.3 + db)))
        lo = reflected_line(theta, alpha, reference_constants(1.0, 1.0, GasModel(1.4, 0.3 - db)))
        assert (hi - lo) / (2.0 * db) > 0.0


class TestRegionClassify:
    def test_subsonic_disk(self, ideal_ref):
        alpha = math.pi / 4
        pt = make_point(0.5 * ideal_ref.a0, math.pi / 2, ideal_ref)
        assert region_classify(pt, alpha, ideal_ref).region == "OmegaTilde"

    def test_ahead_of_incident(self, ideal_ref):
        alpha = 0.5
        theta = alpha + 0.01
        pt = make_point(2.0 * incident_locus(theta, ideal_ref), theta, ideal_ref)
        assert region_classify(pt, alpha, ideal_ref).region == "Omega0"

    def test_merge_point_tags(self, ideal_ref):
        alpha = 0.5
        pt = make_point(ideal_ref.a0, 2.0 * alpha, ideal_ref)
        label = region_classify(pt, alpha, ideal_ref)
        assert "sonic_arc" in label.boundaries
        assert "reflected_line" in label.boundaries

    def test_between_line_and_incident(self, ideal_ref):
        alpha = 0.5
        theta = 0.8
        mid = 0.5 * (reflected_line(theta, alpha, ideal_ref) + incident_locus(theta, ideal_ref))
        assert region_classify(make_point(mid, theta, ideal_ref), alpha, ideal_ref).region == "Omega1"

    def test_behind_reflected_line(self, ideal_ref):
        alpha = 0.5
        theta = 0.8
        mid = 0.5 * (ideal_ref.a0 + reflected_line(theta, alpha, ideal_ref))
        assert region_classify(make_point(mid, theta, ideal_ref), alpha, ideal_ref).region == "Omega2"

    def test_far_field_beyond_merge_angle(self, ideal_ref):
        pt = make_point(3.0 * ideal_ref.a0, 2.5, ideal_ref)
        assert region_classify(pt, 0.5, ideal_ref).region == "Omega1"

    def test_below_wedge_rejected(self, ideal_ref):
        with pytest.raises(DomainError):
            region_classify(make_point(1.0, 0.2, ideal_ref), 0.5, ideal_ref)

    @pytest.mark.parametrize("theta", [math.nan, 0.2, math.pi + 1e-14])
    def test_theta_outside_the_wedge_domain(self, ideal_ref, theta):
        # one range test for the region map and the diffraction formula; a
        # NaN theta used to slip past it here and fail later in a locus
        wedge = r"outside the wedge domain \[alpha, pi\]"
        point = SelfSimilarPoint(1.0, theta, 1.0 / ideal_ref.c0)  # make_point rejects a NaN theta
        with pytest.raises(DomainError, match=wedge):
            region_classify(point, 0.5, ideal_ref)
        with pytest.raises(DomainError, match="a point needs" if math.isnan(theta) else wedge):
            diffracted_density_xi(0.5, theta, 0.5, ideal_ref)

    def test_partition_is_exclusive(self):
        # one hundred thousand samples overall, each landing in exactly one
        # region (boundary-tagged points excluded from the count)
        rng = random.Random(4)
        for alpha, btilde in ((0.4, 0.0), (math.pi / 4, 0.3), (0.7, 0.5)):
            ref = reference_constants(1.0, 1.0, GasModel(1.4, btilde))
            counts = {"Omega0": 0, "Omega1": 0, "Omega2": 0, "OmegaTilde": 0}
            n = 0
            while n < 34000:
                theta = rng.uniform(alpha, math.pi)
                zeta = rng.uniform(0.0, 3.0 * ref.a0)
                pt = make_point(zeta, theta, ref)
                label = region_classify(pt, alpha, ref)
                if label.boundaries:
                    continue
                counts[label.region] += 1
                n += 1
            assert sum(counts.values()) == 34000
            assert all(v > 0 for v in counts.values())

    def test_gap_above_quarter_pi_reported(self):
        # alpha > pi/4 leaves the patch beyond the reflected line with
        # theta in (pi/2, 2*alpha) uncovered by the printed decomposition
        ref = reference_constants(1.0, 1.0, GasModel(1.4, 0.0))
        alpha = 1.0
        theta = 1.8
        zs = reflected_line(theta, alpha, ref)
        with pytest.raises(RegionError):
            region_classify(make_point(zs * 1.5, theta, ref), alpha, ref)


class TestEigenvalues:
    def test_rest_supersonic_point(self, ideal_ref):
        a = 1.3
        pt = make_point(2.0 * a, 1.0, ideal_ref)
        lam_c, lam_p, lam_m, kind = eigenvalues_and_type(pt, PseudoFlowState(0.0, 0.0, a))
        assert kind == "supersonic"
        assert lam_c == 0.0
        assert lam_p == pytest.approx(math.sqrt(3.0) / (6.0 * a), rel=1e-13)
        assert lam_m == pytest.approx(-math.sqrt(3.0) / (6.0 * a), rel=1e-13)

    def test_rest_subsonic_point(self, ideal_ref):
        a = 1.3
        pt = make_point(0.5 * a, 1.0, ideal_ref)
        lam_c, lam_p, lam_m, kind = eigenvalues_and_type(pt, PseudoFlowState(0.0, 0.0, a))
        assert kind == "subsonic"
        assert lam_p is None and lam_m is None

    def test_sonic_circle(self, ideal_ref):
        flow = PseudoFlowState(0.0, 0.0, 2.0)
        pt = make_point(2.0, 0.5, ideal_ref)
        assert eigenvalues_and_type(pt, flow)[3] == "sonic"

    def test_contact_pole_rejected(self, ideal_ref):
        pt = make_point(1.0, 0.5, ideal_ref)
        with pytest.raises(DomainError):
            eigenvalues_and_type(pt, PseudoFlowState(1.0, 0.4, 0.2))
