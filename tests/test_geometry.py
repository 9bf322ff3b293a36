"""Polygon machinery and the two geometric constants of the counting law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegap.errors import DomainError, EmptyIntersection
from edgegap.geometry import (
    PolygonDomain,
    asymptotic_constants,
    c_minus,
    c_plus,
    clip_positive_halfplane,
    kappa,
    optimal_disk,
)
from tests import geometry_oracle
from tests.conftest import rect


def test_kappa_anchors():
    assert kappa(0.0) == 1.0
    assert kappa(math.e) == pytest.approx(math.e, rel=1e-10)
    assert kappa(1.0) == pytest.approx(1.7632228, rel=1e-6)
    with pytest.raises(DomainError):
        kappa(-0.1)


@given(s=st.floats(1e-3, 50.0))
@settings(max_examples=60, deadline=None)
def test_kappa_inverts_t_log_t(s):
    t = kappa(s)
    assert t >= 1.0
    assert t * math.log(t) == pytest.approx(s, rel=1e-9, abs=1e-11)


def test_polygon_validation():
    with pytest.raises(ValueError):
        PolygonDomain([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        PolygonDomain([(0, 0), (1, 0), (2, 0)])  # collinear
    with pytest.raises(ValueError):
        PolygonDomain([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie
    cw = PolygonDomain([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert cw.area > 0  # normalized to counterclockwise


def test_polygon_measures():
    r = rect(0.0, 2.0, -1.0, 1.0)
    assert r.area == pytest.approx(4.0)
    assert r.centroid == pytest.approx((1.0, 0.0))
    assert r.diameter == pytest.approx(math.sqrt(8.0))
    assert r.x_extent == (0.0, 2.0)
    assert r.contains(1.0, 0.5) and r.contains(0.0, 0.0)
    assert not r.contains(2.5, 0.0)


def test_vertical_sections_respect_connectivity():
    # opening-right C shape: two separate chords through the arms
    c_shape = PolygonDomain([(0, 0), (4, 0), (4, 1), (1, 1), (1, 2),
                             (4, 2), (4, 3), (0, 3)])
    secs = c_shape.vertical_sections(2.0)
    assert len(secs) == 2
    assert secs[0] == pytest.approx((0.0, 1.0))
    assert secs[1] == pytest.approx((2.0, 3.0))
    # the longest single chord lives in the spine, not the sum of the arms
    assert c_minus(c_shape) == pytest.approx(3.0, abs=1e-6)


def test_c_minus_on_simple_shapes():
    assert c_minus(rect(0.0, 1.0, -2.0, 3.0)) == pytest.approx(5.0, abs=1e-8)
    tri = PolygonDomain([(0, 0), (4, 0), (0, 3)])
    assert c_minus(tri) == pytest.approx(3.0, abs=1e-5)


def _ngon(cx, cy, r, n=720):
    th = np.linspace(0, 2 * math.pi, n, endpoint=False)
    return PolygonDomain(list(zip(cx + r * np.cos(th), cy + r * np.sin(th))))


def test_c_minus_disk():
    assert c_minus(_ngon(3.0, 0.5, 1.0)) == pytest.approx(2.0, abs=1e-4)


def test_clip_to_right_halfplane():
    clipped = clip_positive_halfplane(rect(-1.0, 2.0, 0.0, 1.0))
    assert clipped.area == pytest.approx(2.0)
    assert clipped.x_extent == pytest.approx((0.0, 2.0))
    # already inside: unchanged up to vertex order
    tri = PolygonDomain([(0, 0), (1, 0), (0, 1)])
    assert clip_positive_halfplane(tri).area == pytest.approx(tri.area)
    with pytest.raises(EmptyIntersection):
        clip_positive_halfplane(rect(-3.0, -1.0, 0.0, 1.0))
    with pytest.raises(EmptyIntersection):
        # touches the axis along an edge only
        clip_positive_halfplane(PolygonDomain([(0, 0), (0, 1), (-1, 0.5)]))


def test_enclosing_disk_functional():
    # fully left of the axis: kappa factor is 1, so the value is the
    # minimal enclosing radius
    left = rect(-3.0, -1.0, -1.0, 1.0)
    assert c_plus(left) == pytest.approx(math.sqrt(2.0), abs=5e-3)
    # never below half the diameter
    shapes = [rect(0.1, 2.0, -0.5, 0.5), _ngon(2.0, 0.0, 1.0, 60)]
    for poly in shapes:
        assert c_plus(poly) >= 0.5 * poly.diameter - 1e-6
        xi, eta, r = optimal_disk(poly)
        verts = np.asarray(poly.vertices)
        dist = np.sqrt(((verts - (xi, eta)) ** 2).sum(axis=1))
        assert np.all(dist <= r + 1e-9)
        assert c_plus(poly) == pytest.approx(
            r * kappa(max(xi, 0.0) / (math.e * r)), rel=1e-12)


def test_c_plus_offset_disk_beats_centroid_candidate():
    poly = _ngon(2.0, 0.0, 1.0, 120)
    val = c_plus(poly)
    # objective at the centroid-centered enclosing disk
    naive = 1.0 * kappa(2.0 / math.e)
    assert val <= naive + 1e-6


def test_vertical_translation_invariance():
    base = rect(0.2, 1.5, -0.7, 0.9)
    lifted = rect(0.2, 1.5, -0.7 + 5.0, 0.9 + 5.0)
    assert c_minus(base) == pytest.approx(c_minus(lifted), rel=1e-9)
    assert c_plus(base) == pytest.approx(c_plus(lifted), rel=1e-6)


def test_tall_slab_constants():
    # clipped slab (0, 0.7) x (-20, 20): longest chord 40; optimal disk
    # centered a hair left of the axis with radius just above 20
    slab = rect(-0.5, 0.7, -20.0, 20.0)
    xi, _, r = optimal_disk(clip_positive_halfplane(slab))
    assert abs(xi) < 0.05
    assert r == pytest.approx(20.012, rel=1e-3)
    lo, hi = asymptotic_constants(slab, slab, 1.0)
    assert lo == pytest.approx(40.0 / (2.0 * math.pi), rel=1e-6)
    assert hi == pytest.approx(math.e * 20.012, rel=1e-3)
    assert lo < hi


@given(x0=st.floats(-1.0, 0.5), wx=st.floats(0.2, 3.0),
       y0=st.floats(-2.0, 2.0), wy=st.floats(0.2, 4.0),
       b=st.floats(0.25, 4.0))
@settings(max_examples=25, deadline=None)
def test_constants_ordered_whenever_defined(x0, wx, y0, wy, b):
    poly = rect(x0, x0 + wx, y0, y0 + wy)
    if x0 + wx <= 1e-9:
        return
    lo, hi = asymptotic_constants(poly, poly, b)
    assert 0.0 < lo < hi


# ---- closed forms against the brute-force searches they replaced

def _oracle_polygons():
    th = np.linspace(0, 2 * math.pi, 60, endpoint=False)
    shapes = {
        "reference": rect(-0.25, 0.4, -0.5, 0.5),
        "growth": rect(-0.5, 0.7, -20.0, 20.0),
        "finiteness": rect(-2.0, -1.0, 0.0, 1.0),
        "probe": rect(0.05, 0.6, -0.5, 0.5),
        "60-gon": PolygonDomain(list(zip(2.0 + np.cos(th), np.sin(th)))),
        "c-shape": PolygonDomain([(0, 0), (4, 0), (4, 1), (1, 1), (1, 2),
                                  (4, 2), (4, 3), (0, 3)]),
    }
    for name in list(shapes):
        try:
            shapes[name + "-clipped"] = clip_positive_halfplane(shapes[name])
        except EmptyIntersection:
            pass
    return shapes


ORACLE_POLYGONS = _oracle_polygons()


def _assert_matches_oracle(poly):
    value, xi, eta = geometry_oracle.disk_search(poly)
    assert c_plus(poly) == pytest.approx(value, rel=1e-12, abs=0.0)
    got_xi, got_eta, _ = optimal_disk(poly)
    tol = 1e-12 * max(1.0, poly.diameter)
    assert abs(got_xi - xi) <= tol and abs(got_eta - eta) <= tol
    assert c_minus(poly) == geometry_oracle.c_minus(poly)


@pytest.mark.parametrize("name", sorted(ORACLE_POLYGONS))
def test_constants_match_brute_force_oracle(name):
    _assert_matches_oracle(ORACLE_POLYGONS[name])


@given(x0=st.floats(-1.0, 0.5), wx=st.floats(0.2, 3.0),
       y0=st.floats(-2.0, 2.0), wy=st.floats(0.2, 4.0))
@settings(max_examples=10, deadline=None)
def test_rectangle_constants_match_brute_force_oracle(x0, wx, y0, wy):
    _assert_matches_oracle(rect(x0, x0 + wx, y0, y0 + wy))


@given(s=st.floats(0.0, 1e6))
@settings(max_examples=60, deadline=None)
def test_kappa_matches_bisection(s):
    assert kappa(s) == pytest.approx(geometry_oracle.kappa(s), rel=1e-12,
                                     abs=0.0)


def test_kappa_elementwise_on_arrays():
    s = np.concatenate([[0.0, 1e-300, 1.0, math.e],
                        np.geomspace(1e-8, 1e8, 33)])
    t = kappa(s)
    assert isinstance(t, np.ndarray) and t.shape == s.shape
    assert isinstance(kappa(1.0), float)
    assert list(t) == [kappa(float(x)) for x in s]
    assert kappa(s[:, None]).shape == (s.size, 1)
    with pytest.raises(DomainError):
        kappa(np.array([1.0, -1e-12, 2.0]))
    for bad in (math.nan, math.inf, -math.inf, np.array([1.0, math.nan]),
                np.array([[2.0], [math.inf]])):
        with pytest.raises(DomainError):
            kappa(bad)


def test_kappa_within_two_ulp_of_lambert_w_references():
    from scipy.special import lambertw  # reference only
    s = np.concatenate([[0.0], np.logspace(-300, 300, 3000),
                        np.linspace(0.0, 20.0, 1001)])
    t = kappa(s)
    mp = np.array([geometry_oracle.kappa_mp(x) for x in s.tolist()])
    with np.errstate(invalid="ignore"):
        sp = np.where(s == 0.0, 1.0, s / lambertw(s).real)
    assert np.all(np.abs(t - mp) <= 2.0 * np.spacing(mp))
    assert np.all(np.abs(t - sp) <= 2.0 * np.spacing(sp))
