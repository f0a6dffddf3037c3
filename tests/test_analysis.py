import math

import numpy as np
import pytest

from fbclab.analysis import (
    FPGA_FAMILIES,
    FpgaRow,
    FpgaSpec,
    coverage_report,
    density_ratio,
    distance_ratio,
    fpga_encode_latency,
    fpga_report,
    sensitivity_from_per_curve,
)
from fbclab.errors import ConfigError, InputDomainError, RangeError
from fbclab.results import emit_results


def test_distance_ratio_values():
    assert distance_ratio(0.0) == 1.0
    assert distance_ratio(30 * math.log10(2), 3) == pytest.approx(2.0, abs=1e-12)
    assert distance_ratio(8.6, 3) == pytest.approx(1.935, abs=1e-3)
    assert distance_ratio(7.5, 3) == pytest.approx(1.778, abs=1e-3)


def test_distance_ratio_multiplicative():
    for d1, d2 in [(1.0, 2.0), (3.3, 4.4), (0.0, 8.6)]:
        assert distance_ratio(d1 + d2, 3) == pytest.approx(
            distance_ratio(d1, 3) * distance_ratio(d2, 3)
        )


def test_density_ratio_values():
    assert density_ratio(1.0) == 1.0
    assert density_ratio(1.70) == pytest.approx(0.346, abs=2e-3)
    assert density_ratio(1.70 / 1.38) == pytest.approx(0.659, abs=1e-3)
    for d in (0.0, 2.0, 8.6):
        assert density_ratio(distance_ratio(d, 3)) == pytest.approx(10 ** (-d / 15.0))


def test_ratios_beyond_the_float_range():
    # Past the float range a ratio reads inf or 0, which coverage_report
    # rejects under the argument it comes from.
    assert distance_ratio(8.6, 0.001) == math.inf
    assert distance_ratio(-8.6, 0.001) == 0.0
    assert density_ratio(1e-200) == math.inf
    assert density_ratio(1e200) == 0.0
    with pytest.raises(InputDomainError, match=r"^delta_snr_db: 8\.6 dB at exponent 0\.001 gives"):
        coverage_report("x", 8.6, 0.001)
    with pytest.raises(InputDomainError, match=r"^reported_distance_ratio: distance ratio 1e-200 gives"):
        coverage_report("x", 1.0, 3.0, reported_distance_ratio=1e-200)


def test_sensitivity_interpolation():
    assert sensitivity_from_per_curve([(0.0, 1e-2), (2.0, 1e-4)], 1e-3) == pytest.approx(1.0)
    assert sensitivity_from_per_curve([(0.0, 1e-2), (2.0, 1e-4)], 1e-2) == 0.0
    assert sensitivity_from_per_curve([(0.0, 1e-2), (2.0, 1e-4)], 1e-4) == 2.0


def test_sensitivity_recovers_analytic_curve():
    snrs = np.linspace(0, 12, 25)
    curve = [(s, 10 ** (-s / 2)) for s in snrs]
    for target in (1e-1, 1e-2, 3e-3, 1e-5):
        expected = -2 * math.log10(target)
        got = sensitivity_from_per_curve(curve, target)
        assert abs(got - expected) < 1e-6


def test_sensitivity_monotone_in_target():
    curve = [(s, 10 ** (-s / 2)) for s in np.linspace(0, 12, 13)]
    s_tight = sensitivity_from_per_curve(curve, 1e-4)
    s_loose = sensitivity_from_per_curve(curve, 1e-2)
    assert s_tight > s_loose


def test_sensitivity_validation():
    with pytest.raises(RangeError):
        sensitivity_from_per_curve([(0.0, 1e-2), (2.0, 1e-4)], 1e-6)
    with pytest.raises(InputDomainError):
        sensitivity_from_per_curve([(0.0, 0.0), (2.0, 1e-4)], 1e-3)
    with pytest.raises(InputDomainError):
        sensitivity_from_per_curve([(0.0, 1e-4), (2.0, 1e-2)], 1e-3)
    with pytest.raises(ConfigError):
        sensitivity_from_per_curve([(0.0, 1e-2)], 1e-3)


def test_fpga_throughput_and_latency():
    spartan = FPGA_FAMILIES[0]
    assert spartan.name == "Spartan-7" and spartan.peak_gflops == 352
    lat = fpga_encode_latency(444_000, spartan)
    assert lat * 1e6 == pytest.approx(1.26, abs=0.01)
    assert fpga_encode_latency(444_000, FpgaSpec("x", 352)) == pytest.approx(lat / 2)
    with pytest.raises(InputDomainError):
        fpga_encode_latency(0, spartan)
    with pytest.raises(ConfigError):
        FpgaSpec("bad", 0)


def test_fpga_report_csv(tmp_path):
    rows = fpga_report(444_000)
    assert [r.family for r in rows] == ["Spartan-7", "Artix-7", "Kintex-7", "Virtex-7"]
    path = tmp_path / "fpga.csv"
    emit_results(rows, path, FpgaRow)
    lines = path.read_text().splitlines()
    assert lines[0] == "family,dsp_gmacs,peak_gflops,latency_us"
    assert len(lines) == 5


def test_coverage_report_discrepancy_surfaced():
    r = coverage_report("scheme-a", 8.6, 3, reported_distance_ratio=1.70)
    assert r["density_ratio"] == pytest.approx(0.346, abs=2e-3)
    assert r["formula_distance_ratio"] == pytest.approx(1.935, abs=1e-3)
    assert "note" in r and "does not match" in r["note"]
    clean = coverage_report("scheme-b", 30 * math.log10(2), 3)
    assert clean["distance_ratio"] == pytest.approx(2.0)
    assert "note" not in clean
