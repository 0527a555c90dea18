import numpy as np
import pytest
from scipy.signal import find_peaks

from lambda_mixer.model import EitMedium, RamanAbsorber


@pytest.fixture
def sec5_eit() -> EitMedium:
    return EitMedium(gamma_ge=300.0, gamma_gs=0.064, delta_control=3036.0, omega_c=50.0, depth=15.0)


@pytest.fixture
def sec5_absorber() -> RamanAbsorber:
    return RamanAbsorber(
        omega_a=100.0,
        delta_2=14700.0,
        gamma_ab=300.0,
        gamma_ac=300.0,
        gamma_cb=0.064,
        depth_2l=85.0,
    )


@pytest.fixture
def count_peaks():
    """Counts the local maxima of a sweep's probe curve above a relative prominence floor."""

    def count(records, rel_prominence=1e-3):
        p = np.array([r.probe_transmission for r in records])
        peaks, _ = find_peaks(p, prominence=rel_prominence * float(p.max()))
        return int(peaks.size)

    return count
