"""Fixtures shared by the test modules."""

import pytest

from plytamper.clt import MaterialProperties


@pytest.fixture(scope="module")
def graphite_epoxy():
    """Unidirectional graphite/epoxy lamina used throughout the suite."""
    return MaterialProperties(
        e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
        sigma1t_ult=1500e6, sigma1c_ult=1500e6,
        sigma2t_ult=40e6, sigma2c_ult=246e6, tau12_ult=68e6,
    )
