import pytest

from fbclab import autodiff as ad


@pytest.fixture
def float64():
    """Tensors in double precision for the test: finite differences and
    references held to 1e-12 need it, where the codec runs in float32."""
    with ad.float64():
        yield
