import mpmath
import pytest


@pytest.fixture(autouse=True)
def global_mpmath_precision_is_untouched():
    """No test, and no library call it makes, may leave the process-wide
    mpmath precision changed."""
    prec = mpmath.mp.prec
    yield
    assert mpmath.mp.prec == prec
