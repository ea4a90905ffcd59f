import pytest

from atlas.padic import PadicScalar


@pytest.fixture
def forbid_capped(monkeypatch):
    """Make every constructor of a capped scalar fail for the whole test."""
    def capped(*args, **kwargs):
        raise AssertionError("capped arithmetic reached")

    monkeypatch.setattr(PadicScalar, "zero_at", classmethod(capped))
    monkeypatch.setattr(PadicScalar, "from_rational_absprec", classmethod(capped))
    monkeypatch.setattr(PadicScalar, "to_capped", capped)
