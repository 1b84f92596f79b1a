"""Fixtures shared by several test modules."""

import pytest

from symquant import SymplecticForm, phasespace


@pytest.fixture
def form_work(monkeypatch):
    """Counts of exact inverses and SymplecticForm constructions during a test."""
    counts = {"invert_exact": 0, "form_init": 0}
    invert, init = phasespace._invert_exact, SymplecticForm.__init__

    def counting_invert(mat):
        counts["invert_exact"] += 1
        return invert(mat)

    def counting_init(self, upper):
        counts["form_init"] += 1
        init(self, upper)

    monkeypatch.setattr(phasespace, "_invert_exact", counting_invert)
    monkeypatch.setattr(SymplecticForm, "__init__", counting_init)
    return counts
