"""Fixtures shared by several test modules."""

import pytest

from symquant import SymplecticForm, phasespace


@pytest.fixture
def form_work(monkeypatch):
    """Counts of exact inverses and SymplecticForm constructions during a test.

    Every constructor, the public one and the one `complete_pair` uses, stores
    its matrices through `SymplecticForm._store`, so that is what is counted.
    """
    counts = {"invert_exact": 0, "form_init": 0}
    invert, store = phasespace._invert_exact, SymplecticForm._store

    def counting_invert(mat):
        counts["invert_exact"] += 1
        return invert(mat)

    def counting_store(self, upper, lower):
        counts["form_init"] += 1
        store(self, upper, lower)

    monkeypatch.setattr(phasespace, "_invert_exact", counting_invert)
    monkeypatch.setattr(SymplecticForm, "_store", counting_store)
    return counts
