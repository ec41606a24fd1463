"""Fixtures shared by the test modules."""

from contextlib import contextmanager

import pytest

from vertexflow import qmoments


@pytest.fixture
def scaled_contours():
    """``with scaled_contours(s):`` deforms the contours of the moment formulas: every
    ``qmoments.pairing_values`` call inside runs on its family with each radius times s
    (``ContourFamily.scaled``).  Theorems 6.1, 8.1, 8.5 and 9.2 reach that function.
    Pass an explicit node count, since a call without one starts at the count of the
    family before scaling.  A block that makes no such call fails, so a deformation
    check cannot pass without deforming anything."""

    @contextmanager
    def scaled(factor):
        calls = []
        pairing_values = qmoments.pairing_values

        def deformed(fam, *args, **kwargs):
            calls.append(fam)
            return pairing_values(fam.scaled(factor), *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qmoments, "pairing_values", deformed)
            yield
        assert calls, "no pairing_values call to deform"

    return scaled
