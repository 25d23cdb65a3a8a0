"""The per-class parameter table."""

import pytest

from probfusion.classes import CLASSES

from conftest import make_box


def test_every_label_has_every_column():
    assert set(CLASSES) == {"car", "pedestrian", "escooter_rider", "other"}
    for label, row in CLASSES.items():
        make_box(class_label=label)
        assert row.granularity_m > 0
        assert row.tolerance_length_m > 0
        assert len(row.size_m) == 2 and min(row.size_m) > 0
        assert row.ground_clearance_m >= 0
    with pytest.raises(ValueError):
        make_box(class_label="truck")
