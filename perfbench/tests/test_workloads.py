import pytest

import workloads


@pytest.mark.parametrize("name", list(workloads.WHY))
def test_same_seed_same_config(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


def test_cloud_changes_with_seed():
    assert workloads.cloud_points(1) != workloads.cloud_points(2)


def test_seed_reaches_experiment_only():
    a, b = workloads.generate("disc_preset", 1), workloads.generate("disc_preset", 2)
    assert a.config["experiment"].pop("seed") == 1
    assert b.config["experiment"].pop("seed") == 2
    assert a.config == b.config


def test_cloud_shape():
    pts = workloads.cloud_points(3)
    inner, circle = pts[: workloads.CLOUD_INNER], pts[workloads.CLOUD_INNER :]
    assert len(circle) == workloads.CLOUD_CIRCLE
    assert all(x * x + y * y <= workloads.CLOUD_INNER_RADIUS_SQ for x, y in inner)
    assert all(abs(x * x + y * y - 1.0) < 1e-12 for x, y in circle)


def test_unknown_workload():
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)
