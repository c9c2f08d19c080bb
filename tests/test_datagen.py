import numpy as np
import pytest

from sparsepcm import ConfigurationError, make_fixture
from sparsepcm.datagen import (
    FIXTURE_NAMES,
    Component,
    MixtureSpec,
    experiment1_fixture,
    generate,
)


def test_generate_counts_and_labels():
    spec = MixtureSpec(
        components=(
            Component(mean=(0.0, 0.0), covariance=((1.0, 0.0), (0.0, 1.0)), count=30),
            Component(mean=(9.0, 9.0), covariance=((1.0, 0.0), (0.0, 1.0)), count=20),
        ),
        noise_count=10,
        seed=4,
    )
    data = generate(spec)
    assert data.n_points == 60
    counts = np.bincount(data.truth_labels, minlength=3)
    assert counts.tolist() == [10, 30, 20]
    assert data.truth_centers.shape == (2, 2)
    np.testing.assert_allclose(data.truth_centers[1], [9.0, 9.0])


def test_generate_is_seed_deterministic():
    spec = MixtureSpec(
        components=(
            Component(mean=(0.0,), covariance=((1.0,),), count=25),
        ),
        seed=11,
    )
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.points, b.points)
    c = generate(MixtureSpec(components=spec.components, seed=12))
    assert not np.array_equal(a.points, c.points)


def test_noise_respects_explicit_box():
    spec = MixtureSpec(
        components=(
            Component(mean=(0.0, 0.0), covariance=((0.01, 0.0), (0.0, 0.01)), count=5),
        ),
        noise_count=200,
        noise_box=((-1.0, 2.0), (0.0, 3.0)),
        seed=0,
    )
    data = generate(spec)
    noise = data.points[data.truth_labels == 0]
    assert noise.shape == (200, 2)
    assert noise[:, 0].min() >= -1.0 and noise[:, 0].max() <= 0.0
    assert noise[:, 1].min() >= 2.0 and noise[:, 1].max() <= 3.0


def test_spec_round_trips_through_dict():
    spec = MixtureSpec(
        components=(
            Component(mean=(1.0, 2.0), covariance=((2.0, 0.1), (0.1, 1.0)), count=7),
        ),
        noise_count=3,
        noise_box=((0.0, 0.0), (1.0, 1.0)),
        seed=99,
    )
    back = MixtureSpec.from_dict(spec.to_dict())
    assert back == spec
    np.testing.assert_array_equal(generate(back).points, generate(spec).points)


def test_empty_spec_rejected():
    with pytest.raises(ConfigurationError):
        generate(MixtureSpec(components=()))


def test_fixture_registry():
    assert "example1" in FIXTURE_NAMES
    assert "experiment2" in FIXTURE_NAMES
    with pytest.raises(ConfigurationError):
        make_fixture("no_such_fixture")


@pytest.mark.parametrize(
    "name,total,sizes",
    [
        ("example1", 3000, (2000, 1000)),
        ("example2", 3000, (2000, 1000)),
        ("example3", 2500, (2000, 500)),
        ("example4", 2500, (2000, 500)),
        ("experiment2", 5300, (200, 100, 5000)),
    ],
)
def test_benchmark_fixture_shapes(name, total, sizes):
    data = make_fixture(name, seed=0)
    assert data.n_points == total
    counts = np.bincount(data.truth_labels)[1:]
    assert tuple(counts.tolist()) == sizes
    assert data.truth_centers.shape[0] == len(sizes)


def test_experiment3_adds_noise():
    data = make_fixture("experiment3", seed=1)
    assert data.n_points == 5350
    assert int((data.truth_labels == 0).sum()) == 50
    # noise is drawn inside the clean draw's bounding box
    clean = data.points[data.truth_labels > 0]
    noise = data.points[data.truth_labels == 0]
    assert (noise.min(axis=0) >= clean.min(axis=0) - 1e-9).all()
    assert (noise.max(axis=0) <= clean.max(axis=0) + 1e-9).all()


def test_seventeen_point_set_is_fixed():
    data = experiment1_fixture()
    assert data.n_points == 17
    assert data.n_features == 2
    again = make_fixture("experiment1", seed=123)  # seed has no effect here
    np.testing.assert_array_equal(data.points, again.points)
    # two groups: twelve points around (1.75, 2.75), five around (4.25, 2.75)
    left = data.points[data.truth_labels == 1]
    right = data.points[data.truth_labels == 2]
    assert left.shape[0] == 12 and right.shape[0] == 5
    np.testing.assert_allclose(left.mean(axis=0), [1.75, 2.75], atol=0.01)
    np.testing.assert_allclose(right.mean(axis=0)[1], 2.75, atol=0.01)


def test_two_blob_fixtures_share_geometry():
    e1 = make_fixture("example1", seed=3)
    e2 = make_fixture("example2", seed=3)
    np.testing.assert_allclose(e1.truth_centers[0], [0.0, 0.0])
    np.testing.assert_allclose(e1.truth_centers[1], [1.5, 1.5])
    np.testing.assert_allclose(e2.truth_centers[1], [2.0, 2.0])
