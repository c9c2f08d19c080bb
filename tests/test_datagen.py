import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepcm import ConfigurationError, DataSet, make_fixture
from sparsepcm.datagen import (
    FIXTURE_NAMES,
    Component,
    MixtureSpec,
    generate,
    iris_path,
    load_csv,
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
    # noise alone needs its box, and has no class centers
    alone = generate(MixtureSpec(components=(), noise_count=4, noise_box=spec.noise_box))
    assert alone.truth_labels.tolist() == [0] * 4
    assert alone.truth_centers is None


def test_spec_round_trips_through_dict():
    spec = MixtureSpec(
        components=(
            Component(mean=(1.0, 2.0), covariance=((2.0, 0.1), (0.1, 1.0)), count=7),
        ),
        noise_count=3,
        noise_box=((0.0, 0.0), (1.0, 1.0)),
        seed=99,
    )
    # the JSON form the CLI reads generator specs in
    doc = {
        "components": [
            {"mean": [1.0, 2.0], "covariance": [[2.0, 0.1], [0.1, 1.0]], "count": 7},
        ],
        "noise_count": 3,
        "noise_box": [[0.0, 0.0], [1.0, 1.0]],
        "seed": 99,
    }
    back = MixtureSpec.from_dict(doc)
    assert back == spec
    np.testing.assert_array_equal(generate(back).points, generate(spec).points)


def test_empty_spec_rejected():
    with pytest.raises(ConfigurationError):
        generate(MixtureSpec(components=()))


_UNIT = Component(mean=(0.0, 0.0), covariance=((1.0, 0.0), (0.0, 1.0)), count=5)


@pytest.mark.parametrize(
    "spec,message",
    [
        (MixtureSpec(components=(Component((0.0, 0.0, 0.0), _UNIT.covariance, 5),)),
         "component 1"),
        (MixtureSpec(components=(_UNIT, Component((1.0,), ((1.0,),), 5))), "component 2"),
        (MixtureSpec(components=(_UNIT,), noise_count=3,
                     noise_box=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))), "noise_box"),
        (MixtureSpec(components=(Component("ab", _UNIT.covariance, 5),)),
         "component 1 mean"),
        (MixtureSpec(components=(Component((0.0, float("inf")), _UNIT.covariance, 5),)),
         "component 1 mean"),
        (MixtureSpec(components=(), noise_count=3, noise_box=((-1e308,), (1e308,))),
         "finite width"),
        (MixtureSpec(components=(), noise_count=3, noise_box=((1.0,), (0.0,))),
         "low <= high"),
        (MixtureSpec(components=(_UNIT,), noise_count=-2), "noise_count"),
        (MixtureSpec(components=(Component((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)), 5),)),
         "component 1 covariance is not positive definite"),
        (MixtureSpec(components=(_UNIT,), noise_count=1.0), "noise_count"),
        (MixtureSpec(components=(_UNIT,), seed=-3), "seed must be a nonnegative integer"),
        (MixtureSpec(components=(_UNIT,), seed=1.5), "seed"),
        (MixtureSpec(components=(_UNIT,), seed=True), "seed"),
        (MixtureSpec(components=(_UNIT, Component((1.0, 1.0), _UNIT.covariance, 2.5))),
         "component 2 count must be a nonnegative integer, got 2.5"),
        (MixtureSpec(components=(Component((0.0, 0.0), _UNIT.covariance, -1),)),
         "component 1 count"),
    ],
)
def test_generate_rejects_malformed_specs(spec, message):
    with pytest.raises(ConfigurationError, match=message):
        generate(spec)


# JSON values of every type, nested; integers include negatives
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


def _or_junk(strategy):
    """strategy's values seven times in eight, so that generate runs on a
    share of the documents, and any JSON value otherwise."""
    return st.integers(0, 7).flatmap(lambda i: _JUNK if i == 7 else strategy)


_VECTOR = st.lists(_or_junk(st.floats(-5.0, 5.0)), min_size=2, max_size=2)
_COMPONENT = st.fixed_dictionaries({
    "mean": _or_junk(_VECTOR),
    "covariance": _or_junk(st.floats(0.01, 4.0).map(lambda v: [[v, 0.0], [0.0, v]])),
    "count": _or_junk(st.integers(0, 20)),
})
_SPEC_DOC = _or_junk(st.fixed_dictionaries(
    {"components": _or_junk(st.lists(_or_junk(_COMPONENT), max_size=3))},
    optional={
        "noise_count": _or_junk(st.integers(0, 20)),
        "noise_box": _or_junk(st.lists(_VECTOR, min_size=2, max_size=2)),
        "seed": _or_junk(st.integers(0, 2**32)),
    },
))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_SPEC_DOC)
def test_spec_documents_give_a_dataset_or_configuration_error(doc):
    # warnings are errors under pytest, so a numpy warning fails here too
    try:
        data = generate(MixtureSpec.from_dict(doc))
    except ConfigurationError:
        return
    assert isinstance(data, DataSet)


def test_fixture_registry():
    assert "example1" in FIXTURE_NAMES
    assert "experiment2" in FIXTURE_NAMES
    assert "iris" in FIXTURE_NAMES
    with pytest.raises(ConfigurationError):
        make_fixture("no_such_fixture")
    # iris is the bundled table as the CSV reader parses it, whatever the seed
    table = load_csv(iris_path(), label_column="species")
    for seed in (0, 7):
        iris = make_fixture("iris", seed=seed)
        np.testing.assert_array_equal(iris.points, table.points)
        np.testing.assert_array_equal(iris.truth_labels, table.truth_labels)
        assert iris.truth_centers is None


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_make_fixture_rejects_a_malformed_seed(name, seed):
    # checked for every name, the ones that ignore the seed included
    with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
        make_fixture(name, seed=seed)


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
    data = make_fixture("experiment1", seed=0)
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
