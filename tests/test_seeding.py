"""Derived streams: exact replay, independence of distinct tag paths, the
bit generator behind them, the normals they draw, and an end-to-end log Z
oracle on the streams the benchmark's gmm10 sampler uses."""

import re

import numpy as np
import pytest
from scipy.stats import kstest

from vtdis import denoisers as dn
from vtdis import diffusion as df
from vtdis import gaussians as ga
from vtdis import metrics as mt
from vtdis import targets as tg
from vtdis.schedule import karras_grid
from vtdis.seeding import derive_rng


def draws(rng) -> np.ndarray:
    """Normals, uniforms and integers, each of which a stage may draw."""
    return np.concatenate([rng.standard_normal(64), rng.random(64),
                           rng.integers(0, 2 ** 32, 64)])


def test_same_seed_and_tags_replay_bit_for_bit():
    a = draws(derive_rng(3, "gmm10", "sample", 7))
    b = draws(derive_rng(3, "gmm10", "sample", 7))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("other", [
    (4, "gmm10", "sample"),          # another seed
    (3, "gmm10", "tune"),            # another tag
    (3, "sample", "gmm10"),          # the same tags in another order
    (3, "gmm10"),                    # a prefix of the path
], ids=["seed", "tag", "order", "prefix"])
def test_distinct_paths_give_distinct_streams(other):
    base = draws(derive_rng(3, "gmm10", "sample"))
    assert not np.any(base == draws(derive_rng(*other)))


def test_int_and_str_tags_are_accepted():
    for tags in [(0,), ("traj",), ("traj", 0), (2 ** 40, "x", 5)]:
        assert np.isfinite(derive_rng(1, *tags).standard_normal())
    assert not np.array_equal(draws(derive_rng(1, "traj", 0)),
                              draws(derive_rng(1, "traj", 1)))


def test_numpy_integer_tags_give_the_stream_of_their_value():
    # np.int64(3) raised AttributeError: it has no ``encode``
    want = draws(derive_rng(1, "traj", 3))
    for tag in [np.int64(3), np.int32(3), np.uint8(3), np.uint64(3)]:
        assert np.array_equal(draws(derive_rng(1, "traj", tag)), want)


@pytest.mark.parametrize("tags,want", [
    (("gmm10", "sample"), [9342270150101468078, 16392733867311416582]),
    (("traj", 3), [2404026234101727747, 13647691566180953445]),
    ((2 ** 40, "x", 5), [8404981165761550272, 14090964568173309504]),
    ((), [809084925512801999, 10833299150080686779]),
], ids=["str", "str-int", "large-int", "none"])
def test_str_and_int_tag_streams_are_pinned(tags, want):
    # the first raw outputs of seed 7's streams; a change to how a tag is
    # hashed moves every seeded figure
    raw = derive_rng(7, *tags).bit_generator.random_raw(2)
    assert [int(r) for r in raw] == want


@pytest.mark.parametrize("tag", [3.0, 1.5, True, np.bool_(False), -1,
                                 np.int64(-2), None, b"traj", ("a",)],
                         ids=["float", "fraction", "bool", "numpy-bool",
                              "negative", "numpy-negative", "none", "bytes",
                              "tuple"])
def test_a_tag_must_be_a_str_or_an_integer_of_at_least_zero(tag):
    # True replayed tag 1, and -1 failed in numpy without naming the tag
    with pytest.raises(ValueError, match=re.escape(
            f"a tag that is not a str must be an integer >= 0, "
            f"got {tag!r}")):
        derive_rng(0, "gmm10", tag)


@pytest.mark.parametrize("seed", [1.5, -1, True, "1"])
def test_a_seed_must_be_an_integer_of_at_least_zero(seed):
    # int(1.5) replayed the stream of seed 1 bit for bit
    with pytest.raises(ValueError, match=re.escape(
            f"root_seed must be an integer >= 0, got {seed!r}")):
        derive_rng(seed, "a")


def test_streams_are_sfc64():
    # chosen for the speed of its normal draws; a silent revert to
    # another bit generator changes every seeded figure
    assert isinstance(derive_rng(0, "gmm10").bit_generator, np.random.SFC64)


def test_derived_normals_are_standard():
    n = 10 ** 5
    z = derive_rng(0, "gmm10", "sample").standard_normal(n)
    assert abs(np.mean(z)) < 5.0 / np.sqrt(n)
    # the sample variance of n normals has standard error sqrt(2 / (n - 1))
    assert abs(np.var(z, ddof=1) - 1.0) < 5.0 * np.sqrt(2.0 / (n - 1))
    assert kstest(z, "norm").pvalue > 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gmm10_log_z_on_the_benchmark_stream(seed):
    """|log Z-hat| <= 4 delta-method SE (Z = 1) for the untuned posterior
    variance proposal, on the stream of the benchmark's gmm10 sample stage.

    The grid ends at eps = 0.3: at the benchmark's eps = 1e-3 this proposal
    keeps a reverse ESS near 0.001 at 2048 samples, and log Z-hat lies
    11-40 SE low (Jensen), so the check would say nothing of the stream.
    Here the ESS is 0.15-0.26, and normals scaled by 0.97 or 1.05 put
    log Z-hat 5-9 SE off at each of these seeds."""
    gmm = tg.two_mode_gmm(10)
    grid = karras_grid(16, 0.3, 10.0, 7.0)
    proposal = (ga.IsotropicParams(gmm.dim), grid.ddpm_vars[:, None])
    x0, log_q, log_p = df.reverse_sample_batch(
        derive_rng(seed, "gmm10", "sample"), dn.AnalyticGmmScore(gmm),
        proposal, grid, 2048)
    log_w = gmm.log_density(x0) + log_q - log_p
    w = np.exp(log_w - np.max(log_w))
    se = np.std(w, ddof=1) / (np.sqrt(w.size) * np.mean(w))
    assert mt.reverse_ess(log_w) > 0.1
    assert abs(mt.estimate_log_Z(log_w)) <= 4.0 * se
