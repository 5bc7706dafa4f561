import math

import numpy as np
import pytest

from vtdis.schedule import TimeGrid, karras_grid


def test_karras_rho_one_is_linear():
    g = karras_grid(2, 1.0, 3.0, rho=1.0)
    assert np.allclose(g.times, [1.0, 2.0, 3.0], atol=1e-12)


def geometric_times(n_steps, eps, t_max):
    """t_n = eps (T/eps)^(n/N): constant ratio between consecutive times."""
    return eps * (t_max / eps) ** (np.arange(n_steps + 1) / n_steps)


def test_karras_large_rho_approaches_geometric():
    k = karras_grid(24, 1e-3, 100.0, rho=1e6)
    g = geometric_times(24, 1e-3, 100.0)
    assert np.max(np.abs(k.times / g - 1.0)) < 1e-3


@pytest.mark.parametrize("rho", [0.5, 1.0, 3.0, 7.0, 100.0])
def test_karras_endpoints_exact(rho):
    g = karras_grid(13, 2e-3, 80.0, rho=rho)
    assert g.times[0] == 2e-3 and g.times[-1] == 80.0
    assert np.all(np.diff(g.times) > 0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        karras_grid(4, 2.0, 1.0, rho=7.0)
    with pytest.raises(ValueError):
        karras_grid(0, 0.1, 1.0, rho=7.0)
    with pytest.raises(ValueError):
        karras_grid(4, 0.1, 1.0, rho=-1.0)
    with pytest.raises(ValueError, match="n_steps"):
        karras_grid(2.5, 0.1, 1.0, rho=7.0)     # not a 3-step grid
    with pytest.raises(ValueError, match="inf"):
        karras_grid(4, 1e-3, np.inf, rho=7.0)   # not a NaN warning
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0]))       # eps must be positive
    with pytest.raises(ValueError):
        TimeGrid(np.array([1.0, 1.0, 2.0]))  # strict monotonicity
    # NaN passes every comparison above, and an infinite t_max gives
    # NaN step variances with a RuntimeWarning
    for times in ([np.nan, 1.0], [0.1, np.nan], [0.1, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(np.array(times))


@pytest.mark.parametrize("make", [
    lambda: TimeGrid(geometric_times(20, 1e-3, 100.0)),
    lambda: karras_grid(20, 1e-3, 100.0, rho=7.0),
])
def test_derived_variances(make):
    g = make()
    fv, dv = g.forward_vars, g.ddpm_vars
    assert fv.shape == dv.shape == g.mean_ratios.shape == (g.n_steps,)
    assert np.all(fv > 0) and np.all(dv > 0)
    assert np.all(dv < fv)   # the posterior shrinks the forward kernel
    total = math.fsum(fv)
    want = g.t_max ** 2 - g.eps ** 2
    assert abs(total - want) < 1e-14 * abs(want)


@pytest.mark.parametrize("make", [
    lambda: TimeGrid(np.array([0.5, 1.0, 1.5, 4.0])),
    lambda: karras_grid(16, 1e-3, 80.0, rho=7.0),
])
def test_step_arrays_match_the_closed_forms(make):
    # step n sits at index n - 1, each value from the scalar formula
    g = make()
    t = [float(v) for v in g.times]
    for n in range(1, g.n_steps + 1):
        tp, tn = t[n - 1], t[n]
        assert g.forward_vars[n - 1] == tn ** 2 - tp ** 2
        assert g.ddpm_vars[n - 1] == tp * tp * (tn * tn - tp * tp) / (tn * tn)
        assert g.mean_ratios[n - 1] == tp ** 2 / tn ** 2


def test_posterior_variance_value():
    # t_{n-1} = 1, t_n = 2: 1 * 3 / 4
    g = TimeGrid(np.array([1.0, 2.0]))
    assert g.ddpm_vars[0] == pytest.approx(0.75, abs=1e-15)
    assert g.forward_vars[0] == pytest.approx(3.0, abs=1e-15)
    assert g.mean_ratios[0] == 0.25


def test_step_arrays_are_read_only():
    g = karras_grid(5, 0.1, 10.0, rho=7.0)
    for values in (g.forward_vars, g.ddpm_vars, g.mean_ratios):
        with pytest.raises(ValueError):
            values[0] = 1.0


def test_times_are_a_read_only_copy():
    # the per-step arrays are computed once from the times, so a grid
    # that kept the caller's array would go stale when it changed
    t = np.array([1.0, 2.0, 4.0])
    g = TimeGrid(t)
    t[1] = 1.5
    assert list(g.times) == [1.0, 2.0, 4.0]
    assert g.mean_ratios[0] == 0.25
    with pytest.raises(ValueError):
        g.times[1] = 1.5


def test_to_dict_names_the_grid_family():
    assert karras_grid(32, 1e-3, 10.0, 7.0).to_dict() == {
        "kind": "karras", "steps": 32, "eps": 0.001, "t_max": 10.0,
        "rho": 7.0}
    assert TimeGrid(np.array([0.5, 1.0, 4.0])).to_dict() == {
        "kind": "custom", "steps": 2, "eps": 0.5, "t_max": 4.0}
