"""Every public entry point on an automaton with no states.

A 0-state automaton computes the zero function.  Its answers come from the
general code paths: the product levels, span closures and certificates of
empty stacks.
"""

import numpy as np
import pytest

from wfametrics import (
    Wfa,
    admissible_gamma_bound,
    basis_is_complete,
    compute_tail_params,
    difference,
    distance,
    distance_upper_bound,
    evaluate,
    hankel_from_wfa,
    hausdorff_distance,
    is_irreducible,
    is_observable,
    is_reachable,
    jsr_bounds,
    largest_bisimulation,
    minimize,
    parameter_continuity_experiment,
    perturbation_experiment,
    reachable_subspace,
    reverse,
    save_wfa,
    seminorm_interval,
    states_bisimilar,
    truncated_seminorm,
    wfa_irreducible,
    wfa_spectral_radius,
)
from wfametrics.cli import main
from wfametrics.jsr import extend_products
from wfametrics.metric import _certificates, balance_scaling


@pytest.fixture
def empty():
    return Wfa(alphabet=("a", "b"), alpha=np.zeros(0), beta=np.zeros(0),
               trans={"a": np.zeros((0, 0)), "b": np.zeros((0, 0))})


def test_extend_products_of_empty_stacks():
    gens = np.zeros((3, 0, 0))
    assert extend_products(gens, np.zeros((2, 0, 0))).shape == (6, 0, 0)
    assert extend_products(gens, np.zeros((1, 0, 1))).shape == (3, 0, 1)
    assert extend_products(np.ones((2, 4, 4)), np.zeros((0, 4, 4))).shape == (0, 4, 4)


def test_automaton_operations(empty):
    assert evaluate(empty, "ab") == 0.0
    assert reverse(empty).dim == 0
    assert difference(empty, empty).dim == 0


def test_bisimulation_and_reachability(empty):
    reach = reachable_subspace(empty)
    assert reach.dim == 0 and reach.basis.shape == (0, 0)
    assert largest_bisimulation(empty).basis.shape == (0, 0)
    assert is_observable(empty) and is_reachable(empty)
    assert minimize(empty).dim == 0
    assert states_bisimilar(empty, np.zeros(0), np.zeros(0))


def test_matrix_families(empty):
    stack = empty.trans_stack()
    b = jsr_bounds(stack, 3)
    assert (b.lower, b.upper, b.witness, b.truncated) == (0.0, 0.0, (), False)
    assert wfa_spectral_radius(empty, 3).upper == 0.0
    assert is_irreducible(stack) is False
    assert wfa_irreducible(empty) is False
    assert hausdorff_distance(stack, stack[:1]) == 0.0
    assert balance_scaling(stack).shape == (0, 0)


def test_certificates(empty):
    first = next(_certificates(empty.trans_stack(), 3))
    assert (first.theta, first.block_len, first.step_norm) == (0.0, 1, 1.0)
    assert first.scaling.shape == (0, 0)
    assert all(p.theta == 0.0 for p in _certificates(empty.trans_stack(), 3))
    params = compute_tail_params(empty, 0.9)
    assert (params.theta, params.block_len, params.step_norm) == (0.0, 1, 1.0)
    assert admissible_gamma_bound(empty) == np.inf


def test_metrics(empty):
    for iv in (seminorm_interval(empty, np.zeros(0), 0.9), distance(empty, empty, 0.9)):
        assert (iv.lower, iv.upper, iv.nodes_expanded, iv.converged) == (0.0, 0.0, 0, True)
    assert distance_upper_bound(empty, empty, 0.9) == 0.0
    assert truncated_seminorm(empty, np.zeros(0), 0.9, 4) == 0.0
    assert parameter_continuity_experiment(empty, [0.0, 0.1], 0.9) == [(0.0, 0.0, 0.0, 0.0), (0.1, 0.0, 0.0, 0.0)]


def test_learning(empty):
    block = hankel_from_wfa(empty, [(), ("a",)], [()])
    np.testing.assert_array_equal(block.h, np.zeros((2, 1)))
    assert basis_is_complete(empty, block)
    with pytest.raises(ValueError, match="zero function"):
        perturbation_experiment(empty, [()], [()], [0.1], 0.9)


def test_cli(empty, tmp_path, capsys):
    path = str(tmp_path / "empty.json")
    save_wfa(empty, path)
    assert main(["irreducible", path]) == 0
    assert capsys.readouterr().out == "false\n"
    assert main(["minimize", path, "-o", str(tmp_path / "min.json")]) == 0
    assert capsys.readouterr().out == "dim 0\n"
