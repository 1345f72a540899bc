"""Property-based differential tests: compact paths against the dict oracle.

Hypothesis generates small instances the hand-seeded loops of
``test_compact_cross_validation.py`` never draw — mixed-type node ids,
isolated nodes, several components, edgeless graphs — and each property
asserts bit-for-bit agreement between a compact kernel and the dict
reference, plus the paper's bound that governs the run:

* the phase solve (Theorem 5.1): compact and dict
  :func:`run_stable_orientation` give the same orientation, per-phase
  statistics, game and communication rounds, under every tie-break
  policy, within Lemma 5.5's 4(Δ+1)+4 phases;
* the proposal game (Theorem 4.1): the compact kernel's per-node
  outputs and :class:`~repro.local_model.metrics.ExecutionMetrics`
  (rounds, messages, halt rounds) equal the reference scheduler's.

Tier-1 runs the small ``differential-tier1`` profile.  Set
``REPRO_DIFFERENTIAL_PROFILE=differential-large`` for a long search.  A
shrunk counterexample becomes an explicit ``@example`` here.
"""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.orientation import OrientationProblem, run_stable_orientation
from repro.core.token_dropping import TIE_BREAK_POLICIES, TokenDroppingInstance
from repro.core.token_dropping.proposal import proposal_factory
from repro.graphs.layered import LayeredGraph
from repro.local_model import Runner

pytestmark = pytest.mark.integration

settings.register_profile(
    "differential-tier1",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "differential-large",
    max_examples=2000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PROFILE = settings.get_profile(
    os.environ.get("REPRO_DIFFERENTIAL_PROFILE", "differential-tier1")
)

#: Node ids of several types whose ``repr`` orders interleave.  Floats
#: are kept off the integers (``1 == 1.0`` would merge two ids).
NODE_IDS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.integers(min_value=-3, max_value=3).map(lambda x: x + 0.5),
    st.text(alphabet="ab7", min_size=1, max_size=3),
    st.tuples(st.sampled_from(["srv", "x"]), st.integers(min_value=0, max_value=3)),
)


@st.composite
def orientation_problems(draw, max_nodes: int = 12) -> OrientationProblem:
    """A graph of up to three components, with isolated nodes allowed."""
    nodes = draw(st.lists(NODE_IDS, max_size=max_nodes, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, len(nodes)), max_size=2)))
    edges = []
    for lo, hi in zip([0, *cuts], [*cuts, len(nodes)]):
        pairs = list(itertools.combinations(nodes[lo:hi], 2))
        if pairs:
            edges += draw(st.lists(st.sampled_from(pairs), unique=True))
    return OrientationProblem(edges, nodes=nodes)


@st.composite
def token_games(draw) -> TokenDroppingInstance:
    """A layered game of up to four levels with tokens on any subset."""
    nodes = draw(st.lists(NODE_IDS, min_size=1, max_size=12, unique=True))
    num_levels = draw(st.integers(min_value=1, max_value=4))
    levels = {
        node: draw(st.integers(min_value=0, max_value=num_levels - 1))
        for node in nodes
    }
    pairs = [
        (child, parent)
        for child in nodes
        for parent in nodes
        if levels[parent] == levels[child] + 1
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    tokens = draw(st.sets(st.sampled_from(nodes)))
    return TokenDroppingInstance(LayeredGraph(levels=levels, edges=edges), tokens)


@PROFILE
@given(
    problem=orientation_problems(),
    tie_break=st.sampled_from(TIE_BREAK_POLICIES),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(problem=OrientationProblem([], nodes=[]), tie_break="min", seed=0)
@example(problem=OrientationProblem([], nodes=["a", 2, 0.5]), tie_break="max", seed=0)
def test_compact_phase_solve_equals_dict(problem, tie_break, seed):
    ref = run_stable_orientation(
        problem, tie_break=tie_break, seed=seed, backend="dict"
    )
    fast = run_stable_orientation(
        problem, tie_break=tie_break, seed=seed, backend="compact"
    )
    assert fast.orientation.oriented_edges() == ref.orientation.oriented_edges()
    assert fast.orientation.loads() == ref.orientation.loads()
    assert fast.per_phase == ref.per_phase
    assert (fast.phases, fast.game_rounds, fast.communication_rounds) == (
        ref.phases,
        ref.game_rounds,
        ref.communication_rounds,
    )
    # Lemma 5.5: at most 4(Δ+1)+4 phases.
    assert fast.phases <= 4 * (problem.max_degree() + 1) + 4
    assert fast.stable


@PROFILE
@given(
    instance=token_games(),
    tie_break=st.sampled_from(TIE_BREAK_POLICIES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_compact_proposal_kernel_equals_reference_scheduler(
    instance, tie_break, seed
):
    network = instance.to_network()
    budget = 3 * instance.theoretical_round_bound()
    ref = Runner(
        network, proposal_factory(tie_break, seed), max_rounds=budget, backend="dict"
    ).run()
    fast = Runner(
        network,
        proposal_factory(tie_break, seed),
        max_rounds=budget,
        backend="compact",
    ).run()
    assert fast.outputs == ref.outputs
    assert fast.metrics == ref.metrics
