"""The cold-start contract: ``import repro`` stays lean.

A fresh process that imports ``repro`` and runs an undecoded experiment
loads neither networkx nor scipy (nor ``numpy.ma``), and none of the
serving or sweep layers; scipy loads with the first matching decode and
networkx only on the kernels-off matching oracle.  What replaced a library
import at module level is pinned against that library here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.api.registry import CODES
from repro.experiments.runner import make_code

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules an undecoded run must not load.
NOT_LOADED = (
    "networkx",
    "scipy",
    "numpy.ma",
    "repro.realtime",
    "repro.sweeps",
    "repro.fabric",
    "repro.serve",
)

_PROBE = """
import json, sys
import repro
from repro import ExperimentConfig, Session

config = ExperimentConfig.from_dict({
    "code": {"name": "surface", "distance": 3},
    "policy": {"name": "gladiator+m"},
    "execution": {"shots": 8, "rounds": 2, "decoded": False},
})
Session(config).run()
loaded = sorted(name for name in %r if name in sys.modules)
unresolved = [name for name in repro.__all__ if getattr(repro, name, None) is None]
unlisted = [name for name in repro.__all__ if name not in dir(repro)]
print(json.dumps([loaded, unresolved, unlisted]))
""" % (NOT_LOADED,)


def test_undecoded_run_loads_no_heavy_module():
    """After ``import repro`` and an undecoded ``Session.run`` none of
    :data:`NOT_LOADED` is imported; then every name of ``repro.__all__``
    resolves (the lazy re-exports included) and is listed by ``dir``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    loaded, unresolved, unlisted = json.loads(completed.stdout.strip().splitlines()[-1])
    assert loaded == []
    assert unresolved == []
    assert unlisted == []


def test_union_find_decode_loads_no_scipy():
    """Union-find decodes from the graph's CSR: a decoded union-find run
    never builds the all-pairs tables, so scipy stays unloaded."""
    probe = """
import json, sys
from repro import ExperimentConfig, Session

config = ExperimentConfig.from_dict({
    "code": {"name": "surface", "distance": 3},
    "decoder": {"name": "union_find"},
    "execution": {"shots": 40, "rounds": 3, "decoded": True},
})
Session(config).run()
print(json.dumps(sorted(name for name in ("scipy", "networkx") if name in sys.modules)))
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(completed.stdout.strip().splitlines()[-1]) == []


def test_lazy_exports_are_the_layer_objects():
    import repro
    from repro.realtime import DecodeService
    from repro.sweeps import WorkUnit

    assert repro.DecodeService is DecodeService
    assert repro.WorkUnit is WorkUnit
    with pytest.raises(AttributeError):
        repro.NoSuchName  # noqa: B018


@pytest.mark.parametrize("family", sorted(CODES.names()))
def test_data_coloring_is_networkx_largest_first(family):
    """``data_coloring`` equals ``networkx.greedy_color(strategy=
    "largest_first")`` on the graph joining qubits that share a stabilizer
    (families without a distance knob build one code for both distances)."""
    for distance in (3, 5):
        code = make_code(family, distance)
        graph = nx.Graph()
        graph.add_nodes_from(range(code.num_data))
        for stab in code.stabilizers:
            support = stab.data_support
            graph.add_edges_from(
                (a, b) for i, a in enumerate(support) for b in support[i + 1 :]
            )
        expected = nx.greedy_color(graph, strategy="largest_first")
        assert code.data_coloring == [expected[q] for q in range(code.num_data)]
