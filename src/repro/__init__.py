"""SympleGraph reproduction: distributed graph processing with a
precise loop-carried dependency guarantee (Zhuo et al., PLDI 2020),
executed on a simulated cluster with exact computation/communication
accounting and a calibrated timing model.

Quickstart::

    from repro import Session, RunConfig, rmat

    graph = rmat(scale=12, edge_factor=16, seed=7)
    with Session(graph) as session:
        result = session.run(RunConfig(engine="symple", algorithm="bfs",
                                       machines=16))
    print(result.simulated_time, result.digest())

The top level holds the quickstart's names only; everything else is
imported from its subpackage (``repro.engine.make_engine`` builds an
engine for driving phases by hand, ``repro.algorithms`` holds the
algorithms, ``repro.analysis`` the UDF analyzer).
"""

from repro.api import RunConfig, Session
from repro.graph import rmat

__version__ = "1.0.0"

__all__ = ["RunConfig", "Session", "rmat"]
