"""CoIC — a reproduction of "Immersion on the Edge" (SIGCOMM'18).

A cooperative edge-caching framework for mobile immersive computing,
rebuilt as a deterministic discrete-event simulation.  The top-level
package re-exports the pieces a typical experiment touches; see the
subpackages for the full API:

* :mod:`repro.sim` — discrete-event kernel
* :mod:`repro.net` — links, shaping, routing, RPC, access models
* :mod:`repro.vision` — frames, DNN compute model, embeddings
* :mod:`repro.render` — meshes, loader, renderer, panoramas
* :mod:`repro.core` — the CoIC framework itself
* :mod:`repro.workload` — trace generators
* :mod:`repro.eval` — statistics, tables, experiments
"""

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import ScenarioSpec

__version__ = "1.0.0"

__all__ = ["ClusterDeployment", "CoICConfig", "ScenarioSpec", "__version__"]
