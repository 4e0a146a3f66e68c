"""repro: a full reproduction of Parallax (EuroSys 2019).

Sparsity-aware data-parallel training of deep neural networks: a hybrid
Parameter-Server / AllReduce architecture, automatic sparse-variable
partitioning, and transparent single-GPU-to-distributed graph
transformation -- plus every substrate the paper depends on (dataflow
graph framework with sparse autodiff, collectives, PS runtime, cluster /
network simulator, model zoo, and the TF-PS / Horovod baselines).

Quick start (the paper's Figure 3 shape)::

    import repro as parallax

    def builder():
        model = build_my_model()          # single-GPU graph, uses
        return model                      # parallax.partitioner() inside

    runner = parallax.get_runner(builder, {"machines": 2,
                                           "gpus_per_machine": 2})
    runner.run(num_iters)                 # or runner.step(i) per step

Knobs group by plane -- :class:`CommConfig` (fusion bucket cap,
backend, transport), :class:`ElasticConfig` (checkpointing, faults) and
:class:`ServeConfig` (request batching) -- inside one
:class:`ParallaxConfig`.
"""

from repro.cluster.faults import FaultPlan, WorkerFailure
from repro.cluster.spec import ClusterSpec
from repro.core.api import (
    get_runner,
    make_server,
    shard,
)
from repro.core.config import (
    CommConfig,
    ElasticConfig,
    ParallaxConfig,
    ServeConfig,
)
from repro.core.elastic import ElasticRunner
from repro.core.partition_context import partitioner
from repro.core.runner import DistributedRunner
from repro.serve import InferenceServer

__version__ = "1.1.0"

__all__ = [
    "ParallaxConfig",
    "CommConfig",
    "ElasticConfig",
    "ServeConfig",
    "get_runner",
    "make_server",
    "shard",
    "partitioner",
    "DistributedRunner",
    "ElasticRunner",
    "InferenceServer",
    "FaultPlan",
    "WorkerFailure",
    "ClusterSpec",
    "__version__",
]
