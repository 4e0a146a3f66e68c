"""Single-device graph executor with a private variable store.

The Session owns variable state, not the graph: the distributed layers
create one logical store per worker replica (AR) or per server (PS), all
executing the *same* transformed graph.  Execution is compile-once /
execute-many: ``run`` builds a :class:`~repro.graph.executor.CompiledPlan`
per fetch set and replays it on subsequent calls.  Within a run, forward
activations computed for the loss are reused by the ``vjp`` gradient ops
(the value buffer plays the role the memo dict played in the seed
interpreter, which survives only as the test oracle
``tests/reference_interpreter.py``).  There is no second way to run a
graph.
"""

from __future__ import annotations

import re
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.executor import CompiledPlan, EdgeFn
from repro.graph.graph import Graph, Operation, Tensor

_REPLICA_PREFIX = re.compile(r"^rep(\d+)/")


def split_replica_prefix(name: str) -> Tuple[Optional[int], str]:
    """``"rep3/w" -> (3, "w")``; names without a true ``rep<k>/`` replica
    prefix (including e.g. ``"report/w"``) return ``(None, name)``."""
    match = _REPLICA_PREFIX.match(name)
    if match is None:
        return None, name
    return int(match.group(1)), name[match.end():]


def variable_rng(name: str, seed: int) -> np.random.Generator:
    """Deterministic per-variable generator, replica-prefix invariant.

    Seeding each variable from its *base* name (with any ``rep<k>/``
    replica prefix stripped) guarantees two properties the distributed
    engine depends on: every AllReduce replica of a variable starts from
    identical values, and a transformed graph starts from exactly the
    state a single-GPU run with the same seed would -- the basis of the
    bit-equivalence tests.
    """
    base = _REPLICA_PREFIX.sub("", name)
    return np.random.default_rng((seed, zlib.crc32(base.encode())))


class VariableStore:
    """Mutable mapping of variable name -> ndarray, seeded on first read.

    The store records the names routed to it and materializes nothing:
    :meth:`read` seeds a missing variable from
    :func:`variable_rng` ``(name, seed)``.  Each variable draws from its
    own generator, so the order of first reads cannot change a bit, and
    a store that never reads a variable never holds it -- a multiprocess
    worker seeds only its own replica and the shards it serves, and
    the controller nothing.
    :meth:`write` to a variable not yet read checks the shape against
    the graph's spec instead.
    """

    def __init__(self, graph: Graph, seed: int = 0,
                 names: Optional[Iterable[str]] = None):
        self.graph = graph
        self.seed = seed
        wanted = set(names) if names is not None else None
        # Ordered like the graph's variables, as names() lists them.
        self._routed = dict.fromkeys(name for name in graph.variables
                                     if wanted is None or name in wanted)
        self._values: Dict[str, np.ndarray] = {}

    def read(self, name: str) -> np.ndarray:
        try:
            return self._values[name]
        except KeyError:
            if name not in self._routed:
                raise KeyError(
                    f"variable {name!r} has no value in this store") from None
        value = self.graph.variables[name].initial_value(
            variable_rng(name, self.seed))
        self._values[name] = value
        return value

    def write(self, name: str, value: np.ndarray) -> None:
        if name not in self._routed:
            raise KeyError(f"variable {name!r} is not routed to this store")
        expected = self.graph.variables[name].shape
        value = np.asarray(value)
        if value.shape != expected:
            raise ValueError(
                f"assigning shape {value.shape} to variable {name!r} of shape "
                f"{expected}"
            )
        self._values[name] = value

    def names(self) -> List[str]:
        return list(self._routed)

    def snapshot(self) -> Dict[str, np.ndarray]:
        return {name: self.read(name).copy() for name in self._routed}

    def load(self, snapshot: Dict[str, np.ndarray]) -> None:
        for name, value in snapshot.items():
            self.write(name, value.copy())


Fetch = Union[Tensor, Operation, str]


class Session:
    """Executes fetches against a graph, holding variable state.

    A custom ``store`` may be injected so several sessions share state, or
    so a distributed runtime routes variable reads elsewhere.

    Compiled plans are kept per signature for the session's lifetime.
    The set is small by construction: a training session compiles one
    step plan (one per replica when asynchronous), and a serving engine
    one per request batch size; a rescale or a partition-search sample
    builds a fresh session.
    """

    def __init__(self, graph: Graph, seed: int = 0,
                 store: Optional[VariableStore] = None):
        self.graph = graph
        self.store = store if store is not None else VariableStore(graph, seed)
        # Scratch space cleared at the start of each run; kernels (e.g. the
        # shared-VJP cache) may stash per-run data here.
        self.run_cache: Dict[str, dict] = {}
        # Compile-once/execute-many: plans keyed by the fetch-name
        # signature, each validated against the graph version on reuse.
        self._plans: Dict[Tuple[str, ...], CompiledPlan] = {}

    # -- variable access used by kernels --------------------------------
    def read_variable(self, name: str) -> np.ndarray:
        return self.store.read(name)

    def write_variable(self, name: str, value: np.ndarray) -> None:
        self.store.write(name, value)

    # -- execution -------------------------------------------------------
    def _resolve(self, fetch: Fetch) -> Operation:
        if isinstance(fetch, Tensor):
            return fetch.op
        if isinstance(fetch, Operation):
            return fetch
        if isinstance(fetch, str):
            return self.graph.get_op(fetch)
        raise TypeError(f"cannot fetch {fetch!r}")

    def compile(self, fetches: Union[Fetch, Sequence[Fetch]]) -> CompiledPlan:
        """Compile (or return the cached plan for) a fetch set.

        ``run`` does this lazily; runners that know their step fetches up
        front call it once so every iteration is pure replay.
        """
        fetch_list = (list(fetches) if isinstance(fetches, (list, tuple))
                      else [fetches])
        return self._plan_for([self._resolve(f) for f in fetch_list])

    def cache_plan(self, key: Tuple[str, ...], build) -> CompiledPlan:
        """Fetch-or-build the session's compiled plan for *key*.

        *key* is any hashable signature: ``_plan_for`` uses the fetch-name
        tuple, and the serving plane appends the request batch size so
        each batch size warms its own straight-line replay state.  A hit
        is revalidated against the graph version and rebuilt through
        *build* when stale.
        """
        plan = self._plans.get(key)
        if plan is None or plan.version != self.graph.version:
            plan = self._plans[key] = build()
        return plan

    def _plan_for(self, targets: List[Operation]) -> CompiledPlan:
        def build() -> CompiledPlan:
            return CompiledPlan(self.graph, targets,
                                edge_fn=self._compile_edge_fn(),
                                specialize_fn=self._specialize_kernel)

        return self.cache_plan(tuple(op.name for op in targets), build)

    def run_plan(self, plan: CompiledPlan, feed_dict: Optional[dict] = None):
        """Replay a compiled plan; returns one value per fetch.

        Transparently recompiles (through the plan cache) if the graph
        changed since *plan* was built.
        """
        if plan.version != self.graph.version:
            plan = self._plan_for(
                [self.graph.get_op(name) for name in plan.fetch_names]
            )
        self._begin_run()
        return plan.execute(self, feed_dict)

    def run(self, fetches: Union[Fetch, Sequence[Fetch]],
            feed_dict: Optional[dict] = None):
        """Evaluate *fetches*; returns one value or a list matching input.

        Compiles a :class:`CompiledPlan` for the fetch set on first use and
        replays it thereafter (recompiling if the graph changed).
        ``feed_dict`` maps placeholder tensors (or names) to values; any op
        output may be overridden the same way, which the tests use to probe
        intermediate behaviour.
        """
        single = not isinstance(fetches, (list, tuple))
        fetch_list = [fetches] if single else list(fetches)
        targets = [self._resolve(f) for f in fetch_list]
        self._begin_run()
        results = self._plan_for(targets).execute(self, feed_dict)
        return results[0] if single else results

    # Subclass hooks -----------------------------------------------------
    _current_op: Optional[Operation] = None

    def _begin_run(self) -> None:
        """Called at the start of every run."""

    def _compile_edge_fn(self) -> Optional[EdgeFn]:
        """Static per-op transfer edges for compiled plans; distributed
        sessions override this so edge discovery happens at compile time,
        off the hot path."""
        return None

    def _specialize_kernel(self, op: Operation):
        """Session-specific compile-time kernel binding, or None for the
        op type's one registered kernel.  A multiprocess worker binds its
        rank plan's ports and muted collectives here."""
        return None
