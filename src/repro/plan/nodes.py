"""The typed physical-plan IR: every layer speaks :class:`PlanNode` trees.

The paper's MapD integration works because top-k is a first-class *plan
operator* the database can compose, cost, and swap (Section 8).  This
module is our equivalent: a small algebra of immutable plan nodes —

* :class:`Scan`       — produce the input rows (table scan or raw vector);
* :class:`Stream`     — an unbounded chunked source with window/decay
  annotations (the continuous-query analogue of Scan);
* :class:`Filter`     — a WHERE predicate over a child's rows;
* :class:`TopK`       — exact top-k selection with a chosen kernel;
* :class:`ApproxTopK` — the bucketed approximate operator with its full
  :class:`~repro.approx.config.ApproxConfig` identity and analytic recall;
* :class:`Batch`      — a fused cross-query launch compatibility group;
* :class:`Fallback`   — ordered alternatives a resilient executor degrades
  through (cheapest first, the last child must always succeed);
* :class:`Merge`      — exact merge of partial/candidate results.

Every node has a stable :meth:`~PlanNode.fingerprint` (a digest of the
node's *identity* — what it computes, never what it is predicted to cost),
cost annotations (``predicted_seconds``), a :meth:`~PlanNode.to_dict` for
EXPLAIN/tracing/external tooling, and a :meth:`~PlanNode.render` ascii
tree.  Fingerprints are the currency of the serving layer: the plan cache
keys bound plans on them and the cross-query batcher groups requests whose
:class:`Batch` nodes fingerprint identically.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterator

#: Sentinel algorithm name of the terminal CPU stage in a fallback chain
#: (the hand-rolled priority queue, which has no simulated GPU to lose).
CPU_FALLBACK = "cpu-heap"

#: to_dict() schema tag so external consumers can version-check trees.
PLAN_FORMAT = "repro-plan"
PLAN_VERSION = 1


@dataclass(frozen=True)
class PlanNode:
    """Base class of all physical plan operators.

    Subclasses are frozen dataclasses; fields named in ``_cost_fields``
    are annotations (excluded from the fingerprint), everything else is
    identity.  Children are regular fields holding nodes or node tuples.
    """

    kind: ClassVar[str] = "node"
    _cost_fields: ClassVar[frozenset] = frozenset({"predicted_seconds"})

    @property
    def children(self) -> tuple["PlanNode", ...]:
        out: list[PlanNode] = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, PlanNode):
                out.append(value)
            elif isinstance(value, tuple) and value and all(
                isinstance(item, PlanNode) for item in value
            ):
                out.extend(value)
        return tuple(out)

    # -- identity ---------------------------------------------------------

    def identity(self) -> dict:
        """The node's own identity attributes (no children, no costs)."""
        out: dict = {"kind": self.kind}
        for spec in fields(self):
            if spec.name in self._cost_fields:
                continue
            value = getattr(self, spec.name)
            if isinstance(value, PlanNode):
                continue
            if isinstance(value, tuple):
                if value and all(isinstance(item, PlanNode) for item in value):
                    continue
                value = list(value)
            out[spec.name] = value
        return out

    def fingerprint(self) -> str:
        """Stable content digest of the plan's identity subtree.

        Two plans fingerprint identically iff they compute the same thing
        the same way; cost annotations never perturb the digest, so a
        re-costed plan still hits the same cache entry.  A frozen node's
        digest never changes, so it is computed once and kept on the
        instance, outside the dataclass fields (``==``, ``hash`` and
        :meth:`to_dict` do not see it).
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            canonical = json.dumps(
                self._identity_tree(), sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", digest)
        return digest

    def _identity_tree(self) -> dict:
        tree = self.identity()
        children = self.children
        if children:
            tree["children"] = [child._identity_tree() for child in children]
        return tree

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Full JSON-serializable tree: identity + costs + children."""
        out = self.identity()
        for name in self._cost_fields:
            value = getattr(self, name, None)
            if value is not None:
                out[name] = value
        out["fingerprint"] = self.fingerprint()
        children = self.children
        if children:
            out["children"] = [child.to_dict() for child in children]
        return out

    # -- traversal --------------------------------------------------------

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: type) -> "PlanNode | None":
        """First node of ``kind`` in pre-order, or None."""
        for node in self.walk():
            if isinstance(node, kind):
                return node
        return None

    # -- rendering --------------------------------------------------------

    def label(self) -> str:
        """One-line human description used by :meth:`render`."""
        attrs = ", ".join(
            f"{name}={value}"
            for name, value in self.identity().items()
            if name != "kind" and value not in (None, ())
        )
        return f"{self.kind}({attrs})" if attrs else self.kind

    def render(self, indent: str = "") -> str:
        """Ascii tree of the plan, EXPLAIN-style."""
        cost = getattr(self, "predicted_seconds", None)
        suffix = f"  [{cost * 1e3:.2f} ms]" if cost is not None else ""
        lines = [f"{indent}{self.label()}{suffix}"]
        children = self.children
        for position, child in enumerate(children):
            last = position == len(children) - 1
            branch = "└─ " if last else "├─ "
            continuation = "   " if last else "│  "
            sub = child.render().splitlines()
            lines.append(f"{indent}{branch}{sub[0]}")
            lines.extend(f"{indent}{continuation}{line}" for line in sub[1:])
        return "\n".join(lines)


@dataclass(frozen=True)
class Scan(PlanNode):
    """Produce the input: a table scan or a caller-supplied vector."""

    kind: ClassVar[str] = "Scan"

    source: str = "vector"
    rows: int = 0
    dtype: str = "float32"
    width_bytes: int | None = None
    predicted_seconds: float | None = None


@dataclass(frozen=True)
class Stream(PlanNode):
    """An unbounded chunked source: the continuous-query analogue of Scan.

    A streaming plan is rooted on one of these instead of a Scan: the
    engine's tick interpreter pulls one ``chunk_rows``-row chunk per tick
    and the selection above it maintains its answer incrementally.  The
    window annotations are *identity*: a sliding-window subscription and
    a decayed subscription over the same source are different plans (they
    compute different answers), so both fingerprint distinctly.

    ``window`` is the sliding window length in rows (0 = unbounded);
    ``decay`` is the per-tick exponential decay factor applied to every
    live row's score (None = no decay).
    """

    kind: ClassVar[str] = "Stream"

    source: str = "stream"
    chunk_rows: int = 0
    dtype: str = "float32"
    window: int = 0
    decay: float | None = None
    predicted_seconds: float | None = None


@dataclass(frozen=True)
class Filter(PlanNode):
    """A WHERE predicate over the child's rows."""

    kind: ClassVar[str] = "Filter"

    child: PlanNode = field(default_factory=Scan)
    predicate: str = ""
    selectivity: float | None = None
    predicted_seconds: float | None = None


@dataclass(frozen=True)
class TopK(PlanNode):
    """Exact top-k selection bound to a named kernel algorithm."""

    kind: ClassVar[str] = "TopK"

    child: PlanNode = field(default_factory=Scan)
    k: int = 1
    n: int = 0
    dtype: str = "float32"
    algorithm: str = "bitonic"
    predicted_seconds: float | None = None


@dataclass(frozen=True)
class ApproxTopK(PlanNode):
    """The bucketed approximate operator with its full configuration."""

    kind: ClassVar[str] = "ApproxTopK"

    child: PlanNode = field(default_factory=Scan)
    k: int = 1
    n: int = 0
    dtype: str = "float32"
    algorithm: str = "approx-bucket"
    buckets: int = 32
    oversample: int = 3
    delegate_group: int = 0
    seed: int | None = None
    recall_target: float = 1.0
    #: Analytic expected recall is an *annotation* — the same configuration
    #: at a different n fingerprints by its identity fields, not this.
    expected_recall: float | None = None
    predicted_seconds: float | None = None

    _cost_fields: ClassVar[frozenset] = frozenset(
        {"predicted_seconds", "expected_recall"}
    )

    def config(self):
        """Materialize the node's :class:`~repro.approx.config.ApproxConfig`."""
        from repro.approx.config import ApproxConfig

        return ApproxConfig(
            buckets=self.buckets,
            oversample=self.oversample,
            delegate_group=self.delegate_group,
            seed=self.seed,
        )


@dataclass(frozen=True)
class Batch(PlanNode):
    """A fused cross-query launch compatibility group.

    Two serving requests may ride one batched launch iff their Batch
    nodes fingerprint identically: same tile, recall expectation,
    approximate configuration and kernel family.  A bitonic tile is a
    padded width ``next_pow2(n)`` and a key layout (packed for data of 32
    bits or less, codes plus a column key for 64-bit data), so n, k and
    the 32-bit dtype are not part of it.  A radix tile is the exact row
    length, dtype and ``network_k``: its fused kernel needs one dense
    matrix.
    """

    kind: ClassVar[str] = "Batch"

    child: PlanNode = field(default_factory=Scan)
    width: int = 0
    layout: str = "packed"
    #: Radix tiles only: the padded ``next_pow2(k)`` their riders share.
    network_k: int | None = None
    recall_target: float = 1.0
    approx_key: tuple | None = None
    #: The fused kernel family serving the group ("bitonic" or "radik"):
    #: riders must agree on it — the fused launch *is* that kernel, and
    #: mixing families would change tie-breaking or cost attribution.
    kernel: str = "bitonic"
    predicted_seconds: float | None = None


@dataclass(frozen=True)
class Fallback(PlanNode):
    """Ordered alternatives: try children left to right until one succeeds.

    The resilient executor's degradation order made explicit — cheapest
    first, and when ``terminal`` the last child is the CPU heap, which
    needs no working device at all.
    """

    kind: ClassVar[str] = "Fallback"

    alternatives: tuple[PlanNode, ...] = ()
    predicted_seconds: float | None = None

    def chain(self) -> list[str]:
        """The algorithm names in degradation order."""
        return [
            getattr(node, "algorithm", node.kind)
            for node in self.alternatives
        ]


@dataclass(frozen=True)
class Merge(PlanNode):
    """Exact merge of partial results (multi-GPU shards, bucket candidates).

    The root of a sharded plan: each input is a per-partition
    ``Scan -> TopK`` subtree whose Scan source carries the shard's row
    range (``table[start:stop)``), and the merge reproduces the exact
    global order with deterministic tie-breaking (value descending,
    lower global row index first).
    """

    kind: ClassVar[str] = "Merge"

    inputs: tuple[PlanNode, ...] = ()
    k: int = 1
    algorithm: str = "sharded"
    predicted_seconds: float | None = None

    def shard_ranges(self) -> list[str]:
        """Per-child ``[start:stop)`` row ranges, read from the input
        subtrees' Scan sources (empty for children without one)."""
        ranges: list[str] = []
        for node in self.inputs:
            scan = node.find(Scan)
            if scan is None:
                continue
            match = _SHARD_RANGE.search(scan.source)
            if match is not None:
                ranges.append(match.group(0))
        return ranges

    def label(self) -> str:
        base = super().label()
        ranges = self.shard_ranges()
        if not ranges:
            return base
        return f"{base[:-1]}, shards={len(self.inputs)}, ranges={''.join(ranges)})"


#: ``[start:stop)`` suffix of a partitioned Scan source.
_SHARD_RANGE = re.compile(r"\[\d+:\d+\)$")


#: Node kinds by name, for deserialization and registry dispatch.
NODE_KINDS: dict[str, type] = {
    node.kind: node
    for node in (Scan, Stream, Filter, TopK, ApproxTopK, Batch, Fallback, Merge)
}
