"""The planner's product: a costed, fingerprintable physical plan.

:class:`TopKPlan` is what :meth:`repro.core.planner.TopKPlanner.choose`
returns — the full candidate ranking *and* an explicit :class:`PlanNode`
tree (a :class:`~repro.plan.nodes.Fallback` over the ranked operator
nodes) so every downstream layer speaks the same IR: the resilient
executor walks the fallback alternatives, the serving cache keys on the
tree's fingerprint, EXPLAIN renders it, and spans attach it.

``TopKPlan`` keeps the field layout of the pre-IR ``PlanChoice`` (which is
now an alias), so existing constructors and pattern-matching code keep
working; the tree is synthesized in ``__post_init__`` when not supplied.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import keys as keycodec
from repro.bitonic.network import next_pow2
from repro.plan.nodes import (
    CPU_FALLBACK,
    PLAN_FORMAT,
    PLAN_VERSION,
    ApproxTopK,
    Batch,
    Fallback,
    PlanNode,
    Scan,
    TopK,
)

#: Algorithms with a fused cross-query batched kernel.  The bitonic
#: network batches elementwise (:func:`repro.core.batched.batched_topk`);
#: the RadiK-style radix select batches per-row pass state
#: (:func:`repro.algorithms.radik.batched_radik_topk`).
BATCHABLE_ALGORITHMS = frozenset({"bitonic", "radik"})

#: Backwards-compatible alias from the bitonic-only batching era.
BATCHABLE_ALGORITHM = "bitonic"


def network_k(k: int) -> int:
    """The padded (power-of-two) width of the bitonic network for ``k``."""
    return next_pow2(k)


def batch_key(
    n: int,
    k: int,
    dtype,
    kernel: str = BATCHABLE_ALGORITHM,
    recall_target: float = 1.0,
    approx_key: tuple | None = None,
) -> Batch:
    """The :class:`Batch` node of an ``n``-row, top-``k`` ``dtype`` request.

    A bitonic rider keys on its tile: the padded width ``next_pow2(n)``
    and the key layout, so any n inside one width, any k, and float32,
    int32 or uint32 rows share a launch.  A radix rider keeps its exact n,
    dtype and ``network_k(k)``: its fused kernel needs one dense matrix of
    one dtype, and only riders of one network width share its launch.
    """
    if kernel == "radik":
        width, layout = int(n), str(np.dtype(dtype))
        radix_k = network_k(int(k))
    else:
        width, layout = next_pow2(int(n)), keycodec.layout(dtype)
        radix_k = None
    return Batch(
        width=width,
        layout=layout,
        network_k=radix_k,
        recall_target=float(recall_target),
        approx_key=approx_key,
        kernel=kernel,
    )


def request_fingerprint(
    n: int,
    k: int,
    dtype: str,
    profile: str,
    device: str,
    recall_target: float = 1.0,
    max_shards: int = 1,
    calibration_epoch: int = 0,
) -> str:
    """Stable digest of a *plan request* — everything the planner reads.

    This is the serving cache's lookup key: computable before planning,
    and guaranteed to match the fingerprint namespace of plan trees (same
    canonicalization, distinct ``kind``), so two requests collide iff the
    planner would see the identical question.  ``max_shards`` is part of
    the request: a sharding-enabled caller must never collide with a
    single-device one on the same shape.  ``calibration_epoch`` is the
    store epoch of a calibrating planner — a refit that changes any
    correction factor can change the decision, so the epoch must shear
    the cache; at the default 0 (no calibration, or a store that never
    fitted) the field is omitted from the canonical form, keeping every
    pre-calibration digest byte-identical.
    """
    request = {
        "kind": "PlanRequest",
        "n": int(n),
        "k": int(k),
        "dtype": str(dtype),
        "profile": str(profile),
        "device": str(device),
        "recall_target": float(recall_target),
        "max_shards": int(max_shards),
    }
    if int(calibration_epoch) != 0:
        request["calibration_epoch"] = int(calibration_epoch)
    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def operator_node(
    name: str,
    seconds: float | None,
    *,
    n: int = 0,
    k: int = 1,
    dtype: str = "float32",
    source: str = "vector",
    recall_target: float = 1.0,
    approx_config=None,
    expected_recall: float | None = None,
    child: PlanNode | None = None,
) -> PlanNode:
    """One ranked candidate as a plan node (exact TopK or ApproxTopK)."""
    child = child if child is not None else Scan(
        source=source, rows=n, dtype=dtype
    )
    if name == "approx-bucket":
        config_fields = {}
        if approx_config is not None:
            config_fields = {
                "buckets": approx_config.buckets,
                "oversample": approx_config.oversample,
                "delegate_group": approx_config.delegate_group,
                "seed": approx_config.seed,
            }
        return ApproxTopK(
            child=child,
            k=k,
            n=n,
            dtype=dtype,
            recall_target=recall_target,
            expected_recall=expected_recall,
            predicted_seconds=seconds,
            **config_fields,
        )
    return TopK(
        child=child,
        k=k,
        n=n,
        dtype=dtype,
        algorithm=name,
        predicted_seconds=seconds,
    )


def build_fallback(
    names_and_costs,
    *,
    n: int = 0,
    k: int = 1,
    dtype: str = "float32",
    source: str = "vector",
    recall_target: float = 1.0,
    approx_config=None,
    expected_recall: float | None = None,
    terminal_cpu: bool = False,
    child: PlanNode | None = None,
) -> Fallback:
    """An explicit :class:`Fallback` node over ranked (name, cost) pairs.

    ``terminal_cpu`` appends the CPU-heap stage (cost unknown) when it is
    not already last — the resilient executor's "always succeeds" anchor.
    ``child`` is the shared input subtree (defaults to a vector Scan).
    """
    alternatives = [
        operator_node(
            name,
            seconds,
            n=n,
            k=k,
            dtype=dtype,
            source=source,
            recall_target=recall_target,
            approx_config=approx_config if name == "approx-bucket" else None,
            expected_recall=expected_recall if name == "approx-bucket" else None,
            child=child,
        )
        for name, seconds in names_and_costs
    ]
    names = [name for name, _ in names_and_costs]
    if terminal_cpu and CPU_FALLBACK not in names:
        alternatives.append(
            operator_node(
                CPU_FALLBACK, None, n=n, k=k, dtype=dtype, source=source,
                child=child,
            )
        )
    return Fallback(alternatives=tuple(alternatives))


@dataclass(frozen=True)
class TopKPlan:
    """The planner's decision: candidate ranking + explicit plan tree.

    Field layout (through ``expected_recall``) is identical to the pre-IR
    ``PlanChoice`` so existing constructors keep working; ``root`` is the
    typed tree, synthesized from the ranking when not supplied.
    """

    algorithm: str
    predicted_seconds: float
    candidates: tuple[tuple[str, float], ...]
    #: Candidates discarded because they are infeasible for this
    #: configuration (the per-thread heap past its shared-memory limit).
    infeasible: tuple[str, ...] = ()
    #: The caller's minimum acceptable recall; 1.0 means exact-only.
    recall_target: float = 1.0
    #: Configuration of the chosen approximate plan, None for exact plans.
    approx_config: "object | None" = None
    #: Analytic expected recall of the chosen plan (1.0 for exact plans).
    expected_recall: float = 1.0
    #: The planned configuration (0/1 when constructed via the legacy
    #: ranking-only signature — the tree still fingerprints stably).
    n: int = 0
    k: int = 1
    dtype: str = "float32"
    profile: str = "uniform-float"
    device: str = ""
    #: The typed physical-plan tree; synthesized when None.
    root: PlanNode = field(default=None)  # type: ignore[assignment]
    #: Partition count of a sharded winner (1 for single-device plans).
    shards: int = 1

    def __post_init__(self) -> None:
        if self.root is None:
            object.__setattr__(
                self,
                "root",
                build_fallback(
                    self.candidates,
                    n=self.n,
                    k=self.k,
                    dtype=self.dtype,
                    recall_target=self.recall_target,
                    approx_config=self.approx_config,
                    expected_recall=self.expected_recall,
                ),
            )

    @property
    def predicted_ms(self) -> float:
        return self.predicted_seconds * 1e3

    def fallback_chain(self) -> list[str]:
        """Every feasible algorithm, cheapest first — the order a resilient
        executor degrades through when the winner's device fails."""
        return [name for name, _ in self.candidates]

    # -- IR surface -------------------------------------------------------

    def fingerprint(self) -> str:
        """The plan tree's stable identity digest (see
        :meth:`~repro.plan.nodes.PlanNode.fingerprint`)."""
        return self.root.fingerprint()

    def winner(self) -> PlanNode:
        """The chosen operator node (first fallback alternative)."""
        if isinstance(self.root, Fallback) and self.root.alternatives:
            return self.root.alternatives[0]
        return self.root

    def batch_node(
        self, n: int | None = None, k: int | None = None, dtype: str | None = None
    ) -> Batch:
        """The :class:`Batch` compatibility-group node for this plan.

        Two serving requests may share a fused launch iff their batch
        nodes fingerprint identically.  ``n``/``k``/``dtype`` default to the
        planned configuration; callers holding the actual payload (the
        serving layer) pass theirs explicitly.  The node carries no child
        on purpose: compatibility is *exactly* its own fields (see
        :func:`batch_key`).
        """
        approx_key = None
        if self.approx_config is not None and self.algorithm == "approx-bucket":
            approx_key = self.approx_config.key()
        return batch_key(
            int(n if n is not None else self.n),
            int(k if k is not None else self.k),
            dtype if dtype is not None else self.dtype,
            kernel=(
                self.algorithm
                if self.algorithm in BATCHABLE_ALGORITHMS
                else BATCHABLE_ALGORITHM
            ),
            recall_target=self.recall_target,
            approx_key=approx_key,
        )

    @property
    def batchable(self) -> bool:
        """Whether a fused batched kernel can serve this plan."""
        return self.algorithm in BATCHABLE_ALGORITHMS

    def to_dict(self) -> dict:
        """JSON-serializable plan for EXPLAIN --json and external tools."""
        return {
            "format": PLAN_FORMAT,
            "version": PLAN_VERSION,
            "algorithm": self.algorithm,
            "predicted_ms": self.predicted_ms,
            "fingerprint": self.fingerprint(),
            "n": self.n,
            "k": self.k,
            "dtype": self.dtype,
            "profile": self.profile,
            "device": self.device,
            "recall_target": self.recall_target,
            "expected_recall": self.expected_recall,
            "shards": self.shards,
            "candidates": [
                {"algorithm": name, "predicted_ms": seconds * 1e3}
                for name, seconds in self.candidates
            ],
            "infeasible": list(self.infeasible),
            "tree": self.root.to_dict(),
        }

    def render(self) -> str:
        """Human-readable plan tree, EXPLAIN-style."""
        header = (
            f"plan {self.fingerprint()}  "
            f"(winner: {self.algorithm}, {self.predicted_ms:.2f} ms predicted)"
        )
        return f"{header}\n{self.root.render()}"


#: Backwards-compatible alias: the pre-IR name for the planner's product.
PlanChoice = TopKPlan
