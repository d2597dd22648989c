"""Maximum-entropy distribution estimation from noisy marginal measurements.

The co-measurement graph (attributes joined when they appear in the same
measured query) is split into connected components.  Each component keeps a
full nonnegative joint table of fixed total mass, fitted by entropic mirror
descent against the weighted squared-L2 measurement objective

    sum_i alpha_i * || M_{q_i}(p) - y_i ||_2^2 .

Components small enough for this treatment are enforced upstream by
model-size filtering; attributes never measured stay as uniform singleton
factors so the model always covers the whole domain.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from typing import Sequence

import numpy as np

from .domain import DiscreteDataset, Domain, MarginalQuery

CELL_BYTES = 8
MAX_CELLS = 1 << 26  # largest component table a fit accepts
NLL_FLOOR = 1e-9  # probability floor of the holdout NLL, so unseen cells stay finite
# log floor for warm-start logits: cells whose mass underflowed to zero
_LOG_FLOOR = np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True)
class Measurement:
    """One noisy marginal record: round, query, noisy counts, scale, weight."""

    round: int
    query: MarginalQuery
    noisy_counts: np.ndarray = field(compare=False)
    sigma: float
    weight: float

    def __post_init__(self):
        counts = np.asarray(self.noisy_counts, dtype=np.float64)
        if counts.shape != (self.query.cardinality,):
            raise ValueError("noisy counts length must equal query cardinality")
        if not np.isfinite(counts).all():
            raise ValueError("noisy counts must be finite")
        if not np.isfinite(self.sigma):
            raise ValueError("measurement sigma must be finite")
        # written so that a NaN weight fails too
        if not 0 < self.weight < np.inf:
            raise ValueError("measurement weight must be positive and finite")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "noisy_counts", counts)


class ComponentTooLargeError(RuntimeError):
    def __init__(self, component: tuple[int, ...], cells: int, limit: int):
        self.component = component
        super().__init__(
            f"component {component} has {cells} cells, exceeding the {limit}-cell limit"
        )


def merged_components(
    components: Sequence[tuple[int, ...]], extra: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """Component list after (hypothetically) adding one more co-measured set.

    ``components`` must be disjoint, as a model's are.  Every component that
    ``extra`` touches joins it in one sorted tuple; the others are kept.
    """
    if not extra:
        return sorted(components)
    joined = set(extra)
    kept = []
    for comp in components:
        if joined.isdisjoint(comp):
            kept.append(comp)
        else:
            joined.update(comp)
    return sorted(kept + [tuple(sorted(joined))])


def component_bytes(domain: Domain, components: Sequence[tuple[int, ...]]) -> int:
    return sum(domain.size(c) * CELL_BYTES for c in components)


def _softmax_mass(theta: np.ndarray, total: float, out: np.ndarray) -> None:
    """Write the mass-``total`` softmax of ``theta`` into ``out``; shifts
    ``theta`` in place so its maximum is zero."""
    theta -= theta.max()
    np.exp(theta, out=out)
    out *= total / out.sum()


class _FitPlan:
    """How one component fit reduces marginals and assembles gradients.

    The plan's nodes are the measured sets (repeats merged) plus
    *intermediates*.  In a component of k attributes, a root is a measured
    set with no measured strict superset.  While some root of arity k-2 or
    less is not inside an intermediate, the unmeasured (k-1)-way marginal
    that covers the most such roots becomes one (ties go to the first in
    ``itertools.combinations`` order).  Nodes are ordered largest first and
    each takes as parent its smallest earlier strict superset.  A node
    without one is top-level: it is reduced from, and broadcast back into,
    the full table.  Every other marginal is summed from its parent's, and
    gradient residuals travel the same edges upwards, so the full table is
    touched once per top-level node, not once per root.

    Every node's marginal is a view into one flat vector laid out as
    intermediates, then measured top-level nodes, then the other measured
    nodes.  So the measured cells are one slice, against which ``y`` and the
    per-cell weights ``alpha`` line up, and the top-level cells are another.
    The objective is one subtraction, one multiplication and one dot product
    over that slice, and the fit's line search reuses buffers it allocates
    once per fit.
    """

    def __init__(self, comp: tuple[int, ...], shape: tuple[int, ...], measurements: list[Measurement]):
        k = len(comp)
        comp_pos = {a: i for i, a in enumerate(comp)}
        measured = {tuple(comp_pos[a] for a in m.query.attrs): m for m in _merge_same_query(measurements)}
        roots = [s for s in measured if not any(set(s) < set(t) for t in measured)]
        uncovered = [set(r) for r in roots if len(r) <= k - 2]
        intermediates: list[tuple[int, ...]] = []
        while uncovered:
            best = max(
                (c for c in combinations(range(k), k - 1) if c not in measured),
                key=lambda c: sum(r <= set(c) for r in uncovered),
            )
            intermediates.append(best)
            uncovered = [r for r in uncovered if not r <= set(best)]

        def cells(axes: tuple[int, ...]) -> int:
            return math.prod(shape[a] for a in axes)

        nodes = sorted(list(measured) + intermediates, key=lambda s: (-len(s), -cells(s), s))
        full = list(range(k))
        self.parents: list[int | None] = []
        # einsum sublists (source axes, kept axes) of each reduction
        self.reductions: list[tuple[list[int], list[int]]] = []
        # shape of a residual broadcast into its parent's (or the full) axes
        self.up_shapes: list[tuple[int, ...]] = []
        self.node_shapes = [tuple(shape[a] for a in keep) for keep in nodes]
        for i, keep in enumerate(nodes):
            supersets = [j for j in range(i) if set(keep) < set(nodes[j])]
            parent = min(supersets, key=lambda j: cells(nodes[j])) if supersets else None
            source = full if parent is None else list(nodes[parent])
            self.parents.append(parent)
            self.reductions.append((source, list(keep)))
            self.up_shapes.append(tuple(shape[a] if a in keep else 1 for a in source))
        self.tops = [i for i, parent in enumerate(self.parents) if parent is None]
        self.intermediates = [i for i, keep in enumerate(nodes) if keep not in measured]
        # step size scale: the merged weights summed in plan order
        self.alpha_total = sum(measured[keep].weight for keep in nodes if keep in measured)

        # flat layout: intermediates, measured top-level nodes, other measured nodes
        layout = sorted(range(len(nodes)), key=lambda i: (nodes[i] in measured, self.parents[i] is not None))
        sizes = [cells(keep) for keep in nodes]
        self.offsets = [0] * len(nodes)
        offset = 0
        for i in layout:
            self.offsets[i] = offset
            offset += sizes[i]
        self.size = offset
        self.top_cells = slice(0, sum(sizes[i] for i in self.tops))
        self.measured_cells = slice(sum(sizes[i] for i in self.intermediates), self.size)
        ordered = [measured[nodes[i]] for i in layout if nodes[i] in measured]
        self.y = np.concatenate([m.noisy_counts for m in ordered])
        self.alpha = np.concatenate([np.full(m.query.cardinality, m.weight) for m in ordered])

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each node's cells in the flat vector ``flat``, shaped, in plan order."""
        return [
            flat[offset:offset + math.prod(node_shape)].reshape(node_shape)
            for offset, node_shape in zip(self.offsets, self.node_shapes)
        ]

    def marginals(self, p: np.ndarray, views: list[np.ndarray]) -> None:
        """Write every node's marginal of the full table ``p`` into ``views``."""
        for i, (parent, reduction) in enumerate(zip(self.parents, self.reductions)):
            np.einsum(p if parent is None else views[parent], *reduction, out=views[i])

    def gradient(self, residuals: list[np.ndarray], grad: np.ndarray) -> None:
        """Write the sum of the measured residuals, broadcast over the full
        table, into ``grad``.

        Zeroes the intermediates' residuals and then adds each non-top
        residual into its parent's in place, smallest first, so afterwards
        the residual of a top-level node holds the pushed-up sum of its
        subtree.
        """
        for i in self.intermediates:
            residuals[i].fill(0.0)
        for i in reversed(range(len(residuals))):
            parent = self.parents[i]
            if parent is not None:
                residuals[parent] += residuals[i].reshape(self.up_shapes[i])
        up = [residuals[r].reshape(self.up_shapes[r]) for r in self.tops]
        if len(up) == 1:
            np.copyto(grad, up[0])
            return
        np.add(up[0], up[1], out=grad)
        for r in up[2:]:
            grad += r


def _merge_same_query(measurements: list[Measurement]) -> list[Measurement]:
    """Collapse repeated measurements of one query into their weighted mean.

    Exact for the squared objective: sum_i a_i ||m - y_i||^2 equals
    (sum a_i) ||m - ybar||^2 up to a constant, so minimizer and gradients
    are unchanged.
    """
    grouped: dict[tuple[int, ...], list[Measurement]] = {}
    for m in measurements:
        grouped.setdefault(m.query.attrs, []).append(m)
    merged = []
    for attrs in sorted(grouped):
        group = grouped[attrs]
        if len(group) == 1:
            merged.append(group[0])
            continue
        alpha = sum(g.weight for g in group)
        ybar = sum(g.weight * g.noisy_counts for g in group) / alpha
        merged.append(
            Measurement(group[-1].round, group[0].query, ybar, group[-1].sigma, alpha)
        )
    return merged


def _fit_component(
    comp: tuple[int, ...],
    shape: tuple[int, ...],
    measurements: list[Measurement],
    total: float,
    iterations: int,
    tolerance: float,
    init_logits: np.ndarray | None,
) -> tuple[np.ndarray, list[float]]:
    plan = _FitPlan(comp, shape, measurements)
    theta = np.zeros(shape) if init_logits is None else init_logits.astype(np.float64)
    theta_new, p, p_new, grad = (np.empty(shape) for _ in range(4))
    # node marginals of the accepted point and of the trial point
    flat, flat_new = np.empty(plan.size), np.empty(plan.size)
    views, views_new = plan.views(flat), plan.views(flat_new)
    residual = np.empty(plan.size)
    residual_views = plan.views(residual)
    diff = np.empty_like(plan.y)
    weighted = np.empty_like(plan.y)  # alpha * diff of the last point evaluated
    moved = np.empty(plan.top_cells.stop)

    def objective(marginals: np.ndarray) -> float:
        np.subtract(marginals[plan.measured_cells], plan.y, out=diff)
        np.multiply(diff, plan.alpha, out=weighted)
        return float(np.dot(weighted, diff))

    _softmax_mass(theta, total, p)
    plan.marginals(p, views)
    obj = objective(flat)
    trace = [obj]
    step = 2.0 / plan.alpha_total
    for _ in range(iterations):
        np.multiply(weighted, 2.0, out=residual[plan.measured_cells])
        plan.gradient(residual_views, grad)
        # backtracking line search with Armijo sufficient decrease; a clean
        # first-try acceptance lets the step regrow next iteration
        accepted = False
        first_try = True
        for _ in range(80):
            np.multiply(grad, step, out=theta_new)
            np.subtract(theta, theta_new, out=theta_new)
            _softmax_mass(theta_new, total, p_new)
            plan.marginals(p_new, views_new)
            obj_new = objective(flat_new)
            # <grad, p - p_new>, evaluated on the top-level marginals
            np.subtract(flat[plan.top_cells], flat_new[plan.top_cells], out=moved)
            predicted = float(np.dot(residual[plan.top_cells], moved))
            if obj_new <= obj and obj - obj_new >= 0.5 * predicted:
                accepted = True
                break
            step *= 0.5
            first_try = False
        if not accepted:
            break
        if first_try:
            step *= 2.0
        decrease = obj - obj_new
        # ``weighted`` already holds the accepted point's values
        theta, theta_new, p, p_new = theta_new, theta, p_new, p
        flat, flat_new, views, views_new = flat_new, flat, views_new, views
        obj = obj_new
        trace.append(obj)
        if decrease <= tolerance * max(trace[-2], 1e-300):
            break
    return p, trace


class ModelState:
    """Fitted nonnegative distribution factorized over components."""

    def __init__(
        self,
        domain: Domain,
        total: float,
        measured_components: Sequence[tuple[int, ...]],
        tables: dict[tuple[int, ...], np.ndarray],
        meta: dict | None = None,
    ):
        self.domain = domain
        self.total = float(total)
        self.measured_components = tuple(tuple(c) for c in measured_components)
        covered = {a for c in measured_components for a in c}
        self.components = tuple(
            sorted(
                list(self.measured_components)
                + [(a,) for a in range(len(domain)) if a not in covered]
            )
        )
        self.tables = dict(tables)
        for comp in self.components:
            if comp not in self.tables:
                size = domain.size(comp)
                self.tables[comp] = np.full(domain.shape(comp), self.total / size)
        self.meta = meta or {}

    @property
    def logits(self) -> dict[tuple[int, ...], np.ndarray]:
        """``log(table)`` of each measured component, built on access; softmax
        is shift-invariant, so these seed a fit like the fitted logits."""
        return {c: np.log(np.maximum(self.tables[c], _LOG_FLOOR)) for c in self.measured_components}

    @classmethod
    def uniform(cls, domain: Domain, total: float = 1.0) -> "ModelState":
        return cls(domain, total, [], {})

    def marginal_counts(self, query: MarginalQuery) -> np.ndarray:
        """Counts for a query: exact within a component, product across them."""
        wanted = set(query.attrs)
        groups: list[tuple[tuple[int, ...], np.ndarray]] = []
        for comp in self.components:
            inter = tuple(a for a in comp if a in wanted)
            if not inter:
                continue
            keep = tuple(i for i, a in enumerate(comp) if a in wanted)
            drop = tuple(i for i in range(len(comp)) if i not in set(keep))
            part = self.tables[comp].sum(axis=drop) if drop else self.tables[comp]
            groups.append((inter, part / self.total))
        joint = groups[0][1]
        order = list(groups[0][0])
        for attrs, part in groups[1:]:
            joint = np.multiply.outer(joint, part)
            order.extend(attrs)
        perm = np.argsort(order)
        joint = np.transpose(joint, perm)
        return joint.reshape(-1) * self.total

    def sample(self, n_rows: int, rng: np.random.Generator) -> DiscreteDataset:
        """Draw i.i.d. rows, each component sampled independently."""
        if n_rows < 0:
            raise ValueError("n_rows must be >= 0")
        rows = np.zeros((n_rows, len(self.domain)), dtype=np.int64)
        if n_rows == 0:
            return DiscreteDataset(self.domain, rows, validate=False)
        for comp in self.components:
            flat = self.tables[comp].reshape(-1)
            probs = np.clip(flat, 0.0, None)
            probs = probs / probs.sum()
            cells = rng.choice(flat.size, size=n_rows, p=probs)
            values = np.unravel_index(cells, self.domain.shape(comp))
            for a, col in zip(comp, values):
                rows[:, a] = col
        return DiscreteDataset(self.domain, rows, validate=False)

    def nll(self, holdout: DiscreteDataset) -> float:
        """Mean negative log-likelihood of holdout rows under the model."""
        if holdout.n_records == 0:
            raise ValueError("holdout must be non-empty")
        logp = np.zeros(holdout.n_records)
        for comp in self.components:
            flat = self.tables[comp].reshape(-1) / self.total
            idx = np.ravel_multi_index(
                tuple(holdout.rows[:, a] for a in comp), dims=self.domain.shape(comp)
            )
            logp += np.log(np.maximum(flat[idx], NLL_FLOOR))
        return float(-logp.mean())

    def size_bytes(self, candidate: MarginalQuery | None = None) -> int:
        """Model size (bytes) after hypothetically measuring ``candidate``."""
        extra = candidate.attrs if candidate is not None else None
        return component_bytes(self.domain, merged_components(self.measured_components, extra))


def _signature(iterations: int, tolerance: float, local: Sequence[Measurement]) -> bytes:
    """Exact digest of a component's fit inputs; equal digests mean the
    component can be carried over from a warm start unchanged."""
    h = hashlib.blake2b(repr((iterations, tolerance)).encode())
    for m in local:
        h.update(repr((m.round, m.query.attrs, m.query.cardinality, m.weight, m.sigma)).encode())
        h.update(m.noisy_counts.tobytes())
    return h.digest()


def estimate_total(measurements: Sequence[Measurement]) -> float:
    """Weighted mean of the clipped-nonnegative measurement totals."""
    num = 0.0
    den = 0.0
    for m in measurements:
        num += m.weight * max(float(m.noisy_counts.sum()), 0.0)
        den += m.weight
    return num / den if den > 0 else 1.0


def fit(
    measurements: Sequence[Measurement],
    domain: Domain,
    iterations: int = 100,
    tolerance: float = 1e-7,
    total: float | None = None,
    warm_start: ModelState | None = None,
) -> ModelState:
    """Fit a ModelState to the measurement list (deterministic).

    ``warm_start`` seeds each component from a previous fit's tables;
    merged components start from the product of their parts.  Defaults start
    every component uniform.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    measurements = list(measurements)
    for m in measurements:
        for a in m.query.attrs:
            if not 0 <= a < len(domain):
                raise IndexError(f"measurement attribute {a} outside domain")
    if total is None:
        total = estimate_total(measurements) if measurements else 1.0
    if not np.isfinite(total):
        raise ValueError("total must be finite")
    total = max(float(total), 1e-9)  # all-negative noisy totals would zero the mass
    comps = reduce(merged_components, (m.query.attrs for m in measurements), [])
    for comp in comps:
        if domain.size(comp) > MAX_CELLS:
            raise ComponentTooLargeError(comp, domain.size(comp), MAX_CELLS)

    tables: dict[tuple[int, ...], np.ndarray] = {}
    traces: dict[tuple[int, ...], list[float]] = {}
    signatures: dict[tuple[int, ...], bytes] = {}
    prev_sigs = warm_start.meta.get("comp_signatures", {}) if warm_start is not None else {}
    for comp in comps:
        shape = domain.shape(comp)
        local = [m for m in measurements if set(m.query.attrs) <= set(comp)]
        sig = _signature(iterations, tolerance, local)
        signatures[comp] = sig
        if warm_start is not None and prev_sigs.get(comp) == sig and comp in warm_start.measured_components:
            # measurement set and fit settings unchanged: carry the component
            # over, rescaled to the new total mass
            tables[comp] = warm_start.tables[comp] * (total / warm_start.total)
            traces[comp] = warm_start.meta["objective_traces"][comp][-1:]
            continue
        init = _warm_logits(comp, shape, warm_start) if warm_start is not None else None
        tables[comp], traces[comp] = _fit_component(
            comp, shape, local, total, iterations, tolerance, init
        )
    meta = {
        "objective_traces": traces,
        "n_measurements": len(measurements),
        "comp_signatures": signatures,
    }
    return ModelState(domain, total, comps, tables, meta)


def _warm_logits(
    comp: tuple[int, ...], shape: tuple[int, ...], previous: ModelState
) -> np.ndarray | None:
    """Initial logits for a component from an earlier model.

    Any previous measured component fully inside the new one contributes its
    logits, ``log(table)``, broadcast over the missing axes, which initializes
    the merged component at the product of its parts.
    """
    theta = None
    for old in previous.measured_components:
        if not set(old) <= set(comp):
            continue
        if theta is None:
            theta = np.zeros(shape)
        expand = tuple(n if a in old else 1 for a, n in zip(comp, shape))
        theta += np.log(np.maximum(previous.tables[old], _LOG_FLOOR)).reshape(expand)
    return theta
