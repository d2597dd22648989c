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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
        if self.weight <= 0:
            raise ValueError("measurement weight must be positive")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "noisy_counts", counts)


class ComponentTooLargeError(RuntimeError):
    def __init__(self, component: tuple[int, ...], cells: int, limit: int):
        self.component = component
        super().__init__(
            f"component {component} has {cells} cells, exceeding the {limit}-cell limit"
        )


def _union_find_components(n_attrs: int, groups: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    parent = list(range(n_attrs))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    touched = set()
    for group in groups:
        group = list(group)
        touched.update(group)
        for a, b in zip(group, group[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    buckets: dict[int, list[int]] = {}
    for a in sorted(touched):
        buckets.setdefault(find(a), []).append(a)
    return [tuple(v) for _, v in sorted(buckets.items())]


def merged_components(
    components: Sequence[tuple[int, ...]], extra: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """Component list after (hypothetically) adding one more co-measured set."""
    groups = [list(c) for c in components]
    if extra:
        groups.append(sorted(extra))
    if not groups:
        return []
    n = max(max(g) for g in groups) + 1
    return _union_find_components(n, groups)


def component_bytes(domain: Domain, components: Sequence[tuple[int, ...]]) -> int:
    return sum(domain.size(c) * CELL_BYTES for c in components)


def _softmax_mass(theta: np.ndarray, total: float) -> np.ndarray:
    """Mass-``total`` softmax of ``theta``; shifts ``theta`` in place so its
    maximum is zero."""
    theta -= theta.max()
    p = np.exp(theta)
    p *= total / p.sum()
    return p


class _FitPlan:
    """How one component fit reduces marginals and assembles gradients.

    Measurements are ordered largest first.  Each takes as parent its
    smallest measured strict superset in the component; a measurement
    without one is a root and is reduced from, and broadcast back into, the
    full table.  Every other marginal is summed from its parent's marginal,
    and gradient residuals travel the same edges upwards, so the full table
    is touched once per root.
    """

    def __init__(self, comp: tuple[int, ...], shape: tuple[int, ...], measurements: list[Measurement]):
        comp_pos = {a: i for i, a in enumerate(comp)}
        merged = sorted(
            _merge_same_query(measurements),
            key=lambda m: (-len(m.query.attrs), -m.query.cardinality, m.query.attrs),
        )
        full = list(range(len(comp)))
        self.shape = shape
        self.alphas = [m.weight for m in merged]
        self.parents: list[int | None] = []
        # einsum sublists (source axes, kept axes) of each reduction
        self.reductions: list[tuple[list[int], list[int]] | None] = []
        # shape of a residual broadcast into its parent's (or the full) axes
        self.up_shapes: list[tuple[int, ...]] = []
        self.ys: list[np.ndarray] = []
        self.axes: list[list[int]] = []  # local axes each measurement keeps
        for i, m in enumerate(merged):
            keep = [comp_pos[a] for a in m.query.attrs]
            supersets = [j for j in range(i) if set(keep) < set(self.axes[j])]
            parent = min(supersets, key=lambda j: merged[j].query.cardinality) if supersets else None
            source = full if parent is None else self.axes[parent]
            self.parents.append(parent)
            self.reductions.append(None if keep == source else (source, keep))
            self.up_shapes.append(tuple(shape[a] if a in keep else 1 for a in source))
            self.ys.append(m.noisy_counts.reshape(tuple(shape[a] for a in keep)))
            self.axes.append(keep)
        self.roots = [i for i, parent in enumerate(self.parents) if parent is None]

    def marginals(self, p: np.ndarray) -> list[np.ndarray]:
        """Every measured marginal of the full table ``p``, in plan order."""
        out: list[np.ndarray] = []
        for parent, reduction in zip(self.parents, self.reductions):
            source = p if parent is None else out[parent]
            out.append(source if reduction is None else np.einsum(source, *reduction))
        return out

    def gradient(self, residuals: list[np.ndarray]) -> np.ndarray:
        """Sum of the residuals broadcast over the full table.

        Adds each non-root residual into its parent's in place, smallest
        first, so afterwards ``residuals[r]`` of a root ``r`` holds the
        pushed-up sum of its subtree.
        """
        for i in reversed(range(len(residuals))):
            parent = self.parents[i]
            if parent is not None:
                residuals[parent] += residuals[i].reshape(self.up_shapes[i])
        first, *rest = self.roots
        grad = np.empty(self.shape)
        np.copyto(grad, residuals[first].reshape(self.up_shapes[first]))
        for r in rest:
            grad += residuals[r].reshape(self.up_shapes[r])
        return grad


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
    p = _softmax_mass(theta, total)

    def objective(margins: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        diffs = [mg - y for mg, y in zip(margins, plan.ys)]
        return float(sum(a * np.vdot(d, d) for a, d in zip(plan.alphas, diffs))), diffs

    margins = plan.marginals(p)
    obj, diffs = objective(margins)
    trace = [obj]
    step = 2.0 / sum(plan.alphas)
    for _ in range(iterations):
        residuals = [(2.0 * a) * d for a, d in zip(plan.alphas, diffs)]
        grad = plan.gradient(residuals)
        # backtracking line search with Armijo sufficient decrease; a clean
        # first-try acceptance lets the step regrow next iteration
        accepted = False
        first_try = True
        for _ in range(80):
            theta_new = theta - step * grad
            p_new = _softmax_mass(theta_new, total)
            margins_new = plan.marginals(p_new)
            obj_new, diffs_new = objective(margins_new)
            # <grad, p - p_new>, evaluated on the roots' marginals
            predicted = float(
                sum(np.vdot(residuals[r], margins[r] - margins_new[r]) for r in plan.roots)
            )
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
        theta, p, margins, obj, diffs = theta_new, p_new, margins_new, obj_new, diffs_new
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
    total = max(float(total), 1e-9)  # all-negative noisy totals would zero the mass
    comps = _union_find_components(len(domain), [m.query.attrs for m in measurements])
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
