"""Maximum-entropy distribution estimation from noisy marginal measurements.

The co-measurement graph (attributes joined when they appear in the same
measured query) is split into connected components.  Each component is a
nonnegative distribution of fixed total mass, fitted by entropic mirror
descent against the weighted squared-L2 measurement objective

    sum_i alpha_i * || M_{q_i}(p) - y_i ||_2^2 .

Mirror descent adds measured-marginal residuals to the logits, so a fitted
component is a graphical model over its measured sets.  A component whose
junction tree (min-fill triangulation of the measured sets) holds fewer
cells than its full table, by more than an allowance for each extra
clique's array calls, is fitted and kept as calibrated clique and separator
tables; any other component is one clique, its full joint table.  A refit
starts from the previous model's clique marginals, projected onto the new
cliques: the previous model itself when measurements only grow.
Components small enough for this treatment are enforced upstream by
model-size filtering, which still counts full-table bytes; attributes never
measured stay as uniform singleton factors so the model always covers the
whole domain.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, combinations
from typing import Callable, Sequence

import numpy as np

from .domain import DiscreteDataset, Domain, MarginalQuery

CELL_BYTES = 8
MAX_CELLS = 1 << 26  # largest component table a fit accepts
NLL_FLOOR = 1e-9  # probability floor of the holdout NLL, so unseen cells stay finite
# log floor for warm-start logits: cells whose mass underflowed to zero
_LOG_FLOOR = np.finfo(np.float64).smallest_subnormal
# a clique beyond the first adds about ten array calls to each line-search
# trial, some 20-30 us on a 2-core x86 machine: the time the full-table fit
# spends per trial on about this many cells, so a tree must save more than
# that per extra clique
_CLIQUE_CELLS = 4096
# smallest separator sum a calibration accepts from one shift per clique: its
# cells keep full precision, and what underflows below them is under 1e-100
# of the mass
_SUM_FLOOR = 1e-200


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


def _junction_tree(
    sets: Sequence[tuple[int, ...]], shape: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], list[int | None]]:
    """Cliques and parents of a junction tree over ``sets`` (axis tuples of
    a connected component with axis sizes ``shape``).

    Axes are eliminated by min-fill, ties going to the fewest cells in the
    eliminated clique and then to the lowest axis; the maximal elimination
    cliques are joined by a maximum spanning tree on separator size (Prim's,
    from the clique with most cells, ties to the earliest clique and edge).
    Cliques come in the order Prim adds them, so clique 0 is the root and
    every parent precedes its children.
    """
    def cells(axes) -> int:
        return math.prod(shape[a] for a in axes)

    neighbours = [set() for _ in shape]
    for s in sets:
        for a in s:
            neighbours[a].update(b for b in s if b != a)
    remaining = set(range(len(shape)))
    maximal: list[tuple[int, ...]] = []
    while remaining:
        def cost(v: int) -> tuple[int, int, int]:
            fill = sum(b not in neighbours[a] for a, b in combinations(sorted(neighbours[v]), 2))
            return fill, cells(neighbours[v] | {v}), v

        v = min(remaining, key=cost)
        clique = neighbours[v] | {v}
        # a later elimination clique never holds an earlier eliminated axis
        if not any(clique <= set(c) for c in maximal):
            maximal.append(tuple(sorted(clique)))
        for a in neighbours[v]:
            neighbours[a] |= neighbours[v] - {a}
            neighbours[a].discard(v)
        remaining.discard(v)

    order = sorted(maximal, key=lambda c: (-cells(c), c))
    cliques, parents = [order.pop(0)], [None]
    while order:
        j, i = max(
            ((j, i) for j in range(len(order)) for i in range(len(cliques))),
            key=lambda e: (len(set(order[e[0]]) & set(cliques[e[1]])), -e[0], -e[1]),
        )
        cliques.append(order.pop(j))
        parents.append(i)
    return cliques, parents


class _FitPlan:
    """How one component fit calibrates, reduces marginals and assembles
    gradients.

    The component's logits live on *cliques*: the cliques of the measured
    sets' junction tree when that saves work, else one clique of all axes
    (the full table).  A clique tree is kept only when its clique and
    separator cells, plus ``_CLIQUE_CELLS`` for each clique after the first,
    are fewer than the full table's.  Each measured set (repeats merged) is
    fitted in the clique with fewest cells that holds it.

    Within each clique the plan's nodes are its measured sets plus
    *intermediates*.  In a clique of k axes, a root is a measured set of the
    clique with no measured strict superset there.  While some root of arity
    k-2 or less is not inside an intermediate, the unmeasured (k-1)-way
    marginal that covers the most such roots becomes one (ties go to the
    first in ``itertools.combinations`` order).  A clique's nodes are
    ordered largest first and each takes as parent its smallest earlier
    strict superset in the clique.  A node without one is top-level: it is
    reduced from, and broadcast back into, the clique table.  Every other
    marginal is summed from its parent's, and gradient residuals travel the
    same edges upwards, so a clique table is touched once per top-level
    node, not once per root.

    Every node's marginal is a view into one flat vector laid out as
    intermediates, then measured top-level nodes, then the other measured
    nodes.  So the measured cells are one slice, against which ``y`` and the
    per-cell weights ``alpha`` line up, and the top-level cells are another.
    The objective is one subtraction, one multiplication and one dot product
    over that slice, and the fit's line search reuses buffers it allocates
    once per fit.  Clique tables (logits or calibrated masses) are views
    into another flat vector of ``clique_size`` cells.
    """

    def __init__(self, comp: tuple[int, ...], shape: tuple[int, ...], measurements: list[Measurement]):
        k = len(comp)
        comp_pos = {a: i for i, a in enumerate(comp)}
        measured = {tuple(comp_pos[a] for a in m.query.attrs): m for m in _merge_same_query(measurements)}

        def cells(axes) -> int:
            return math.prod(shape[a] for a in axes)

        self.cliques: list[tuple[int, ...]] = [tuple(range(k))]
        self.clique_parents: list[int | None] = [None]
        if cells(range(k)) > _CLIQUE_CELLS:
            cliques, parents = _junction_tree(list(measured), shape)
            tree_cells = sum(map(cells, cliques)) + sum(
                cells(set(c) & set(cliques[p])) for c, p in zip(cliques[1:], parents[1:])
            )
            if tree_cells + _CLIQUE_CELLS * (len(cliques) - 1) < cells(range(k)):
                self.cliques, self.clique_parents = cliques, parents

        home: dict[tuple[int, ...], int] = {}
        for c in sorted(range(len(self.cliques)), key=lambda c: cells(self.cliques[c])):
            home.update((s, c) for s in measured if s not in home and set(s) <= set(self.cliques[c]))
        nodes: list[tuple[int, ...]] = []
        self.node_cliques: list[int] = []
        for c, clique in enumerate(self.cliques):
            own = [s for s in measured if home[s] == c]
            roots = [s for s in own if not any(set(s) < set(t) for t in own)]
            uncovered = [set(r) for r in roots if len(r) <= len(clique) - 2]
            intermediates: list[tuple[int, ...]] = []
            while uncovered:
                best = max(
                    (x for x in combinations(clique, len(clique) - 1) if x not in measured),
                    key=lambda x: sum(r <= set(x) for r in uncovered),
                )
                intermediates.append(best)
                uncovered = [r for r in uncovered if not r <= set(best)]
            own_nodes = sorted(own + intermediates, key=lambda s: (-len(s), -cells(s), s))
            nodes += own_nodes
            self.node_cliques += [c] * len(own_nodes)

        self.parents: list[int | None] = []
        # einsum sublists (source axes, kept axes) of each reduction
        self.reductions: list[tuple[list[int], list[int]]] = []
        # shape of a residual broadcast into its parent's (or its clique's) axes
        self.up_shapes: list[tuple[int, ...]] = []
        self.node_shapes = [tuple(shape[a] for a in keep) for keep in nodes]
        for i, keep in enumerate(nodes):
            c = self.node_cliques[i]
            supersets = [j for j in range(i) if self.node_cliques[j] == c and set(keep) < set(nodes[j])]
            parent = min(supersets, key=lambda j: cells(nodes[j])) if supersets else None
            source = list(self.cliques[c] if parent is None else nodes[parent])
            self.parents.append(parent)
            self.reductions.append((source, list(keep)))
            self.up_shapes.append(tuple(shape[a] if a in keep else 1 for a in source))
        self.tops = [i for i, parent in enumerate(self.parents) if parent is None]
        self.clique_tops = [[i for i in self.tops if self.node_cliques[i] == c] for c in range(len(self.cliques))]
        self.intermediates = [i for i, keep in enumerate(nodes) if keep not in measured]
        # step size scale: the merged weights summed largest set first
        self.alpha_total = sum(measured[s].weight for s in sorted(measured, key=lambda s: (-len(s), -cells(s), s)))

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

        # clique tables, and each clique's separator with its parent
        self.clique_shapes = [tuple(shape[a] for a in clique) for clique in self.cliques]
        self.clique_offsets = list(accumulate((cells(c) for c in self.cliques), initial=0))
        self.clique_size = self.clique_offsets[-1]
        # per non-root clique: einsum sublists reducing its parent, and the
        # clique itself, to the separator, and the separator's shape on its
        # own, inside the clique (ones on the other axes) and inside the parent
        self.sep_reductions: list[tuple[list[int], list[int]] | None] = [None]
        self.sep_sums: list[tuple[list[int], list[int]] | None] = [None]
        self.sep_shapes: list[tuple[int, ...] | None] = [None]
        self.sep_in_clique: list[tuple[int, ...] | None] = [None]
        self.sep_in_parent: list[tuple[int, ...] | None] = [None]
        self.drop_axes: list[tuple[int, ...] | None] = [None]
        for clique, parent in zip(self.cliques[1:], self.clique_parents[1:]):
            sep = [a for a in clique if a in self.cliques[parent]]
            self.sep_reductions.append((list(self.cliques[parent]), sep))
            self.sep_sums.append((list(clique), sep))
            self.sep_shapes.append(tuple(shape[a] for a in sep))
            self.sep_in_clique.append(tuple(shape[a] if a in sep else 1 for a in clique))
            self.sep_in_parent.append(tuple(shape[a] if a in sep else 1 for a in self.cliques[parent]))
            self.drop_axes.append(tuple(i for i, a in enumerate(clique) if a not in sep))
        self.children = [[j for j, p in enumerate(self.clique_parents) if p == c] for c in range(len(self.cliques))]
        # calibration buffers of each non-root clique: separator maxima,
        # upward sums, log-domain messages and parent margins, each shaped
        # inside the clique (ones on its other axes)
        self._buffers = [None] + [tuple(np.empty(s) for _ in range(4)) for s in self.sep_in_clique[1:]]

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each node's cells in the flat vector ``flat``, shaped, in plan order."""
        return [
            flat[offset:offset + math.prod(node_shape)].reshape(node_shape)
            for offset, node_shape in zip(self.offsets, self.node_shapes)
        ]

    def clique_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each clique's table in the flat vector ``flat``, shaped."""
        return [
            flat[start:stop].reshape(clique_shape)
            for start, stop, clique_shape in zip(self.clique_offsets, self.clique_offsets[1:], self.clique_shapes)
        ]

    def calibrate(self, thetas: list[np.ndarray], total: float, beliefs: list[np.ndarray]) -> None:
        """Write the mass-``total`` marginal of each clique of the
        distribution proportional to ``exp(sum of clique logits)`` into
        ``beliefs``.  A one-clique plan is the full-table softmax, which
        shifts the logits in place so their maximum is zero.

        On a tree, messages go up in the log domain.  A clique with children
        shifts each separator cell's slice by its own maximum, so no cell
        underflows that the full table would keep; a leaf does so only when
        one shift for the clique leaves a separator sum below ``_SUM_FLOOR``.
        The root is normalized, and the downward pass is Hugin's: each child
        scales its upward table by the parent's separator marginal over the
        separator's upward sum.
        """
        if len(thetas) == 1:
            _softmax_mass(thetas[0], total, beliefs[0])
            return
        for c in reversed(range(len(thetas))):
            belief = beliefs[c]
            children = self.children[c]
            if children:
                np.add(thetas[c], self._buffers[children[0]][2].reshape(self.sep_in_parent[children[0]]), out=belief)
                for child in children[1:]:
                    belief += self._buffers[child][2].reshape(self.sep_in_parent[child])
            if c == 0:
                _softmax_mass(belief, total, belief)
                break
            maxima, sums, message, _ = self._buffers[c]
            source = belief if children else thetas[c]
            if not children:
                # a leaf keeps its logits, so it tries one shift for the whole
                # clique first and redoes the pass if a separator slice underflows
                shift = source.max()
                self._upward(c, source, shift, belief)
                if sums.min() >= _SUM_FLOOR:
                    np.log(sums, out=message)
                    message += shift
                    continue
            np.maximum.reduce(source, axis=self.drop_axes[c], keepdims=True, out=maxima)
            self._upward(c, source, maxima, belief)
            np.log(sums, out=message)
            message += maxima
        for c in range(1, len(thetas)):
            _, sums, _, margin = self._buffers[c]
            np.einsum(beliefs[self.clique_parents[c]], *self.sep_reductions[c],
                      out=margin.reshape(self.sep_shapes[c]))
            margin /= sums
            beliefs[c] *= margin

    def _upward(self, c: int, source: np.ndarray, shift: np.ndarray | float, belief: np.ndarray) -> None:
        """Write ``exp(source - shift)`` into clique ``c``'s ``belief`` and
        its sums over each separator cell into the clique's sum buffer."""
        np.subtract(source, shift, out=belief)
        np.exp(belief, out=belief)
        np.einsum(belief, *self.sep_sums[c], out=self._buffers[c][1].reshape(self.sep_shapes[c]))

    def marginals(self, beliefs: list[np.ndarray], views: list[np.ndarray]) -> None:
        """Write every node's marginal, from the clique tables ``beliefs``,
        into ``views``."""
        for i, (parent, reduction) in enumerate(zip(self.parents, self.reductions)):
            source = beliefs[self.node_cliques[i]] if parent is None else views[parent]
            np.einsum(source, *reduction, out=views[i])

    def gradient(self, residuals: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Write the sum of the measured residuals, broadcast over each
        clique, into that clique's table in ``grads``.

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
        for grad, tops in zip(grads, self.clique_tops):
            up = [residuals[r].reshape(self.up_shapes[r]) for r in tops]
            if not up:
                grad.fill(0.0)
            elif len(up) == 1:
                np.copyto(grad, up[0])
            else:
                np.add(up[0], up[1], out=grad)
                for r in up[2:]:
                    grad += r

    def start(self, comp: tuple[int, ...], previous: ModelState | None) -> np.ndarray:
        """Flat clique logits a fit starts from: zero, or ``previous``
        projected onto the plan's cliques.  Each measured component ``old`` of
        ``previous`` inside ``comp`` adds ``log mu(C & old) - log mu(S & old)``
        to each clique C with separator S, ``mu`` being ``old``'s marginal, so
        the cliques multiply to prod mu_C / prod mu_S: ``previous`` itself
        whenever the sets it was measured on are among this plan's."""
        theta = np.zeros(self.clique_size)
        for old in previous.measured_components if previous is not None else ():
            if not set(old) <= set(comp):
                continue
            for c, psi in enumerate(self.clique_views(theta)):
                inside = [a for a in self.cliques[c] if comp[a] in old]
                sep = [a for a in inside if c and a in self.cliques[self.clique_parents[c]]]
                for axes, sign in ((inside, 1.0), (sep, -1.0)):
                    if axes:
                        mu = previous.trees[old].marginal(tuple(comp[a] for a in axes))
                        expand = tuple(n if a in axes else 1 for a, n in zip(self.cliques[c], psi.shape))
                        psi += sign * np.log(np.maximum(mu, _LOG_FLOOR)).reshape(expand)
        return theta

    def tree(self, comp: tuple[int, ...], beliefs: list[np.ndarray]) -> "_CliqueTree":
        """The calibrated clique tables ``beliefs`` as a component's tree."""
        separators = [None] + [
            np.einsum(beliefs[p], *reduction) for p, reduction in zip(self.clique_parents[1:], self.sep_reductions[1:])
        ]
        cliques = [tuple(comp[a] for a in clique) for clique in self.cliques]
        return _CliqueTree(comp, cliques, self.clique_parents, beliefs, separators)


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
    previous: ModelState | None,
) -> tuple["_CliqueTree", list[float]]:
    """Fit one component; returns its calibrated tree and objective trace.

    The fit starts uniform, or from ``previous`` projected onto the plan's
    cliques (``_FitPlan.start``).
    """
    plan = _FitPlan(comp, shape, measurements)
    theta = plan.start(comp, previous)
    theta_new, grad = np.empty(plan.clique_size), np.empty(plan.clique_size)
    thetas, thetas_new, grads = map(plan.clique_views, (theta, theta_new, grad))
    # clique tables of the accepted point and of the trial point
    ps, ps_new = (plan.clique_views(np.empty(plan.clique_size)) for _ in range(2))
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

    plan.calibrate(thetas, total, ps)
    plan.marginals(ps, views)
    obj = objective(flat)
    trace = [obj]
    step = 2.0 / plan.alpha_total
    for _ in range(iterations):
        np.multiply(weighted, 2.0, out=residual[plan.measured_cells])
        plan.gradient(residual_views, grads)
        # backtracking line search with Armijo sufficient decrease; a clean
        # first-try acceptance lets the step regrow next iteration
        accepted = False
        first_try = True
        for _ in range(80):
            np.multiply(grad, step, out=theta_new)
            np.subtract(theta, theta_new, out=theta_new)
            plan.calibrate(thetas_new, total, ps_new)
            plan.marginals(ps_new, views_new)
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
        theta, theta_new, thetas, thetas_new = theta_new, theta, thetas_new, thetas
        ps, ps_new = ps_new, ps
        flat, flat_new, views, views_new = flat_new, flat, views_new, views
        obj = obj_new
        trace.append(obj)
        if decrease <= tolerance * max(trace[-2], 1e-300):
            break
    return plan.tree(comp, ps), trace


class _CliqueTree:
    """One component's distribution as calibrated clique tables and the
    separator table between each clique and its parent.

    Every clique and separator table holds that set's marginal counts, so
    the full table is the product of the clique tables over the product of
    the separator tables.  A full table is a tree of one clique.  Cliques
    are attribute tuples of the component, clique 0 is the root and each
    clique's parent precedes it.
    """

    def __init__(self, comp: tuple[int, ...], cliques: list[tuple[int, ...]], parents: list[int | None],
                 beliefs: list[np.ndarray], separators: list[np.ndarray | None]):
        self.comp = comp
        self.cliques = cliques
        self.parents = parents
        self.beliefs = beliefs
        self.separators = separators

    @classmethod
    def full(cls, comp: tuple[int, ...], table: np.ndarray) -> "_CliqueTree":
        return cls(comp, [comp], [None], [np.asarray(table)], [None])

    def scaled(self, factor: float) -> "_CliqueTree":
        return _CliqueTree(self.comp, self.cliques, self.parents, [b * factor for b in self.beliefs],
                           [None] + [s * factor for s in self.separators[1:]])

    def _conditional(self, c: int) -> np.ndarray:
        """Clique ``c``'s table over its separator's, zero where that is zero."""
        belief, parent = self.beliefs[c], self.cliques[self.parents[c]]
        sep = self.separators[c].reshape(
            tuple(n if a in parent else 1 for a, n in zip(self.cliques[c], belief.shape))
        )
        return np.divide(belief, sep, out=np.zeros(belief.shape), where=sep > 0)

    def _factors(self, used: Sequence[int]) -> list[tuple[np.ndarray, tuple[int, ...]]]:
        """The root's table and the conditionals of the other cliques in
        ``used``, each with its attributes."""
        return [(self.beliefs[0] if c == 0 else self._conditional(c), self.cliques[c]) for c in used]

    def table(self) -> np.ndarray:
        """The full table over the component, built on each call of a tree."""
        out = None
        for factor, attrs in self._factors(range(len(self.cliques))):
            factor = factor.reshape(tuple(factor.shape[attrs.index(a)] if a in attrs else 1 for a in self.comp))
            out = factor if out is None else out * factor
        return out

    def marginal(self, attrs: tuple[int, ...]) -> np.ndarray:
        """Marginal counts over ``attrs`` (sorted attributes of the
        component): summed inside the smallest clique that holds them, or
        else contracted, leaves first, over the cliques on their paths to
        the root."""
        inside = [c for c, clique in enumerate(self.cliques) if set(attrs) <= set(clique)]
        if inside:
            c = min(inside, key=lambda c: self.beliefs[c].size)
            drop = tuple(i for i, a in enumerate(self.cliques[c]) if a not in attrs)
            return self.beliefs[c].sum(axis=drop) if drop else self.beliefs[c]
        used = set()
        for a in attrs:
            c = next(c for c, clique in enumerate(self.cliques) if a in clique)
            while c is not None and c not in used:
                used.add(c)
                c = self.parents[c]
        used = sorted(used)
        label = {a: i for i, a in enumerate(self.comp)}
        messages: dict[int, tuple[np.ndarray, list[int]]] = {}
        for (factor, clique), c in reversed(list(zip(self._factors(used), used))):
            operands = [(factor, list(clique))] + [messages.pop(j) for j in used if self.parents[j] == c]
            held = {a for _, axes in operands for a in axes}
            keep = set(attrs) if c == 0 else set(self.cliques[self.parents[c]]) | set(attrs)
            out_axes = [a for a in self.comp if a in held and a in keep]
            args = [x for array, axes in operands for x in (array, [label[a] for a in axes])]
            messages[c] = (np.einsum(*args, [label[a] for a in out_axes]), out_axes)
        return messages[0][0]

    def at(self, rows: np.ndarray) -> np.ndarray:
        """The full table's value at each row of ``rows`` (domain-wide
        attribute codes)."""
        values = None
        for factor, attrs in self._factors(range(len(self.cliques))):
            idx = np.ravel_multi_index(tuple(rows[:, a] for a in attrs), dims=factor.shape)
            picked = factor.reshape(-1)[idx]
            values = picked if values is None else values * picked
        return values


class _ComponentMap(Mapping):
    """Read-only mapping from components to arrays built on each access."""

    def __init__(self, components: Sequence[tuple[int, ...]], build: Callable[[tuple[int, ...]], np.ndarray]):
        self._components = tuple(components)
        self._build = build

    def __getitem__(self, comp: tuple[int, ...]) -> np.ndarray:
        if comp not in self._components:
            raise KeyError(comp)
        return self._build(comp)

    def __contains__(self, comp: object) -> bool:
        return comp in self._components

    def __iter__(self):
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)


class ModelState:
    """Fitted nonnegative distribution factorized over components.

    ``tables`` maps components to full tables or to fitted clique trees;
    each component is kept as a tree (a full table being a one-clique tree)
    in ``trees``, and components with no entry are uniform.
    """

    def __init__(
        self,
        domain: Domain,
        total: float,
        measured_components: Sequence[tuple[int, ...]],
        tables: dict[tuple[int, ...], np.ndarray | _CliqueTree],
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
        self.trees = {
            comp: tree if isinstance(tree, _CliqueTree) else _CliqueTree.full(comp, tree)
            for comp, tree in tables.items()
        }
        for comp in self.components:
            if comp not in self.trees:
                size = domain.size(comp)
                self.trees[comp] = _CliqueTree.full(comp, np.full(domain.shape(comp), self.total / size))
        self.meta = meta or {}

    @property
    def tables(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """Full table of each component, built on access."""
        return _ComponentMap(self.components, lambda c: self.trees[c].table())

    @property
    def logits(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """``log(table)`` of each measured component, built on access."""
        return _ComponentMap(
            self.measured_components, lambda c: np.log(np.maximum(self.trees[c].table(), _LOG_FLOOR))
        )

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
            groups.append((inter, self.trees[comp].marginal(inter) / self.total))
        joint = groups[0][1]
        order = list(groups[0][0])
        for attrs, part in groups[1:]:
            joint = np.multiply.outer(joint, part)
            order.extend(attrs)
        perm = np.argsort(order)
        joint = np.transpose(joint, perm)
        return joint.reshape(-1) * self.total

    def sample(self, n_rows: int, rng: np.random.Generator) -> DiscreteDataset:
        """Draw i.i.d. rows, each component sampled independently from its
        full table."""
        if n_rows < 0:
            raise ValueError("n_rows must be >= 0")
        rows = np.zeros((n_rows, len(self.domain)), dtype=np.int64)
        if n_rows == 0:
            return DiscreteDataset(self.domain, rows, validate=False)
        for comp, table in self.tables.items():
            flat = table.reshape(-1)
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
            logp += np.log(np.maximum(self.trees[comp].at(holdout.rows) / self.total, NLL_FLOOR))
        return float(-logp.mean())

    def size_bytes(self, candidate: MarginalQuery | None = None) -> int:
        """Model size (bytes) after hypothetically measuring ``candidate``,
        counted as full component tables."""
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

    ``warm_start`` starts each component at the previous model's clique
    marginals projected onto the component's cliques (merged components at
    the product of their parts): the previous model itself whenever its
    measurements are among these, as in every protocol's refits.  Defaults
    start every component uniform.
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

    trees: dict[tuple[int, ...], _CliqueTree] = {}
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
            trees[comp] = warm_start.trees[comp].scaled(total / warm_start.total)
            traces[comp] = warm_start.meta["objective_traces"][comp][-1:]
            continue
        trees[comp], traces[comp] = _fit_component(
            comp, shape, local, total, iterations, tolerance, warm_start
        )
    meta = {
        "objective_traces": traces,
        "n_measurements": len(measurements),
        "comp_signatures": signatures,
    }
    return ModelState(domain, total, comps, trees, meta)

