"""Minimisation of the non-local energy on the admissible lattice class.

monotone_descent is the package's one accept/reject loop (the harmonic limit
solve runs on it too).  Two update rules share it here: the Anderson-
accelerated Euler-Lagrange self-consistency iteration for the fixed point
u = Lambda^{-1}(K_eps * u), and a projected gradient descent.  Both monitor
the oscillation-form energy and only accept non-increasing trials whose dual
solve succeeds, so agreement of their minima cross-checks the two rules.
A damped fixed-point step stays inside the moment set, because Lambda^{-1}
maps into it; an extrapolated Anderson trial can leave it, and is then
rejected through OutsideMomentDomain like any other failed trial.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MaxIterations, OutsideMomentDomain
from .field import OrderField, ball_mask, convolve, energy_oscillation, omega_split
from .field import _neighbour_slices, require_padding
from .kernel import SampledKernel
from .potential import BulkPotential, dual_map, lambda_inverse

# number of past iterate and residual differences the Anderson proposal mixes
ANDERSON_DEPTH = 5
# smallest damping el_fixed_point halves to before its solve gives up
ALPHA_MIN = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    alpha: float = 0.5
    tol: float = 1e-8
    max_iter: int = 2000
    descent_step: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not (self.tol > 0 and self.max_iter > 0 and self.descent_step > 0):  # NaN fails too
            raise ValueError("tolerances, step and iteration budget must be positive")


@dataclass
class SolveResult:
    field: OrderField
    residuals: list
    energies: list
    margin: float
    lipschitz: float
    iterations: int
    reason: str
    method: str

    @property
    def converged(self):
        return self.reason == "converged"


def physicality_margin(field: OrderField, sigma_max: float) -> float:
    """Radial distance of the interior values from the moment-set boundary."""
    om = field.domain.omega_mask
    if not om.any():
        return sigma_max
    return float(sigma_max - np.linalg.norm(field.values[om], axis=-1).max())


def lipschitz_estimate(field: OrderField) -> float:
    """Max difference quotient |u(x)-u(y)|/h over adjacent interior cell pairs."""
    om = field.domain.omega_mask
    u = field.values
    worst = 0.0
    for lo, hi in _neighbour_slices():
        both = om[lo] & om[hi]
        if not both.any():
            continue
        d = np.linalg.norm(u[lo] - u[hi], axis=-1)
        worst = max(worst, float(d[both].max()))
    return worst / field.domain.h


def el_fixed_point(
    init: OrderField,
    sampled: SampledKernel,
    bulk: BulkPotential,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Anderson-accelerated Euler-Lagrange self-consistency iteration.

    The fixed-point map is G(u) = Lambda^{-1}(K_eps*u) on Omega, with residual
    f = G(x) - x, evaluated once per accepted iterate x.  Over the last
    ANDERSON_DEPTH + 1 accepted iterates the proposal solves the small
    least-squares problem min |f - dF gamma| on the residual differences dF
    and extrapolates to x + alpha f - (dX + alpha dF) gamma, where dX are the
    iterate differences.  config.alpha is both the mixing weight and the
    damping of the plain step x + alpha f = (1-alpha) x + alpha G(x), which is
    the first trial and the trial after a rejection (or a non-finite gamma).
    A damped trial lies strictly inside the moment set; an extrapolated one
    can leave it, and its dual solve then raises OutsideMomentDomain.  Trials
    that leave the set or raise the oscillation energy are rejected: the
    history is dropped and the step halved.  Running out of damping or
    iterations raises MaxIterations with the best result attached.
    """
    xs, fs = [], []  # flattened accepted iterates on Omega and their residuals

    def propose(u_om, v_om, b, alpha, rejected):
        if rejected:
            del xs[:-1], fs[:-1]
        else:
            xs.append(u_om.ravel())
            fs.append((lambda_inverse(bulk.model, v_om) - u_om).ravel())
            del xs[:-ANDERSON_DEPTH - 1], fs[:-ANDERSON_DEPTH - 1]
        trial = xs[-1] + alpha * fs[-1]
        if len(xs) > 1:
            dX, dF = np.diff(xs, axis=0).T, np.diff(fs, axis=0).T
            gamma = np.linalg.lstsq(dF, fs[-1], rcond=None)[0]
            if np.all(np.isfinite(gamma)):
                trial -= (dX + alpha * dF) @ gamma
        return trial.reshape(u_om.shape)

    return _oscillation_descent(init, sampled, bulk, config, "el_fixed_point", propose,
                                step=config.alpha, grow=1.0, floor=ALPHA_MIN,
                                exhausted="damping_exhausted")


def gradient_descent(
    init: OrderField,
    sampled: SampledKernel,
    bulk: BulkPotential,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Projected gradient descent with backtracking.

    It shares the accept/reject driver with el_fixed_point and differs only
    in the update: a step along -energy_gradient that grows by 1.1 on every
    accepted step.  Steps that would leave the moment set are clipped
    radially to a safe interior radius; the clip is inactive at strictly
    physical minimisers.
    """
    safe = 0.995 * bulk.model.sigma_max

    def propose(u_om, v_om, b, step, rejected):
        cand = u_om - step * ((b - v_om) / init.eps**2)
        norms = np.linalg.norm(cand, axis=-1, keepdims=True)
        return np.where(norms > safe, cand * (safe / norms), cand)

    return _oscillation_descent(init, sampled, bulk, config, "gradient_descent", propose,
                                step=config.descent_step, grow=1.1, floor=1e-12,
                                exhausted="step_exhausted")


def monotone_descent(trial, state, energy, residual, finish, *, tol, max_iter,
                     step, grow, cap, floor, rtol, exhausted):
    """The package's accept/reject loop, shared by every iterative solve.

    trial(state, step, rejected) returns (state, energy, residual) of a trial
    from the current state; rejected says whether the previous trial was.  A
    trial is accepted when its energy is at most E + rtol (1 + |E|), E the
    current energy, and the step becomes min(step * grow, cap); a rejection
    halves the step, and below floor the solve ends with reason exhausted.
    It converges once the residual is at most tol, at the start or after any
    accepted trial, the budget's last included.  finish(state, energies,
    residuals, iterations, reason) builds the result (lists start with the
    start's values); every other ending raises MaxIterations carrying it.
    """
    energies, residuals = [energy], [residual]
    it, rejected, reason = 0, False, "max_iterations"
    while it < max_iter and not residuals[-1] <= tol:
        it += 1
        candidate, e_trial, r_trial = trial(state, step, rejected)
        rejected = e_trial > energies[-1] + rtol * (1.0 + abs(energies[-1]))
        if not rejected:
            state, step = candidate, min(step * grow, cap)
            energies.append(e_trial)
            residuals.append(r_trial)
            continue
        step *= 0.5
        if step < floor:
            reason = exhausted
            break
    if residuals[-1] <= tol:
        reason = "converged"
    result = finish(state, energies, residuals, it, reason)
    if reason != "converged":
        raise MaxIterations(
            f"no convergence in {it} iterations: {reason} at residual {residuals[-1]:g}",
            result=result,
        )
    return result


def result_of(solve, *args, **kwargs):
    """solve(*args, **kwargs), or the partial result of the MaxIterations it raises."""
    try:
        return solve(*args, **kwargs)
    except MaxIterations as exc:
        return exc.result


def best_of(starts, solve):
    """Run solve on each (label, start) and keep the lowest final energy.

    A solve that raises MaxIterations counts with its partial result.
    Returns (best result, list of (label, final energy) for every start).
    """
    best, log = None, []
    for label, start in starts:
        res = result_of(solve, start)
        log.append((label, res.energies[-1]))
        if best is None or res.energies[-1] < best.energies[-1]:
            best = res
    return best, log


def _oscillation_descent(init, sampled, bulk, config, method, propose, step, grow, floor,
                         exhausted):
    """Trials of el_fixed_point and gradient_descent on the oscillation energy.

    Only the values on Omega change, so the state is (u, v, b) on Omega: the
    values, v = K_eps*u and the duals b = Lambda(u) there.  The start's
    OmegaSplit holds what the fixed values off Omega contribute; it costs the
    solve's one whole-box convolution.  propose(u, v, b, step, rejected)
    returns the trial values, and each trial then costs one FFT convolution
    over Omega's bounding window, sums over Omega and one dual solve
    warm-started from b, with no array of the box's size.  A trial whose dual
    solve leaves the moment set (OutsideMomentDomain) has infinite energy, so
    monotone_descent rejects it.  An accepted trial's state is the next
    iterate's, and its residual sup |b - v| costs nothing more.  finish builds
    the one whole-box field.
    """
    dom = init.domain
    om = dom.omega_mask
    require_padding(dom, sampled)
    split = omega_split(init, sampled)

    def evaluate(u, b0=None):
        v = split.convolve(u)
        b = dual_map(bulk.model, u, b0=b0)
        energy = split.energy(bulk, u, v, b).total
        # sup-norm of Lambda(u) - K_eps*u over interior cells
        return (u, v, b), energy, float(np.linalg.norm(b - v, axis=-1).max(initial=0.0))

    def trial(state, step, rejected):
        try:
            return evaluate(propose(*state, step, rejected), state[2])
        except OutsideMomentDomain:
            return None, np.inf, np.inf

    def finish(state, energies, residuals, it, reason):
        u = init.copy()
        u.values[om] = state[0]
        return SolveResult(u, residuals, energies, physicality_margin(u, bulk.model.sigma_max),
                           lipschitz_estimate(u), it, reason, method)

    return monotone_descent(trial, *evaluate(init.values[om]), finish, tol=config.tol,
                            max_iter=config.max_iter, step=step, grow=grow, cap=np.inf,
                            floor=floor, rtol=1e-12, exhausted=exhausted)


def energy_gradient(field: OrderField, sampled: SampledKernel, bulk: BulkPotential):
    """(Lambda(u) - K_eps*u)/eps^2 on interior cells, zero elsewhere.

    The variation of the primal energy in an interior cell is h^3 times this
    vector, so it matches finite differences of energy_primal up to the cell
    volume factor.
    """
    om = field.domain.omega_mask
    v = convolve(sampled, field.values, field.domain.h)
    b = dual_map(bulk.model, field.values[om])
    g = np.zeros_like(field.values)
    g[om] = (b - v[om]) / field.eps**2
    return g


def minimize_multistart(
    boundary_init: OrderField,
    sampled: SampledKernel,
    bulk: BulkPotential,
    config: SolverConfig = SolverConfig(),
    n_random: int = 2,
) -> tuple:
    """Run the EL iteration from the boundary-datum init plus random starts.

    Returns (best result, list of (label, energy) for every start).
    """
    rng = np.random.default_rng(config.seed)
    om = boundary_init.domain.omega_mask
    starts = [("boundary", boundary_init)]
    for k in range(n_random):
        f = boundary_init.copy()
        r = rng.standard_normal((int(om.sum()), f.m))
        r *= 0.5 * bulk.model.sigma_max / np.maximum(
            np.linalg.norm(r, axis=-1, keepdims=True), 1e-12
        )
        f.values[om] = r * rng.random((int(om.sum()), 1))
        starts.append((f"random{k}", f))
    return best_of(starts, lambda f0: el_fixed_point(f0, sampled, bulk, config))


def omega_minimality_probe(
    field: OrderField,
    center,
    rho: float,
    sampled: SampledKernel,
    bulk: BulkPotential,
    n_trials: int = 50,
    seed: int = 0,
    amplitude: float = 0.05,
) -> float:
    """Worst energy decrease over structured competitors supported in a ball.

    Competitors agree with the field off B_rho(center) and replace it inside
    by a local constant, a neighbour-smoothed version, or seeded random
    perturbations clipped radially to 0.98 sigma_max; one that still leaves
    the moment set counts as no decrease.  Positive return = an improving
    competitor found.
    """
    dom = field.domain
    mask = ball_mask(dom, center, rho) & dom.omega_mask
    if not mask.any():
        return 0.0
    om_all = dom.omega_mask
    b_warm = dual_map(bulk.model, field.values[om_all])
    e0 = energy_oscillation(field, sampled, bulk, b0=b_warm).total
    model = bulk.model
    safe = 0.98 * model.sigma_max
    rng = np.random.default_rng(seed)
    worst = -np.inf

    def energy_of(vals):
        # radial clipping keeps an s1 value in the moment set but not every m = 5
        # one; a competitor outside it has infinite energy and decreases nothing
        try:
            return energy_oscillation(OrderField(dom, field.eps, vals), sampled, bulk,
                                      b0=b_warm).total
        except OutsideMomentDomain:
            return np.inf

    # local constant replacement
    mean = field.values[mask].mean(axis=0)
    nm = np.linalg.norm(mean)
    if nm > safe:
        mean *= safe / nm
    vals = field.values.copy()
    vals[mask] = mean
    worst = max(worst, e0 - energy_of(vals))

    # neighbour-smoothed replacement
    sm = field.values.copy()
    for _ in range(2):
        acc = np.zeros_like(sm)
        for lo, hi in _neighbour_slices():  # e0 checked the padding: no mask cell on a face
            acc[lo] += sm[hi]
            acc[hi] += sm[lo]
        sm = np.where(mask[..., None], acc / 6.0, sm)
    worst = max(worst, e0 - energy_of(sm))

    # random physical perturbations
    for _ in range(max(0, n_trials - 2)):
        scale = amplitude * rng.random()
        vals = field.values.copy()
        pert = rng.standard_normal((int(mask.sum()), field.m))
        cand = vals[mask] + scale * pert
        norms = np.linalg.norm(cand, axis=-1, keepdims=True)
        cand = np.where(norms > safe, cand * (safe / norms), cand)
        vals[mask] = cand
        worst = max(worst, e0 - energy_of(vals))
    return float(worst)
