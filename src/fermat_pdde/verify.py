"""Randomized residual verification and growth-order estimation.

Identity testing here is numeric, not symbolic: a residual that vanishes
at a few hundred generic points of a polydisc is accepted as identically
zero for this class of holomorphic expressions, whose nonzero members
have thin zero sets.  Residuals are scaled pointwise by the equation's
own largest term, so cancellations between huge terms are judged
relative to those terms, never in absolute size.

The growth order of an entire candidate is estimated from the maximum
modulus over random directions at a geometric ladder of radii, fitting
the slope of log log M(r) against log r over the largest radii that
evaluate without overflow.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import expr as ex
from .backends import BLOCK, eval_blocks
from .errors import EstimationError, ProblemSpecError
from .expr import DEFAULT_POLE_EPS, Expr
from .tape import compile_expr

__all__ = [
    "SamplingPolicy",
    "VerificationReport",
    "GrowthEstimate",
    "sample_points",
    "check_residual",
    "verify_problem",
    "is_identically_zero",
    "estimate_order",
    "default_radii",
    "strict_json",
]


def strict_json(payload) -> str:
    """`payload` as JSON with sorted keys; a non-finite float is written as null.

    JSON has no inf or NaN, so a report whose residual could not be
    measured (no surviving point) still parses as standard JSON.  A first
    dump writes them as the words NaN and Infinity; reading it back maps
    each to None.
    """
    plain = json.loads(json.dumps(payload), parse_constant=lambda word: None)
    return json.dumps(plain, sort_keys=True, allow_nan=False)


@dataclass(frozen=True)
class SamplingPolicy:
    """How to sample and when to accept: counts, radius, seed, tolerances."""

    samples: int = 200
    radius: float = 2.0
    seed: int = 42
    pole_eps: float = 1e-8
    tol: float = 1e-8

    def __post_init__(self):
        # policies come from problem files and flags: reject what would
        # crash the sampler or make every verdict pass
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProblemSpecError(f"{name} must be an integer, got {value!r}")
        for name in ("radius", "tol", "pole_eps"):
            value = getattr(self, name)
            # compared, not converted: an int too large for a double is rejected, not raised on
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise ProblemSpecError(f"{name} must be a finite number, got {value!r}")
        if self.samples < 1:
            raise ProblemSpecError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ProblemSpecError(f"seed must be >= 0, got {self.seed}")
        if not (self.radius > 0):
            raise ProblemSpecError(f"radius must be positive, got {self.radius}")
        if not (self.tol > 0):
            raise ProblemSpecError(f"tol must be positive, got {self.tol}")
        if self.pole_eps < 0:
            raise ProblemSpecError(f"pole_eps must be >= 0, got {self.pole_eps}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    """Residual statistics over the sample, with the policy echoed back."""

    n: int
    points_tested: int
    points_skipped: int
    max_abs_residual: float
    max_rel_residual: float
    passed: bool
    policy: SamplingPolicy

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "n": self.n,
            "points_tested": self.points_tested,
            "points_skipped": self.points_skipped,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "policy": self.policy.to_dict(),
        }

    def to_text(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            f"points_tested: {self.points_tested}",
            f"points_skipped: {self.points_skipped}",
            f"max_abs_residual: {self.max_abs_residual!r}",
            f"max_rel_residual: {self.max_rel_residual!r}",
        ]
        for k, v in self.policy.to_dict().items():
            lines.append(f"policy.{k}: {v!r}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return strict_json(self.to_dict())


#: most candidate pairs one draw takes: its two work buffers are 128 KiB each
_MAX_DRAW = 2 * BLOCK


def _draw_size(need: int) -> int:
    """Candidate pairs to draw for `need` accepted ones: 4/3 of it, at most _MAX_DRAW.

    A pair of the square lands in the unit disc with probability pi/4, so
    4/3 is about 5% more than the expected need.
    """
    return min((4 * need + 2) // 3, _MAX_DRAW)


def _inside_disc(rng: np.random.Generator, draws: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Draw len(draws) // 2 candidate pairs; return those inside the unit disc.

    `draws` and `squares` are work buffers of the same length.  Candidate
    k is x + iy with x = 2*d[2k] - 1 and y = 2*d[2k+1] - 1 for the next
    uniform doubles d of `rng`; it is kept when x*x + y*y < 1.0.
    """
    rng.random(out=draws)
    draws *= 2.0
    draws -= 1.0
    np.multiply(draws, draws, out=squares)
    rad2 = squares[0::2]
    np.add(rad2, squares[1::2], out=rad2)
    return draws.view(np.complex128)[rad2 < 1.0]


def _point_blocks(policy: SamplingPolicy, n: int):
    """The polydisc sample of `sample_points`, yielded in blocks of at most BLOCK rows.

    Each block draws about 4/3 of the candidate pairs it still needs (see
    `_inside_disc`), at most _MAX_DRAW at a time, into two buffers reused
    for the whole sample; it keeps the first accepted pairs it needs and
    carries the rest into the next block.  The doubles a generator yields
    do not depend on how its calls are chunked, so block k is rows
    k*BLOCK.. of `sample_points`, bit for bit, whatever BLOCK and the draw
    sizes are.
    """
    if n < 1:
        raise ProblemSpecError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(policy.seed)
    most = _draw_size(min(policy.samples, BLOCK) * n)
    draws, squares = np.empty(2 * most), np.empty(2 * most)
    carry = np.empty(0, dtype=np.complex128)
    for lo in range(0, policy.samples, BLOCK):
        pts = np.empty(min(BLOCK, policy.samples - lo) * n, dtype=np.complex128)
        have = min(carry.size, pts.size)
        pts[:have] = carry[:have]
        carry = carry[have:]
        while have < pts.size:
            k = _draw_size(pts.size - have)
            fresh = _inside_disc(rng, draws[: 2 * k], squares[: 2 * k])
            take = min(fresh.size, pts.size - have)
            pts[have : have + take] = fresh[:take]
            carry = fresh[take:].copy()  # copied: between blocks only the surplus is held
            have += take
        pts.view(np.float64)[...] *= policy.radius  # radius * x and radius * y
        yield pts.reshape(-1, n)


def sample_points(policy: SamplingPolicy, n: int) -> np.ndarray:
    """(samples, n) array; every coordinate uniform on the disc of the policy radius.

    One generator, `default_rng(seed)`, yields doubles d0, d1, ...; pair
    k is the candidate x + iy with x = 2*d(2k) - 1 and y = 2*d(2k+1) - 1,
    accepted when x*x + y*y < 1.0 (rejection from the square, with no
    cos, sin or sqrt).  Coordinate j of point i is radius * (x + iy) of
    accepted pair i*n + j.  So a sample of S points is the first S rows of
    every larger sample of the same seed and radius.  The checks draw the
    same points block by block and never hold the whole array.
    """
    return np.concatenate(list(_point_blocks(policy, n)))


def _sampled(roots: list[Expr], policy: SamplingPolicy, n: int):
    """Evaluate the roots as one tape on the policy's sample, one block at a time.

    Yields, per block of at most BLOCK points, the values, one row per
    root, and the mask of the points where every root is finite.
    `eval_blocks` NaN-fills a rejected lane in every root, so that mask
    is its ok row ANDed with finiteness; an overflow lane is ok and not
    finite.  A subexpression the roots share is computed once per point.
    The values are `eval_blocks`' view, valid until the next block.
    """
    blocks = eval_blocks(compile_expr(roots), n, _point_blocks(policy, n), pole_eps=policy.pole_eps)
    for vals, _ in blocks:
        # |v| can overflow where v does not, so finiteness is judged on
        # the values, not on their moduli
        yield vals, np.isfinite(vals).all(axis=0)


def check_residual(
    res: Expr,
    scale_terms: list[Expr],
    policy: SamplingPolicy,
    n: int,
    guards: list[tuple[Expr, float]] | None = None,
) -> VerificationReport:
    """Sample the residual and compare against max(1, largest scale term).

    The residual, the scale terms and the guards are evaluated as one tape
    on a stream of point blocks; each block is reduced to its tested count
    and its largest absolute and relative residual before the next is
    drawn, so memory stays bounded by the block size, not the sample
    count.  A maximum is exact, so the report does not depend on the
    blocking.  Points where any expression pole-hits, evaluates
    non-finite, or where a guard expression has modulus below its floor
    are skipped (and counted); a pass needs fewer than half the sample
    skipped, so exactly half skipped fails.
    """
    guards = guards or []
    k = 1 + len(scale_terms)
    tested = 0
    max_abs = max_rel = 0.0
    for vals, keep in _sampled([res, *scale_terms, *(g for g, _ in guards)], policy, n):
        mags = np.abs(vals)
        for row, (_, floor) in zip(mags[k:], guards):
            keep &= row >= floor
        kept = int(keep.sum())
        if not kept:
            continue
        tested += kept
        scale = np.maximum.reduce(mags[1:k], axis=0, initial=1.0)
        with np.errstate(invalid="ignore"):  # inf / inf: the lane is replaced below
            rel = mags[0] / scale
        # a finite value whose modulus overflows gives inf where the ratio is
        # finite: there the ratio is taken of the values halved, which is exact
        big = np.flatnonzero(keep & (np.isinf(scale) | np.isinf(mags[0])))
        if big.size:
            half = np.abs(0.5 * vals[:k, big])
            rel[big] = half[0] / np.maximum(0.5, half[1:].max(axis=0, initial=0.0))
        max_abs = max(max_abs, float(np.max(mags[0], where=keep, initial=0.0)))
        max_rel = max(max_rel, float(np.max(rel, where=keep, initial=0.0)))

    skipped = policy.samples - tested
    if tested == 0:
        return VerificationReport(n, 0, skipped, float("inf"), float("inf"), False, policy)
    passed = bool(max_rel <= policy.tol and skipped < policy.samples / 2)
    return VerificationReport(n, tested, skipped, max_abs, max_rel, passed, policy)


def verify_problem(problem, f: Expr, policy: SamplingPolicy | None = None,
                   guards: list[tuple[Expr, float]] | None = None) -> VerificationReport:
    """Convenience wrapper: residual + scale terms from an equation instance."""
    from .operators import residual, scale_terms as mk_scale

    policy = policy or SamplingPolicy()
    return check_residual(residual(problem, f), mk_scale(problem, f), policy, problem.n,
                          guards=guards)


#: `is_identically_zero`: a sum counts as zero where |sum| <= ZERO_TOL *
#: max |summand|; at 1 or more every sampled leaf would count as zero
ZERO_TOL = 1e-10


def _zero_candidates(e: Expr) -> list[Expr]:
    """Sums and leaves of e, one of which vanishes iff e does.

    Holomorphic functions on a polydisc have no zero divisors, so a product
    vanishes identically iff one of its factors does; a quotient iff its
    numerator does; a positive power iff its base does.  The descent keeps
    an explicit stack, so it reaches any depth; it enters only some
    operands, in pre-order, so it is no `expr._postorder` walk.
    """
    out = []
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, ex.Neg):
            stack.append(x.arg)
        elif isinstance(x, ex.Mul):
            stack.extend(reversed(x.factors))
        elif isinstance(x, ex.Div):
            stack.append(x.num)
        elif isinstance(x, ex.Pow) and x.exponent > 0:
            stack.append(x.base)
        else:
            out.append(x)
    return out


def is_identically_zero(e: Expr, n: int) -> bool:
    """Sampling test for e vanishing identically on a polydisc.

    A constant expression is decided without a probe: it is zero iff its
    value == 0, so 0 and -0.0 are and a subnormal, NaN or inf is not (the
    answers the probe gives them).  Products, quotients and positive
    powers are split first: e vanishes iff one of its `_zero_candidates`
    does.  A sum counts as zero when |sum| <= ZERO_TOL * max |summand| at
    every probe point, any other leaf only when it is exactly zero.  So a
    tiny nonzero expression is not mistaken for zero and huge terms that
    cancel to roundoff are, also inside a product.
    Holomorphic functions in this expression class that vanish on a dozen
    generic points of a polydisc (the fixed probe: 12 points of the
    radius-1.1 polydisc) are identically zero for our purposes.
    """
    if isinstance(e, ex.Const):  # nothing to sample: the probe would answer value == 0
        return e.value == 0
    roots = [e]  # evaluated only for its pole mask: denominators are no candidates
    groups = []
    for cand in _zero_candidates(e):
        terms = cand.terms if isinstance(cand, ex.Add) else (cand,)
        groups.append((len(roots), len(terms)))
        roots += [cand, *terms]
    probe = SamplingPolicy(samples=12, radius=1.1, seed=987654321 + n, pole_eps=DEFAULT_POLE_EPS)
    kept = False
    zero = [True] * len(groups)  # per group: every kept point so far passes
    for vals, keep in _sampled(roots, probe, n):
        if not keep.any():
            continue
        kept = True
        mags = np.abs(vals[:, keep])
        for g, (i, k) in enumerate(groups):
            zero[g] = zero[g] and bool(np.all(mags[i] <= ZERO_TOL * mags[i + 1 : i + 1 + k].max(axis=0)))
    return kept and any(zero)


# ---------------------------------------------------------------------------
# growth order


def default_radii() -> tuple[float, ...]:
    """Geometric ladder 4 .. 1024 with ratio sqrt(2)."""
    return tuple(float(4.0 * 2.0 ** (k / 2.0)) for k in range(17))


@dataclass(frozen=True)
class GrowthEstimate:
    """Max-modulus samples per radius and the fitted order exponent."""

    radii: tuple[float, ...]
    max_modulus: tuple[float, ...]
    rho_hat: float
    fit_radii: tuple[float, ...]
    ladder_truncated: bool
    directions: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "max_modulus": list(self.max_modulus),
            "rho_hat": self.rho_hat,
            "fit_radii": list(self.fit_radii),
            "ladder_truncated": self.ladder_truncated,
            "directions": self.directions,
            "seed": self.seed,
        }

    def to_text(self) -> str:
        lines = [f"rho_hat: {self.rho_hat!r}"]
        for r, m in zip(self.radii, self.max_modulus):
            lines.append(f"M({r:g}): {m!r}")
        lines.append(f"fit_radii: {', '.join('%g' % r for r in self.fit_radii)}")
        lines.append(f"ladder_truncated: {self.ladder_truncated}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return strict_json(self.to_dict())


def estimate_order(
    f: Expr,
    n: int,
    radii=None,
    directions: int = 200,
    seed: int = 42,
) -> GrowthEstimate:
    """Order exponent from the slope of log log M(r) against log r.

    One direction set is drawn on the unit sphere of C^n and rescaled to
    every radius, so M(r) is smooth in r and the top-of-ladder slope is
    stable.  Radii where the candidate overflows are dropped from the top
    (the usable prefix is reported); pole hits abort, since the estimator
    is only meaningful for candidates that are entire on the sample.  A
    candidate with wp is refused before any point is drawn: it is
    meromorphic, M(r) is infinite, and the fit would give a meaningless
    (even negative) order.  So is a fit whose max modulus falls from the
    next radius to the top one: an entire function's max modulus never
    falls, so a falling one means poles off the sample or too few
    directions to find the growth.  The ladder streams through
    `eval_blocks` in blocks of whole radii and stops after the first group
    of radii that overflows or hits a pole.
    """
    radii = tuple(float(r) for r in (radii if radii is not None else default_radii()))
    if len(radii) < 2 or radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise EstimationError("need at least two strictly increasing positive radii")
    if directions < 1:
        raise EstimationError("need at least one direction")
    if seed is not None and seed < 0:
        raise ProblemSpecError(f"seed must be >= 0, got {seed}")
    tape = compile_expr(f)
    if tape.has_wp:
        raise EstimationError("order estimation needs an entire candidate or a quotient of entire ones")
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((directions, n)) + 1j * rng.standard_normal((directions, n))
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0] = 1.0
    dirs = vecs / norms[:, None]

    # block k is radii i:j at directions lo:hi: max(1, BLOCK // directions)
    # whole radii, or one radius in chunks of BLOCK directions
    step = max(1, BLOCK // directions)
    plan = [(i, min(i + step, len(radii)), lo, min(lo + BLOCK, directions))
            for i in range(0, len(radii), step) for lo in range(0, directions, BLOCK)]
    ladder = np.asarray(radii)
    blocks = ((ladder[i:j, None, None] * dirs[lo:hi]).reshape(-1, n) for i, j, lo, hi in plan)
    mod = np.zeros(len(radii))  # running max |f| per radius: np.maximum keeps a NaN
    pole = np.zeros(len(radii), dtype=bool)
    for (i, j, lo, hi), (vals, ok) in zip(plan, eval_blocks(tape, n, blocks, pole_eps=DEFAULT_POLE_EPS)):
        np.maximum(mod[i:j], np.abs(vals).reshape(j - i, hi - lo).max(axis=1), out=mod[i:j])
        pole[i:j] |= ~ok.reshape(j - i, hi - lo).all(axis=1)
        if hi == directions and (pole[i:j].any() or not np.isfinite(mod[i:j]).all()):
            break  # the read below stops in this group: no larger radius is drawn

    # the radii are read in order, so a pole or an overflow past the first
    # overflow never counts, and no radius left undrawn is reached
    usable: list[float] = []
    max_mod: list[float] = []
    truncated = False
    for r, m, hit in zip(radii, mod.tolist(), pole):
        if hit:
            raise EstimationError(
                f"pole hit at radius {r:g}: order estimation expects entire candidates"
            )
        if not np.isfinite(m):
            truncated = True
            break
        usable.append(r)
        max_mod.append(m)
    if len(usable) < 2:
        raise EstimationError(
            f"overflow before two usable radii (usable prefix: {usable}); shrink the ladder"
        )

    fit_r = []
    fit_m = []
    for r, m in zip(reversed(usable), reversed(max_mod)):
        if m > 1.0:
            fit_r.append(r)
            fit_m.append(m)
        if len(fit_r) == 2:
            break
    if len(fit_r) < 2:
        raise EstimationError("max modulus never exceeded 1; cannot fit a growth order")
    if fit_m[0] < fit_m[1]:  # the fit would give a negative order
        raise EstimationError(
            f"max modulus falls from {fit_m[1]:.6g} at radius {fit_r[1]:g} to {fit_m[0]:.6g} at "
            f"radius {fit_r[0]:g}, which an entire function's cannot: the candidate has poles, "
            "or the directions miss where it grows"
        )
    x = np.log(np.asarray(fit_r))
    y = np.log(np.log(np.asarray(fit_m)))
    slope = float(np.polyfit(x, y, 1)[0])
    return GrowthEstimate(
        radii=tuple(usable),
        max_modulus=tuple(max_mod),
        rho_hat=slope,
        fit_radii=tuple(sorted(fit_r)),
        ladder_truncated=truncated,
        directions=directions,
        seed=seed,
    )
