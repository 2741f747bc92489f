"""Spectral classification of the transition operator on classical sequence spaces.

On every supported space (c_0, c, l^α for 1 <= α <= ∞) the spectrum of the
transition operator coincides with the filled set E of the fibered dynamics;
what varies between spaces is how the spectrum splits into point, residual
and continuous parts.  The classifiers here return three-valued verdicts
backed by certificates; numerical budget exhaustion is reported as such and
never upgraded to a claim.

Decision rules are cited by descriptive identifiers in the witness payloads
(e.g. "escape-certificate", "contraction-certificate-rho",
"point-empty-when-p-does-not-approach-1") so reports are self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .chain import ChainConfig
from .dynamics import (
    RHO,
    FactorTrace,
    FiberedSystem,
    TraceStatus,
    _check_tol,
    _ipow,
    escape_classify,
    factor_trace,
    factor_values,
    residual_set,
)
from .errors import DivisionByZeroIotaError, OutOfRangeError
from .sequences import (
    SumVerdict,
    limit_is_one,
    limsup_below_one,
    monotone_increasing,
    product_verdict,
    ProductVerdict,
    sum_alpha_verdict,
)

__all__ = [
    "Space",
    "L_INF",
    "C0",
    "C",
    "l_alpha",
    "parse_space",
    "Membership",
    "SpectralPart",
    "SpectralVerdict",
    "spectrum_membership",
    "point_c0",
    "point_c",
    "point_lalpha",
    "series_partial_sum",
    "dual_consistency_residual",
    "ResidualReport",
    "residual_l1",
    "residual_verdict",
    "classify",
    "spectrum_summary",
]


@dataclass(frozen=True)
class Space:
    """A sequence space: one of l^∞, c_0, c, or l^α (α >= 1)."""

    family: str  # "linf" | "c0" | "c" | "lalpha"
    alpha: float | None = None

    def __str__(self):
        if self.family == "lalpha":
            a = self.alpha
            return f"l{int(a)}" if float(a) == int(a) else f"l{a}"
        return self.family


L_INF = Space("linf")
C0 = Space("c0")
C = Space("c")


def l_alpha(alpha) -> Space:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 1):
        raise OutOfRangeError(f"l^alpha needs a finite alpha >= 1, got {alpha}")
    return Space("lalpha", alpha)


def parse_space(text: str) -> Space:
    t = text.strip().lower()
    if t in ("linf", "loo", "l_inf"):
        return L_INF
    if t == "c0":
        return C0
    if t == "c":
        return C
    if t.startswith("l"):
        try:
            return l_alpha(float(t[1:]))
        except ValueError:
            pass
    raise OutOfRangeError(f"unknown space {text!r} (use c0, c, linf, or l<alpha>)")


class Membership(Enum):
    IN_SPECTRUM = "in-spectrum"
    NOT_IN_SPECTRUM = "not-in-spectrum"
    INSIDE_BUDGET_UNKNOWN = "inside-budget-unknown"


class SpectralPart(Enum):
    POINT = "point"
    RESIDUAL_CANDIDATE = "residual-candidate"
    CONTINUOUS_BY_ELIMINATION = "continuous-by-elimination"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class SpectralVerdict:
    """Three-valued verdict with a JSON-serializable certificate payload.

    For the point-spectrum classifiers (point_c0, point_c, point_lalpha) the
    membership field refers to the *point spectrum* of the given space; for
    spectrum_membership and classify it refers to the spectrum itself.  The
    invariant `part != NOT_APPLICABLE implies membership == IN_SPECTRUM`
    always holds.
    """

    lam: complex
    space: Space
    membership: Membership
    part: SpectralPart
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "space": str(self.space),
            "membership": self.membership.value,
            "part": self.part.value,
            "witness": self.witness,
        }


def _trace_witness(trace: FactorTrace) -> dict:
    tail = trace.values[-3:]
    return {
        "trace-status": trace.status.value,
        "trace-index": trace.status_index,
        "trace-length": len(trace.values),
        "last-factors": [[v.real, v.imag] for v in tail],
    }


# -- membership in the spectrum (= the filled set) --------------------------


def spectrum_membership(
    sys: FiberedSystem, lam: complex, budget: int, space: Space = L_INF
) -> SpectralVerdict:
    """Escape-test membership of λ in the spectrum, budget-aware.

    Escape certifies NOT_IN_SPECTRUM; reaching the invariant fixed point 1
    certifies IN_SPECTRUM (for l^∞ the part is then Point, since that
    spectrum is pure point); otherwise the verdict is
    INSIDE_BUDGET_UNKNOWN — bounded through the budget, uncertified.
    """
    lam = complex(lam)
    out = escape_classify(sys, lam, budget)
    if out.escaped:
        return SpectralVerdict(
            lam,
            space,
            Membership.NOT_IN_SPECTRUM,
            SpectralPart.NOT_APPLICABLE,
            {
                "rules": ["spectrum-equals-filled-set", "escape-certificate"],
                "escape-step": out.step,
                "modulus": out.modulus,
            },
        )
    if out.certified_bounded:
        part = SpectralPart.POINT if space.family == "linf" else SpectralPart.NOT_APPLICABLE
        rules = ["spectrum-equals-filled-set", "bounded-orbit-certificate"]
        if space.family == "linf":
            rules.append("linf-spectrum-is-point-spectrum")
        return SpectralVerdict(
            lam, space, Membership.IN_SPECTRUM, part, {"rules": rules}
        )
    return SpectralVerdict(
        lam,
        space,
        Membership.INSIDE_BUDGET_UNKNOWN,
        SpectralPart.NOT_APPLICABLE,
        {
            "rules": ["spectrum-equals-filled-set"],
            "modulus-at-budget": out.modulus,
            "budget": budget,
        },
    )


# -- point spectra ----------------------------------------------------------


def point_c0(sys: FiberedSystem, lam: complex, budget: int) -> SpectralVerdict:
    """Is λ an eigenvalue of the operator on c_0?

    The candidate eigenvector v_λ lies in c_0 exactly when the factors ι_λ
    tend to 0.  Certificates: if p̄ provably does not approach 1 the point
    spectrum is empty for every λ; if the factors escape, λ is outside the
    spectrum altogether; if the tail of p̄ is certified >= ρ = 2(√2-1) and
    some factor enters the disk of radius ρ/2, the factors contract to 0
    and λ is a certified eigenvalue; factors locked at 1 certify a
    non-decaying eigenvector.
    """
    lam = complex(lam)
    if limit_is_one(sys.p) is False:
        return SpectralVerdict(
            lam,
            C0,
            Membership.NOT_IN_SPECTRUM,
            SpectralPart.NOT_APPLICABLE,
            {"rules": ["point-empty-when-p-does-not-approach-1"]},
        )
    trace = factor_trace(sys, lam, budget)
    if trace.status is TraceStatus.ESCAPED:
        wit = _trace_witness(trace)
        wit["rules"] = ["escape-certificate"]
        return SpectralVerdict(
            lam, C0, Membership.NOT_IN_SPECTRUM, SpectralPart.NOT_APPLICABLE, wit
        )
    if trace.status is TraceStatus.CONVERGES_TO_ONE:
        wit = _trace_witness(trace)
        wit["rules"] = ["factors-approach-1-no-decay"]
        return SpectralVerdict(
            lam, C0, Membership.NOT_IN_SPECTRUM, SpectralPart.NOT_APPLICABLE, wit
        )
    if trace.status is TraceStatus.CONVERGES_TO_ZERO:
        k = trace.status_index
        wit = _trace_witness(trace)
        wit.update(
            {
                "rules": ["contraction-certificate-rho"],
                "rho": RHO,
                "certificate-index": k,
                "factor-modulus": abs(trace.values[k - 1]),
            }
        )
        return SpectralVerdict(lam, C0, Membership.IN_SPECTRUM, SpectralPart.POINT, wit)
    wit = _trace_witness(trace)
    wit["rules"] = []
    return SpectralVerdict(
        lam, C0, Membership.INSIDE_BUDGET_UNKNOWN, SpectralPart.NOT_APPLICABLE, wit
    )


def point_c(sys: FiberedSystem, lam: complex, budget: int) -> SpectralVerdict:
    """Point spectrum on c: that of c_0, plus λ = 1 (constant eigenvector)."""
    lam = complex(lam)
    if lam == 1:
        return SpectralVerdict(
            lam,
            C,
            Membership.IN_SPECTRUM,
            SpectralPart.POINT,
            {"rules": ["unit-eigenvalue-constant-eigenvector"]},
        )
    inner = point_c0(sys, lam, budget)
    return SpectralVerdict(lam, C, inner.membership, inner.part, dict(inner.witness))


def point_lalpha(
    sys: FiberedSystem, lam: complex, alpha, budget: int
) -> SpectralVerdict:
    """Point spectrum on l^α (α >= 1).

    If Σ (1-p_j)^α provably diverges the point spectrum is empty for every
    λ.  If p̄ is certified monotone increasing with a convergent series, the
    point spectrum coincides with that of c_0 and the c_0 verdict is reused
    (decorated with a partial sum of the eigenvector's α-series).
    """
    space = l_alpha(alpha)
    lam = complex(lam)
    sv = sum_alpha_verdict(sys.p, alpha)
    if sv is SumVerdict.DIVERGES:
        return SpectralVerdict(
            lam,
            space,
            Membership.NOT_IN_SPECTRUM,
            SpectralPart.NOT_APPLICABLE,
            {"rules": ["summability-gate-alpha"], "alpha": float(alpha)},
        )
    trace = factor_trace(sys, lam, budget)
    if trace.status is TraceStatus.ESCAPED:
        wit = _trace_witness(trace)
        wit["rules"] = ["escape-certificate"]
        return SpectralVerdict(
            lam, space, Membership.NOT_IN_SPECTRUM, SpectralPart.NOT_APPLICABLE, wit
        )
    if monotone_increasing(sys.p) and sv is SumVerdict.CONVERGES:
        inner = point_c0(sys, lam, budget)
        wit = dict(inner.witness)
        wit["rules"] = list(wit.get("rules", [])) + ["monotone-summable-matches-c0"]
        wit["alpha"] = float(alpha)
        if inner.membership is Membership.IN_SPECTRUM:
            depth = min(8, len(trace.values))
            if depth:
                wit["alpha-series-partial"] = series_partial_sum(sys, lam, depth) ** (
                    1.0 / float(alpha)
                )
        return SpectralVerdict(lam, space, inner.membership, inner.part, wit)
    wit = _trace_witness(trace)
    wit["rules"] = []
    wit["alpha"] = float(alpha)
    return SpectralVerdict(
        lam, space, Membership.INSIDE_BUDGET_UNKNOWN, SpectralPart.NOT_APPLICABLE, wit
    )


def series_partial_sum(sys: FiberedSystem, lam: complex, depth: int) -> float:
    """Σ_{n < q_depth} Π_r |ι_λ(r)|^{a_r(n)} via the factored closed form.

    The sum over one digit block splits, so the whole partial sum equals
    Π_{k<=depth} (1 + |ι_λ(k)| + ... + |ι_λ(k)|^{d_k - 1}).
    """
    if depth < 0:
        raise OutOfRangeError(f"depth must be >= 0, got {depth}")
    fac = factor_values(sys, lam, depth)
    out = 1.0
    for k in range(1, depth + 1):
        m = abs(fac[k - 1])
        out *= sum(m**i for i in range(sys.digit_base(k)))
    return out


def dual_consistency_residual(sys: FiberedSystem, lam: complex, terms: int) -> float:
    """Defect |ι_λ(1) - Σ_{i<=terms} (1-p_{i+1}) Π_{j=2..i} p_j / Π_{r<i} ι_λ(r)^{d_r-1}|.

    The full series is the head identity the dual eigenvector must satisfy at
    row 0; in the null-recurrent regime the defect tends to 0 along the
    residual candidate points, in the transient regime it stays bounded away.
    """
    if terms < 1:
        raise OutOfRangeError(f"terms must be >= 1, got {terms}")
    fac = factor_values(sys, lam, terms)
    acc = 0j
    prod_p = 1.0
    prod_fac = 1 + 0j
    for i in range(1, terms + 1):
        if i >= 2:
            prod_p *= sys.p_float(i)
        if prod_fac == 0:
            raise DivisionByZeroIotaError(f"factor product vanishes before term {i}")
        acc += (1.0 - sys.p_float(i + 1)) * prod_p / prod_fac
        prod_fac *= _ipow(fac[i - 1], sys.digit_base(i) - 1)
    return abs(fac[0] - acc)


# -- residual spectrum ------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Residual-spectrum report for l^1 at a truncation depth.

    regime: "equality" (∏p_j = 0, d̄ bounded, limsup p̄ < 1 — the candidate
    set X equals the residual spectrum), "subset" (∏p_j = 0 only — X is a
    certified subset), "transient" (∏p_j > 0 — preimages of 1 are certified
    outside; emptiness is conjectured, not proven), or "unresolved".
    """

    depth: int
    tol: float
    regime: str
    points: tuple[complex, ...]
    note: str
    conjecture: bool
    ones_count: int
    zeros_count: int

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "tol": self.tol,
            "regime": self.regime,
            "points": [[z.real, z.imag] for z in self.points],
            "note": self.note,
            "conjecture": self.conjecture,
            "ones-count": self.ones_count,
            "zeros-count": self.zeros_count,
        }


def residual_l1(sys: FiberedSystem, depth: int, tol: float = 1e-8) -> ResidualReport:
    """Depth-truncated residual set of l^1 with its regime annotation."""
    _check_tol(tol, positive=True)
    pv = product_verdict(sys.p)
    if pv is ProductVerdict.CONVERGES_POSITIVE:
        return ResidualReport(
            depth=depth,
            tol=tol,
            regime="transient",
            points=(),
            note=(
                "success product stays positive: no preimage of 1 lies in the "
                "residual spectrum; residual spectrum conjectured empty (unproven)"
            ),
            conjecture=True,
            ones_count=0,
            zeros_count=0,
        )
    rs = residual_set(sys, depth, tol)
    if pv is ProductVerdict.TENDS_TO_ZERO and limsup_below_one(sys.p):
        regime = "equality"
        note = (
            "success product vanishes, digit bases bounded, limsup p < 1: the "
            "candidate set equals the residual spectrum (shown to truncation depth)"
        )
    elif pv is ProductVerdict.TENDS_TO_ZERO:
        regime = "subset"
        note = (
            "success product vanishes: the candidate set is a certified subset "
            "of the residual spectrum (shown to truncation depth)"
        )
    else:
        regime = "unresolved"
        note = "success product fate inconclusive for this spec; candidate set reported as-is"
    return ResidualReport(
        depth=depth,
        tol=tol,
        regime=regime,
        points=rs.points,
        note=note,
        conjecture=False,
        ones_count=len(rs.ones),
        zeros_count=len(rs.zeros),
    )


def residual_verdict(space: Space) -> dict:
    """Residual-spectrum status of a space: certified empty, or delegated to l^1."""
    if space.family in ("c0", "c", "linf") or (space.family == "lalpha" and space.alpha > 1):
        rule = (
            "linf-spectrum-is-point-spectrum"
            if space.family == "linf"
            else "residual-empty-dual-bounded-below"
        )
        return {"residual": "empty", "rule": rule}
    return {"residual": "delegated-to-l1", "rule": "residual-l1-subset-of-one-preimages"}


# -- combined per-λ classification and per-config summary -------------------


def classify(
    sys: FiberedSystem,
    lam: complex,
    space: Space,
    budget: int = 80,
    depth: int = 5,
    tol: float = 1e-8,
) -> SpectralVerdict:
    """Full verdict for one λ on one space: membership plus part resolution."""
    lam = complex(lam)
    if space.family == "linf":
        return spectrum_membership(sys, lam, budget, space)

    if space.family == "lalpha" and space.alpha == 1:
        report = residual_l1(sys, depth, tol)
        hit = min(
            (abs(lam - z) for z in report.points), default=float("inf")
        )
        if hit <= tol:
            return SpectralVerdict(
                lam,
                space,
                Membership.IN_SPECTRUM,
                SpectralPart.RESIDUAL_CANDIDATE,
                {
                    "rules": [
                        "residual-l1-subset-of-one-preimages",
                        f"residual-l1-{report.regime}-regime",
                    ],
                    "distance": hit,
                    "depth": depth,
                },
            )

    memb = spectrum_membership(sys, lam, budget, space)
    if memb.membership is Membership.NOT_IN_SPECTRUM:
        return memb

    if space.family == "c0":
        pointv = point_c0(sys, lam, budget)
    elif space.family == "c":
        pointv = point_c(sys, lam, budget)
    else:
        pointv = point_lalpha(sys, lam, space.alpha, budget)

    if pointv.membership is Membership.IN_SPECTRUM:
        return SpectralVerdict(
            lam, space, Membership.IN_SPECTRUM, SpectralPart.POINT, dict(pointv.witness)
        )
    if pointv.membership is Membership.NOT_IN_SPECTRUM:
        wit = dict(pointv.witness)
        wit["point-part"] = "excluded"
        if memb.membership is Membership.IN_SPECTRUM:
            resid = residual_verdict(space)
            if resid["residual"] == "empty":
                wit["rules"] = list(wit.get("rules", [])) + [resid["rule"]]
                return SpectralVerdict(
                    lam, space, Membership.IN_SPECTRUM, SpectralPart.CONTINUOUS_BY_ELIMINATION, wit
                )
            wit["residual"] = "excluded only to truncation depth"
            return SpectralVerdict(
                lam, space, Membership.IN_SPECTRUM, SpectralPart.NOT_APPLICABLE, wit
            )
        return SpectralVerdict(
            lam, space, memb.membership, SpectralPart.NOT_APPLICABLE, wit
        )
    wit = dict(memb.witness)
    wit["point-part"] = "undecided at budget"
    return SpectralVerdict(
        lam, space, Membership.INSIDE_BUDGET_UNKNOWN, SpectralPart.NOT_APPLICABLE, wit
    )


def spectrum_summary(
    chain_cfg: ChainConfig,
    sys: FiberedSystem,
    lams=(),
    budget: int = 80,
    depth: int = 5,
    alphas=(1.0, 2.0),
) -> dict:
    """Per-space summary report (JSON-ready) with optional per-λ verdicts."""
    from .errors import NotIrreducibleError

    try:
        recurrence = chain_cfg.classify_recurrence().value
    except NotIrreducibleError:
        recurrence = "not-irreducible"

    spaces: list[Space] = [L_INF, C0, C] + [l_alpha(a) for a in alphas]
    report: dict = {
        "recurrence": recurrence,
        "spectrum": {
            "description": "spectrum equals the filled set of the fibered dynamics",
            "rule": "spectrum-equals-filled-set",
        },
        "spaces": {},
    }
    p_to_one = limit_is_one(sys.p)
    for space in spaces:
        entry: dict = {"residual": residual_verdict(space)}
        if space.family == "linf":
            entry["point"] = {
                "description": "whole spectrum",
                "rule": "linf-spectrum-is-point-spectrum",
            }
        elif space.family in ("c0", "lalpha"):
            if p_to_one is False:
                entry["point"] = {
                    "description": "empty",
                    "rule": "point-empty-when-p-does-not-approach-1",
                }
            elif space.family == "lalpha" and sum_alpha_verdict(
                sys.p, space.alpha
            ) is SumVerdict.DIVERGES:
                entry["point"] = {"description": "empty", "rule": "summability-gate-alpha"}
            else:
                entry["point"] = {
                    "description": (
                        "component of the filled set's interior containing 0 "
                        "(certified pointwise via the contraction threshold)"
                    ),
                    "rule": "contraction-certificate-rho",
                }
        else:  # c
            entry["point"] = {
                "description": "that of c0, together with 1",
                "rule": "unit-eigenvalue-constant-eigenvector",
            }
        if space.family == "lalpha" and space.alpha == 1:
            entry["residual-set"] = residual_l1(sys, depth).to_json()
        report["spaces"][str(space)] = entry
    if lams:
        report["lambdas"] = [
            {
                str(space): classify(sys, lam, space, budget, depth).to_json()
                for space in spaces
            }
            for lam in lams
        ]
    return report
