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

One orbit per λ: the escape test and the factor trace run at most once for
a λ, and every space reads the same two results; `spectrum_summary` shares
them across all its spaces.  Whether the point spectrum of a space is empty
for every λ is decided in one place, in this order: on l^α the summability
gate (Σ (1-p_j)^α diverges), then on c_0, c and l^α the gate "p̄ does not
tend to 1" (c keeps its constant eigenvector at λ = 1).  The summary's
per-space point entries and the per-λ verdicts both read that decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .chain import ChainConfig, _check_model
from .dynamics import (
    RHO,
    EscapeOutcome,
    FactorTrace,
    FiberedSystem,
    TraceStatus,
    escape_classify,
    factor_trace,
    residual_set,
)
from .errors import NotIrreducibleError, OutOfRangeError, check_int, check_point, check_real
from .numeration import _LEVEL_CAP
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
_L1 = Space("lalpha", 1.0)  # the one space with a residual candidate set


def l_alpha(alpha) -> Space:
    return Space("lalpha", check_real("alpha", alpha, 1))


def parse_space(text: str) -> Space:
    t = text.strip().lower() if isinstance(text, str) else ""  # anything else is refused below
    if t in ("linf", "loo", "l_inf"):
        return L_INF
    if t == "c0":
        return C0
    if t == "c":
        return C
    if t.startswith("l"):
        return l_alpha(t[1:])
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


class _Orbit:
    """One λ's orbit: its escape test and its factor trace, each run at most once, on first use."""

    def __init__(self, sys: FiberedSystem, lam: complex, budget: int):
        self.sys, self.lam = sys, check_point("lambda", lam)
        self.budget = check_int("budget", budget, 1, _LEVEL_CAP)

    @cached_property
    def escape(self) -> EscapeOutcome:
        return escape_classify(self.sys, self.lam, self.budget)

    @cached_property
    def trace(self) -> FactorTrace:
        return factor_trace(self.sys, self.lam, self.budget)


def _verdict(
    lam, space, membership, rules, part=SpectralPart.NOT_APPLICABLE, trace=None, **fields
) -> SpectralVerdict:
    """A verdict whose witness holds the trace summary, the rules and `fields` ('_' read as '-')."""
    wit: dict = {}
    if trace is not None:
        wit = {
            "trace-status": trace.status.value,
            "trace-index": trace.status_index,
            "trace-length": len(trace.values),
            "last-factors": [[v.real, v.imag] for v in trace.values[-3:]],
        }
    wit["rules"] = list(rules)
    wit.update((k.replace("_", "-"), v) for k, v in fields.items())
    return SpectralVerdict(lam, space, membership, part, wit)


def _point_gate(p, space: Space) -> str | None:
    """The rule emptying the point spectrum on c_0, c or l^α for every λ (on c: every λ ≠ 1).

    The only place this is decided.  On l^α the summability gate comes
    first; then, on every space, p̄ provably not tending to 1 (l^α ⊂ c_0,
    and the eigenvector is unique up to scale).  None: no gate holds.
    """
    if space.family == "lalpha" and sum_alpha_verdict(p, space.alpha) is SumVerdict.DIVERGES:
        return "summability-gate-alpha"
    if not limit_is_one(p):
        return "point-empty-when-p-does-not-approach-1"
    return None


# -- membership in the spectrum (= the filled set) --------------------------


def _membership(orbit: _Orbit, space: Space) -> SpectralVerdict:
    out, lam = orbit.escape, orbit.lam
    if out.escaped:
        return _verdict(
            lam, space, Membership.NOT_IN_SPECTRUM,
            ["spectrum-equals-filled-set", "escape-certificate"],
            escape_step=out.step, modulus=out.modulus,
        )
    if out.certified_bounded:
        rules = ["spectrum-equals-filled-set", "bounded-orbit-certificate"]
        if space.family == "linf":
            rules.append("linf-spectrum-is-point-spectrum")
            return _verdict(lam, space, Membership.IN_SPECTRUM, rules, SpectralPart.POINT)
        return _verdict(lam, space, Membership.IN_SPECTRUM, rules)
    return _verdict(
        lam, space, Membership.INSIDE_BUDGET_UNKNOWN, ["spectrum-equals-filled-set"],
        modulus_at_budget=out.modulus, budget=orbit.budget,
    )


def spectrum_membership(
    sys: FiberedSystem, lam: complex, budget: int, space: Space = L_INF
) -> SpectralVerdict:
    """Escape-test membership of λ in the spectrum, budget-aware.

    Escape certifies NOT_IN_SPECTRUM; reaching the invariant fixed point 1
    or entering a trap disk of the system (`FiberedSystem.contraction_disk`
    or `.cycle_disk`) certifies IN_SPECTRUM (`bounded-orbit-certificate`;
    for l^∞ the part is then Point, since that spectrum is pure point);
    otherwise the verdict is INSIDE_BUDGET_UNKNOWN — bounded through the
    budget, uncertified.
    """
    return _membership(_Orbit(sys, lam, budget), space)


# -- point spectra ----------------------------------------------------------


def _point(orbit: _Orbit, space: Space) -> SpectralVerdict:
    """Point-spectrum verdict on c_0, c or l^α: c's unit eigenvalue, the gate, then the trace."""
    lam, p = orbit.lam, orbit.sys.p
    if space.family == "c" and lam == 1:
        rules = ["unit-eigenvalue-constant-eigenvector"]
        return _verdict(lam, space, Membership.IN_SPECTRUM, rules, SpectralPart.POINT)
    lalpha = space.family == "lalpha"
    extra = {"alpha": space.alpha} if lalpha else {}
    gate = _point_gate(p, space)
    if gate:
        return _verdict(lam, space, Membership.NOT_IN_SPECTRUM, [gate], **extra)
    trace = orbit.trace
    if trace.status is TraceStatus.ESCAPED:
        return _verdict(lam, space, Membership.NOT_IN_SPECTRUM, ["escape-certificate"], trace=trace)
    tag = []
    if lalpha:
        # On l^α the c_0 reading below needs p̄ monotone with a convergent series.
        summable = sum_alpha_verdict(p, space.alpha) is SumVerdict.CONVERGES
        if not (monotone_increasing(p) and summable):
            return _verdict(lam, space, Membership.INSIDE_BUDGET_UNKNOWN, [], trace=trace, **extra)
        tag = ["monotone-summable-matches-c0"]
    if trace.status is TraceStatus.CONVERGES_TO_ONE:
        rules = ["factors-approach-1-no-decay", *tag]
        return _verdict(lam, space, Membership.NOT_IN_SPECTRUM, rules, trace=trace, **extra)
    if trace.status is TraceStatus.BOUNDED_AT_BUDGET:
        return _verdict(lam, space, Membership.INSIDE_BUDGET_UNKNOWN, tag, trace=trace, **extra)
    k = trace.status_index
    if lalpha:
        extra["alpha_series_partial"] = _series_product(orbit.sys, trace.values[:8], space.alpha)
    rules = ["contraction-certificate-rho", *tag]
    return _verdict(
        lam, space, Membership.IN_SPECTRUM, rules, SpectralPart.POINT, trace=trace,
        rho=RHO, certificate_index=k, factor_modulus=abs(trace.values[k - 1]), **extra,
    )


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
    return _point(_Orbit(sys, lam, budget), C0)


def point_c(sys: FiberedSystem, lam: complex, budget: int) -> SpectralVerdict:
    """Point spectrum on c: that of c_0, plus λ = 1 (constant eigenvector)."""
    return _point(_Orbit(sys, lam, budget), C)


def point_lalpha(
    sys: FiberedSystem, lam: complex, alpha, budget: int
) -> SpectralVerdict:
    """Point spectrum on l^α (α >= 1).

    If Σ (1-p_j)^α provably diverges, or p̄ provably does not approach 1,
    the point spectrum is empty for every λ.  If p̄ is certified monotone
    increasing with a convergent series, the point spectrum coincides with
    that of c_0: the c_0 verdict is given, tagged
    "monotone-summable-matches-c0" (and, for an eigenvalue, with a partial
    sum of the eigenvector's α-series).  Otherwise only escape decides.
    """
    return _point(_Orbit(sys, lam, budget), l_alpha(alpha))


def _series_product(sys: FiberedSystem, factors, alpha: float) -> float:
    """Σ_{n<q_k} |v_λ(n)|^α = Π_{r<=k} Σ_{a<d_r} |ι_r|^{aα} over the k factors ι_1, ι_2, ... given.

    The eigenvector's entries over the first k digits are the products
    Π_r ι_r^{a_r}, so their α-series partial sum factors digit by digit.
    """
    out = 1.0
    for r, iota in enumerate(factors, 1):
        m = abs(iota)
        out *= sum(m ** (a * alpha) for a in range(sys.digit_base(r)))
    return out


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
    regime: str
    points: tuple[complex, ...]
    note: str
    conjecture: bool
    #: A λ within this distance of a point is taken for that point on l^1.
    tol: float = 1e-8

    def to_json(self) -> dict:
        """The fields in order, '_' read as '-', with the points as [re, im] pairs."""
        out = {k.replace("_", "-"): v for k, v in vars(self).items()}
        out["points"] = [[z.real, z.imag] for z in self.points]
        return out


_RESIDUAL_NOTES = {
    "transient": (
        "success product stays positive: no preimage of 1 lies in the "
        "residual spectrum; residual spectrum conjectured empty (unproven)"
    ),
    "equality": (
        "success product vanishes, digit bases bounded, limsup p < 1: the "
        "candidate set equals the residual spectrum (shown to truncation depth)"
    ),
    "subset": (
        "success product vanishes: the candidate set is a certified subset "
        "of the residual spectrum (shown to truncation depth)"
    ),
    "unresolved": "success product fate inconclusive for this spec; candidate set reported as-is",
}


def residual_l1(sys: FiberedSystem, depth: int) -> ResidualReport:
    """Depth-truncated residual set of l^1 (`residual_set`) with its regime annotation.

    The transient regime reports no points and builds no tree.
    """
    depth = check_int("depth", depth, 1)
    pv = product_verdict(sys.p)
    points, regime = (), "transient"
    if pv is not ProductVerdict.CONVERGES_POSITIVE:
        points = residual_set(sys, depth)
        if pv is ProductVerdict.TENDS_TO_ZERO:
            regime = "equality" if limsup_below_one(sys.p) else "subset"
        else:
            regime = "unresolved"
    return ResidualReport(
        depth=depth,
        regime=regime,
        points=points,
        note=_RESIDUAL_NOTES[regime],
        conjecture=regime == "transient",
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


def _classify(orbit: _Orbit, space: Space, report: ResidualReport | None) -> SpectralVerdict:
    """The verdict on `space`; `report` is the l^1 residual report, read only on l^1."""
    lam = orbit.lam
    if space.family == "linf":
        return _membership(orbit, space)

    if space == _L1:
        hit = min((abs(lam - z) for z in report.points), default=float("inf"))
        if hit <= report.tol:
            return _verdict(
                lam, space, Membership.IN_SPECTRUM,
                ["residual-l1-subset-of-one-preimages", f"residual-l1-{report.regime}-regime"],
                SpectralPart.RESIDUAL_CANDIDATE, distance=hit, depth=report.depth,
            )

    memb = _membership(orbit, space)
    if memb.membership is Membership.NOT_IN_SPECTRUM:
        return memb
    pointv = _point(orbit, space)
    if pointv.membership is Membership.IN_SPECTRUM:
        return pointv
    unknown = Membership.INSIDE_BUDGET_UNKNOWN
    if pointv.membership is unknown:
        wit = {**memb.witness, "point-part": "undecided at budget"}
        return SpectralVerdict(lam, space, memb.membership, SpectralPart.NOT_APPLICABLE, wit)
    wit = {**pointv.witness, "point-part": "excluded"}
    if memb.membership is unknown:
        return SpectralVerdict(lam, space, unknown, SpectralPart.NOT_APPLICABLE, wit)
    wit["rules"] = memb.witness["rules"] + wit["rules"]  # in-spectrum rests on this certificate
    resid = residual_verdict(space)
    if resid["residual"] == "empty":
        wit["rules"] = wit["rules"] + [resid["rule"]]
        part = SpectralPart.CONTINUOUS_BY_ELIMINATION
    else:
        wit["residual"] = "excluded only to truncation depth"
        part = SpectralPart.NOT_APPLICABLE
    return SpectralVerdict(lam, space, Membership.IN_SPECTRUM, part, wit)


def classify(
    sys: FiberedSystem,
    lam: complex,
    space: Space,
    budget: int = 80,
    depth: int = 5,
) -> SpectralVerdict:
    """Full verdict for one λ on one space: membership plus part resolution.

    On l^1 the residual candidates are `residual_l1` at this depth, as in
    `spectrum_summary`, and λ is one of them when it lies within the
    report's `tol` of a point.  λ and the budget are checked before that set
    is built.
    """
    orbit = _Orbit(sys, lam, budget)
    return _classify(orbit, space, residual_l1(sys, depth) if space == _L1 else None)


_CONTRACTION_POINT = {
    "description": (
        "component of the filled set's interior containing 0 "
        "(certified pointwise via the contraction threshold)"
    ),
    "rule": "contraction-certificate-rho",
}
_STATIC_POINT = {
    "linf": {"description": "whole spectrum", "rule": "linf-spectrum-is-point-spectrum"},
    "c": {
        "description": "that of c0, together with 1",
        "rule": "unit-eigenvalue-constant-eigenvector",
    },
}


def spectrum_summary(
    chain_cfg: ChainConfig,
    sys: FiberedSystem,
    lams=(),
    budget: int = 80,
    depth: int = 5,
    alphas=(1.0, 2.0),
) -> dict:
    """Per-space summary report (JSON-ready) with optional per-λ verdicts.

    Each λ's orbit is run once and read on every space, and the l^1 residual
    report is built once, for the l^1 entry, and read by every λ.  chain_cfg
    and sys must be built from the same (d̄, p̄).
    """
    _check_model(chain_cfg, sys)
    budget = check_int("budget", budget, 1, _LEVEL_CAP)  # before the residual set is built
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
    l1_report = None
    for space in spaces:
        entry: dict = {"residual": residual_verdict(space)}
        gate = _point_gate(sys.p, space)
        entry["point"] = dict(
            _STATIC_POINT.get(space.family)
            or ({"description": "empty", "rule": gate} if gate else _CONTRACTION_POINT)
        )
        if space == _L1:
            l1_report = l1_report or residual_l1(sys, depth)
            entry["residual-set"] = l1_report.to_json()
        report["spaces"][str(space)] = entry
    if lams:
        report["lambdas"] = [
            {str(space): _classify(orbit, space, l1_report).to_json() for space in spaces}
            for orbit in (_Orbit(sys, lam, budget) for lam in lams)
        ]
    return report
