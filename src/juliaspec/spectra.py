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
a λ, and every space reads the same two results, and the same membership
witness off l^∞; `spectrum_summary` shares them across all its spaces.  What
a space's verdicts read of the space and of p̄ alone is worked out once per
space, not once per λ (`_space_rules`).  That includes whether the point
spectrum of a space is empty for every λ, decided in one place, in this
order: on l^α the summability gate (Σ (1-p_j)^α diverges), then on c_0, c
and l^α the gate "p̄ does not tend to 1" (c keeps its constant eigenvector
at λ = 1).  The summary's per-space point entries and the per-λ verdicts
both read that decision.
"""

from __future__ import annotations

import math
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
    _near,
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
        return self.name

    @cached_property
    def name(self) -> str:
        """The space as the reports name it: linf, c0, c, or l followed by α."""
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


_SPECTRUM_RULE = "spectrum-equals-filled-set"


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

    @cached_property
    def membership(self) -> tuple[Membership, dict]:
        """λ's membership in the spectrum and its witness, read by every space.

        The witness is shared: a caller adding to it copies it first.  On l^∞
        a certified member also gets the point part (`_membership`).
        """
        out = self.escape
        if out.escaped:
            rules = [_SPECTRUM_RULE, "escape-certificate"]
            return Membership.NOT_IN_SPECTRUM, {
                "rules": rules, "escape-step": out.step, "modulus": out.modulus,
            }
        if out.certified_bounded:
            return Membership.IN_SPECTRUM, {"rules": [_SPECTRUM_RULE, "bounded-orbit-certificate"]}
        return Membership.INSIDE_BUDGET_UNKNOWN, {
            "rules": [_SPECTRUM_RULE], "modulus-at-budget": out.modulus, "budget": self.budget,
        }

    @cached_property
    def trace_witness(self) -> dict:
        """The trace's summary, which every witness resting on the trace starts from.

        Shared like `membership`'s witness.
        """
        trace = self.trace
        return {
            "trace-status": trace.status.value,
            "trace-index": trace.status_index,
            "trace-length": len(trace.values),
            "last-factors": [[v.real, v.imag] for v in trace.values[-3:]],
        }


@dataclass(frozen=True)
class _SpaceRules:
    """What every verdict on one space reads of the space and of p̄ alone, worked out once.

    gate: the rule emptying the point spectrum for every λ (on c: every
    λ ≠ 1), or None.  tag: the rules an l^α point verdict adds to the c_0
    reading, or None where that reading is not certified.  residual: the
    space's `residual_verdict`.  report: the l^1 residual report, on l^1
    only.
    """

    space: Space
    gate: str | None
    tag: tuple[str, ...] | None
    residual: dict
    extra: dict  # {"alpha": α} on l^α, else empty
    report: ResidualReport | None


def _space_rules(p, space: Space, report: ResidualReport | None = None) -> _SpaceRules:
    """The `_SpaceRules` of space for p̄, with the l^1 residual report when space is l^1.

    The point gate is decided here only.  On l^α the summability gate comes
    first; then, on every space, p̄ provably not tending to 1 (l^α ⊂ c_0,
    and the eigenvector is unique up to scale).  On l^α the c_0 reading
    needs p̄ monotone with a convergent series.
    """
    lalpha = space.family == "lalpha"
    gate, tag = None, ()
    if lalpha and sum_alpha_verdict(p, space.alpha) is SumVerdict.DIVERGES:
        gate = "summability-gate-alpha"
    elif not limit_is_one(p):
        gate = "point-empty-when-p-does-not-approach-1"
    elif lalpha:
        summable = sum_alpha_verdict(p, space.alpha) is SumVerdict.CONVERGES
        tag = ("monotone-summable-matches-c0",) if monotone_increasing(p) and summable else None
    extra = {"alpha": space.alpha} if lalpha else {}
    return _SpaceRules(space, gate, tag, residual_verdict(space), extra, report)


# -- membership in the spectrum (= the filled set) --------------------------


def _membership(orbit: _Orbit, space: Space) -> SpectralVerdict:
    memb, wit = orbit.membership
    if memb is Membership.IN_SPECTRUM and space.family == "linf":
        rules = [*wit["rules"], "linf-spectrum-is-point-spectrum"]
        return SpectralVerdict(orbit.lam, space, memb, SpectralPart.POINT, {"rules": rules})
    return SpectralVerdict(orbit.lam, space, memb, SpectralPart.NOT_APPLICABLE, wit)


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


def _point(orbit: _Orbit, sr: _SpaceRules) -> tuple[Membership, SpectralPart, dict]:
    """Point-spectrum (membership, part, witness) on c_0, c or l^α, the witness a new dict.

    c's unit eigenvalue first, then the gate, then the trace.
    """
    if sr.space.family == "c" and orbit.lam == 1:
        rules = ["unit-eigenvalue-constant-eigenvector"]
        return Membership.IN_SPECTRUM, SpectralPart.POINT, {"rules": rules}
    out, unknown = Membership.NOT_IN_SPECTRUM, Membership.INSIDE_BUDGET_UNKNOWN
    na = SpectralPart.NOT_APPLICABLE
    if sr.gate:
        return out, na, {"rules": [sr.gate], **sr.extra}
    trace, tw = orbit.trace, orbit.trace_witness
    if trace.status is TraceStatus.ESCAPED:
        return out, na, {**tw, "rules": ["escape-certificate"]}
    tag = sr.tag
    if tag is None:
        return unknown, na, {**tw, "rules": [], **sr.extra}
    if trace.status is TraceStatus.CONVERGES_TO_ONE:
        return out, na, {**tw, "rules": ["factors-approach-1-no-decay", *tag], **sr.extra}
    if trace.status is TraceStatus.BOUNDED_AT_BUDGET:
        return unknown, na, {**tw, "rules": [*tag], **sr.extra}
    k = trace.status_index
    wit = {
        **tw, "rules": ["contraction-certificate-rho", *tag],
        "rho": RHO, "certificate-index": k, "factor-modulus": abs(trace.values[k - 1]), **sr.extra,
    }
    if sr.space.family == "lalpha":
        wit["alpha-series-partial"] = _series_product(orbit.sys, trace.values[:8], sr.space.alpha)
    return Membership.IN_SPECTRUM, SpectralPart.POINT, wit


def _point_verdict(orbit: _Orbit, space: Space) -> SpectralVerdict:
    return SpectralVerdict(orbit.lam, space, *_point(orbit, _space_rules(orbit.sys.p, space)))


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
    return _point_verdict(_Orbit(sys, lam, budget), C0)


def point_c(sys: FiberedSystem, lam: complex, budget: int) -> SpectralVerdict:
    """Point spectrum on c: that of c_0, plus λ = 1 (constant eigenvector)."""
    return _point_verdict(_Orbit(sys, lam, budget), C)


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
    return _point_verdict(_Orbit(sys, lam, budget), l_alpha(alpha))


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
    points: X in sorted (re, im) order, which the l^1 lookup bisects.
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


def _classify(orbit: _Orbit, sr: _SpaceRules) -> SpectralVerdict:
    """The verdict on sr's space; on l^1 λ is first looked up among the residual candidates.

    The candidates are sorted by (re, im), so only those whose real part lies
    within 2·tol of λ's are read (`dynamics._near`): any point within tol of
    λ is among them.  The nearest of them is the nearest of all whenever it
    lies within tol, so the distance has the bits of a scan over every point.
    """
    lam, space = orbit.lam, sr.space
    if space.family == "linf":
        return _membership(orbit, space)

    report = sr.report
    if report is not None:
        hit = min((abs(lam - z) for z in _near(report.points, lam, report.tol)), default=math.inf)
        if hit <= report.tol:
            rules = ["residual-l1-subset-of-one-preimages", f"residual-l1-{report.regime}-regime"]
            wit = {"rules": rules, "distance": hit, "depth": report.depth}
            part = SpectralPart.RESIDUAL_CANDIDATE
            return SpectralVerdict(lam, space, Membership.IN_SPECTRUM, part, wit)

    memb, mwit = orbit.membership
    na = SpectralPart.NOT_APPLICABLE
    if memb is Membership.NOT_IN_SPECTRUM:
        return SpectralVerdict(lam, space, memb, na, mwit)
    point, part, wit = _point(orbit, sr)
    if point is Membership.IN_SPECTRUM:
        return SpectralVerdict(lam, space, point, part, wit)
    if point is Membership.INSIDE_BUDGET_UNKNOWN:
        return SpectralVerdict(lam, space, memb, na, {**mwit, "point-part": "undecided at budget"})
    wit["point-part"] = "excluded"
    if memb is Membership.INSIDE_BUDGET_UNKNOWN:
        return SpectralVerdict(lam, space, memb, na, wit)
    wit["rules"] = mwit["rules"] + wit["rules"]  # in-spectrum rests on this certificate
    if sr.residual["residual"] == "empty":
        wit["rules"].append(sr.residual["rule"])
        part = SpectralPart.CONTINUOUS_BY_ELIMINATION
    else:
        wit["residual"] = "excluded only to truncation depth"
        part = na
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
    report's `tol` of a point.  The lookup bisects the sorted candidates to
    those whose real part lies within 2·tol of λ's, which hold every point
    within tol (`dynamics._near`), so it reads O(log |X|) points, not |X|.
    λ and the budget are checked before that set is built.
    """
    orbit = _Orbit(sys, lam, budget)
    report = residual_l1(sys, depth) if space == _L1 else None
    return _classify(orbit, _space_rules(sys.p, space, report))


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

    Each λ's orbit is run once and read on every space, what each space's
    verdicts read of the space and of p̄ is worked out once, and the l^1
    residual report is built once, for the l^1 entry, and read by every λ.
    A λ's verdicts on c_0, c and l^α may share witness objects; the report
    is for reading.  chain_cfg and sys must be built from the same (d̄, p̄).
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
            "rule": _SPECTRUM_RULE,
        },
        "spaces": {},
    }
    l1_report = None
    space_rules = []
    for space in spaces:
        res = None
        if space == _L1:
            l1_report = res = l1_report or residual_l1(sys, depth)
        sr = _space_rules(sys.p, space, res)
        space_rules.append(sr)
        entry: dict = {"residual": sr.residual}
        entry["point"] = dict(
            _STATIC_POINT.get(space.family)
            or ({"description": "empty", "rule": sr.gate} if sr.gate else _CONTRACTION_POINT)
        )
        if res is not None:
            entry["residual-set"] = res.to_json()
        report["spaces"][str(space)] = entry
    if lams:
        report["lambdas"] = [
            {str(sr.space): _classify(orbit, sr).to_json() for sr in space_rules}
            for orbit in (_Orbit(sys, lam, budget) for lam in lams)
        ]
    return report
