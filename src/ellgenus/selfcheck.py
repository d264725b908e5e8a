"""Built-in verification corpus.

Ten independent checks exercising the whole pipeline end to end:
normalization and modularity of the characteristic series, integrality
and multiplicativity of the genus on projective-space products, the
bundle identity behind the characteristic power series, the chi_y
specialization oracle at q = 0, vanishing of closed-manifold
representatives in the two-variable quotient, stability of quotient
verdicts under perturbations from the subtracted subgroup, projection
compatibility, and the dimension/Sturm certificates.

Each check is a plain function returning a CheckResult, so the test
suite and the command-line `selfcheck` front end share one corpus.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .cyclo import Cyclo, in_NZ
from .errors import SpanFailure
from .genus import (
    chern_product,
    chi_y_cp,
    cp_chern,
    genus,
    genus_bivariate,
    phi_series,
    split_product,
    verify_Q_identity,
)
from .integers import euler_phi
from .linalg import _integer_echelon
from .modforms import ModFormBasis, dim_Mk, is_in_span, sturm_bound, weight_basis
from .reduce import reduce_Uq, reduce_Wtilde
from .series import QSeries, project_q0


class CheckResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def check_normalization() -> tuple[bool, str]:
    """x^0 coefficient of the characteristic series is exactly 1."""
    for N in (4, 5, 6):
        phi = phi_series(N, 3, 12)
        if phi[0] != QSeries.one(N, 12):
            return False, f"phi_0 != 1 at level {N}"
    return True, "phi_0 = 1 exactly for levels 4, 5, 6 at q-precision 12"


_CORPUS_MANIFOLDS = {
    "CP1": cp_chern(1),
    "CP2": cp_chern(2),
    "CP3": cp_chern(3),
    "CP1xCP1": chern_product(cp_chern(1), cp_chern(1)),
    "CP1xCP2": chern_product(cp_chern(1), cp_chern(2)),
}


def check_integrality() -> tuple[bool, str]:
    """Every genus coefficient lies in Z[1/N, zeta_N]."""
    for N in (4, 5):
        for name, data in _CORPUS_MANIFOLDS.items():
            g = genus(data, N, 12)
            for n, c in enumerate(g.coeffs):
                if not in_NZ(c):
                    return False, f"{name} at level {N}: q^{n} coefficient not N-integral"
    return True, "all genus coefficients N-integral (5 manifolds, levels 4 and 5, prec 12)"


def check_modularity() -> tuple[bool, str]:
    """Each x^n coefficient of phi is a weight-n modular form."""
    for N in (4, 5):
        for n in (1, 2, 3):
            prec = max(sturm_bound(N, n), 8)
            phi = phi_series(N, n + 1, prec)
            ok, _ = is_in_span(phi[n], weight_basis(N, n, prec))
            if not ok:
                return False, f"phi_{n} outside the weight-{n} span at level {N}"
    return True, "phi_n in the weight-n span for n = 1..3, levels 4 and 5"


def check_multiplicativity() -> tuple[bool, str]:
    """genus(A x B) = genus(A) * genus(B) exactly."""
    pairs = [
        (cp_chern(1), cp_chern(1)),
        (cp_chern(1), cp_chern(2)),
        (cp_chern(2), cp_chern(2)),
    ]
    for N in (4, 5):
        for a, b in pairs:
            left = genus(chern_product(a, b), N, 10)
            right = genus(a, N, 10) * genus(b, N, 10)
            if left != right:
                return False, f"product failure at level {N}, dims {a.dim}+{b.dim}"
    return True, "three product pairs multiplicative at prec 10, levels 4 and 5"


def check_bundle_identity() -> tuple[bool, str]:
    """Product formula for Q equals the Todd-times-characters expansion."""
    if not verify_Q_identity(5, 4, 8):
        return False, "bundle identity failed at level 5, prec (4, 8)"
    return True, "bundle identity holds at level 5, prec_x 4, prec_q 8"


def check_chi_y_oracle() -> tuple[bool, str]:
    """q = 0 coefficient of genus(CP^n) matches the chi_y specialization."""
    for N in (4, 5):
        for n in range(4):
            got = genus(cp_chern(n), N, 3)[0] if n else QSeries.one(N, 3)[0]
            want = chi_y_cp(n, N)
            if got != want:
                return False, f"chi_y mismatch for CP^{n} at level {N}"
    return True, "q^0 of genus(CP^n) matches the chi_y oracle for n <= 3, levels 4 and 5"


def _vanishing_corpus():
    return [
        ("CP1xCP1", genus_bivariate(split_product(cp_chern(1), cp_chern(1)), 5, 5, 5), 4),
        ("CP1xCP2", genus_bivariate(split_product(cp_chern(1), cp_chern(2)), 5, 7, 7), 6),
    ]


def check_closed_vanishing() -> tuple[bool, str]:
    """Two-variable representatives of closed products reduce to zero."""
    for name, series, degree in _vanishing_corpus():
        if not reduce_Wtilde(series, 5, degree).trivial:
            return False, f"{name} nontrivial in the degree-{degree} quotient"
    return True, "closed-product representatives trivial at degrees 4 and 6, level 5"


def _random_cyclo(rng: random.Random, N: int, n_integral: bool) -> Cyclo:
    phi = euler_phi(N)
    if n_integral:
        dens = [N**e for e in range(3)]
    else:
        dens = [1, 2, 3, 5, 7, 10, 21]
    return Cyclo(
        N, [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(phi)]
    )


def check_quotient_stability() -> tuple[bool, str]:
    """Adding basis elements, constants, or N-integral series keeps verdicts."""
    rng = random.Random(20260823)
    N, degree, prec = 5, 6, 7
    basis = weight_basis(N, degree // 2, prec)
    trivial_base = genus(cp_chern(2), N, prec)
    bump = [Cyclo(N)] * prec
    bump[1] = Cyclo.from_rational(N, Fraction(1, 7))
    nontrivial_base = trivial_base + QSeries(N, prec, bump)
    for base, expected, label in (
        (trivial_base, True, "trivial"),
        (nontrivial_base, False, "nontrivial"),
    ):
        for _ in range(50):
            s = base
            for elem in basis.elements:
                c = _random_cyclo(rng, basis.field_level, False)
                s = s.lift(basis.field_level) + QSeries(
                    basis.field_level, prec, [c * x for x in elem.coeffs]
                )
            const = [_random_cyclo(rng, N, False).lift(basis.field_level)]
            s = s + QSeries(basis.field_level, prec, const + [Cyclo(basis.field_level)] * (prec - 1))
            s = s + QSeries(
                N, prec, [_random_cyclo(rng, N, True) for _ in range(prec)]
            ).lift(basis.field_level)
            if reduce_Uq(s, N, degree).trivial is not expected:
                return False, f"verdict flipped on a perturbed {label} class"
    return True, "verdicts stable under 100 randomized subgroup perturbations"


def check_projection_compat() -> tuple[bool, str]:
    """q -> 0 projection of a trivial two-variable class is trivial."""
    for name, series, degree in _vanishing_corpus():
        if not reduce_Uq(project_q0(series), 5, degree).trivial:
            return False, f"projection of {name} nontrivial"
    return True, "q -> 0 projections of the vanishing corpus reduce trivially"


def check_dimension_certificates() -> tuple[bool, str]:
    """Dimension formula, Sturm bound, rank certificate, and SpanFailure."""
    if dim_Mk(5, 2) != 3:
        return False, f"dim M_2(Gamma_1(5)) = {dim_Mk(5, 2)}, expected 3"
    if sturm_bound(5, 2) != 5:
        return False, f"sturm_bound(5, 2) = {sturm_bound(5, 2)}, expected 5"
    basis = weight_basis(5, 2, 8)
    if basis.certificate["rank"] != 3:
        return False, f"certificate rank {basis.certificate['rank']}, expected 3"
    try:
        ModFormBasis(5, 2, 8, *_integer_echelon(basis.rows[:1]))
    except SpanFailure:
        pass
    else:
        return False, "restricted candidate pool did not raise SpanFailure"
    return True, "dim/sturm/rank = (3, 5, 3) at (5, 2); SpanFailure on a starved pool"


_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("normalization", check_normalization),
    ("integrality", check_integrality),
    ("modularity", check_modularity),
    ("multiplicativity", check_multiplicativity),
    ("bundle identity", check_bundle_identity),
    ("chi_y oracle", check_chi_y_oracle),
    ("closed-manifold vanishing", check_closed_vanishing),
    ("quotient stability", check_quotient_stability),
    ("projection compatibility", check_projection_compat),
    ("dimension certificates", check_dimension_certificates),
]


def run_checks() -> list[CheckResult]:
    """Run the whole corpus; never raises, failures are reported inline."""
    results = []
    for number, (name, fn) in enumerate(_CHECKS, start=1):
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(number, name, passed, detail, time.perf_counter() - t0))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.number:2d} {r.name}: {r.detail} ({r.seconds:.2f}s)")
    total = sum(r.seconds for r in results)
    failed = sum(1 for r in results if not r.passed)
    verdict = "all checks passed" if failed == 0 else f"{failed} check(s) FAILED"
    lines.append(f"{len(results)} checks, {verdict}, {total:.1f}s total")
    return "\n".join(lines)
