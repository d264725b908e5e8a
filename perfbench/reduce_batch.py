"""The in-process ``reduce_batch`` workload: quotient reductions on a warm basis.

usage: python3 perfbench/reduce_batch.py --seed S --seconds T --trace 0|1 [--setup-only]

Set-up imports ellgenus, builds the certified bases the reductions read
(weight 3 at N = 5 and 7, weight 2 and 3 at N = 5 for the rectangles), the
genus of CP^2 at N = 5 and 7, the closed-product rectangles CP1xCP1 and
CP1xCP2 at N = 5, and derives the job inputs from the seed.  Each job is one
``reduce_Uq`` or ``reduce_Wtilde`` call whose verdict is known by
construction:

* ``u5-*`` / ``u7-*``: genus(CP^2, N) plus a random basis combination, a
  random constant and a random N-integral series -- all in the subtracted
  subgroup, so the class is trivial.  Half the jobs add a bump
  +-zeta_N^k/3 at q^j, which makes the class nontrivial.  BUMP_COLUMNS lists
  the exponents j at which every such bump was checked to be nontrivial
  (exhaustively over k and the sign); elsewhere a bump may be absorbed.
* ``w4-*`` / ``w6-*``: a closed-product rectangle (trivial) plus random
  N-integral mixed cells; half add +-zeta_5^k/3 to one mixed cell, which is
  nontrivial because 3 is prime to 5.

Every call is timed alone; the checks run outside the timed region.  The
first pass checks each verdict and the recorded decomposition
s = sum c_i b_i + constant + residual exactly; later passes, traced or
not, must reproduce the first pass's serialized result byte for byte.

Prints one JSON line for perfbench/run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction
from math import gcd

from run import TRACE_PAIRS, pin_for_pass

# Jobs per level (reduce_Uq) and per rectangle degree (reduce_Wtilde), half of
# them bumped.  Sorted by time the jobs form clusters: u5 and w4 (~25 ms), w6
# (~50 ms), u7 (~130 ms).  Each cluster has a slow tail, so the counts put the
# median job in the low end of the w6 cluster and the 90th percentile in the
# low end of the u7 cluster, where run-to-run noise is smallest.
U_JOBS = {5: 28, 7: 16}
W_JOBS = {4: 20, 6: 40}
BUMP_COLUMNS = {5: (1, 2, 4, 5), 7: tuple(range(1, 13))}
GENERAL_DENS = (1, 2, 3, 5, 7, 10, 21)


def _n_smooth(den: int, N: int) -> bool:
    g = gcd(den, N)
    while g > 1:
        den //= g
        g = gcd(den, N)
    return den == 1


def _n_integral(a, N: int) -> bool:
    """a (at level N) lies in Z[1/N, zeta_N]: Z[zeta_N] is free on the power basis."""
    return a.level == N and all(_n_smooth(c.denominator, N) for c in a.coords)


def _canonical(rep, N: int) -> bool:
    return rep.level == N and all(
        0 <= c < 1 and gcd(c.denominator, N) == 1 for c in rep.coords
    )


class Batch:
    """Set-up state: the seeded jobs, built on warm bases."""

    def __init__(self, seed: int):
        import ellgenus as eg

        self.eg = eg
        rng = random.Random(seed)
        cp1, cp2 = eg.cp_chern(1), eg.cp_chern(2)
        self.jobs = []  # (job_id, function name, args, expected_trivial)
        for N, count in U_JOBS.items():
            prec = max(eg.sturm_bound(N, 3), 7)
            basis = eg.weight_basis(N, 3, prec)
            base = eg.genus(cp2, N, prec).lift(basis.field_level)
            for i in range(count):
                bumped = i % 2 == 1
                s = self._u_input(rng, N, basis, base, bumped)
                self.jobs.append((f"u{N}-{i}", "reduce_Uq", (s, N, 6), not bumped))
        for degree, (a, b), prec in ((4, (cp1, cp1), 5), (6, (cp1, cp2), 7)):
            eg.weight_basis(5, degree // 2, prec)  # warm the basis the rectangle's edges use
            F = eg.genus_bivariate(eg.split_product(a, b), 5, prec, prec)
            for i in range(W_JOBS[degree]):
                bumped = i % 2 == 1
                s = self._w_input(rng, F, bumped)
                self.jobs.append((f"w{degree}-{i}", "reduce_Wtilde", (s, 5, degree), not bumped))
        rng.shuffle(self.jobs)

    def _cyclo(self, rng, level: int, dens) -> object:
        n = self.eg.euler_phi(level)
        return self.eg.Cyclo(level, [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)])

    def _bump(self, rng, N: int):
        return self.eg.Cyclo.zeta(N, rng.randrange(N)) * Fraction(rng.choice((1, -1)), 3)

    def _u_input(self, rng, N, basis, base, bumped):
        L, prec = basis.field_level, basis.prec
        coeffs = list(base.coeffs)
        for elem in basis.elements:
            c = self._cyclo(rng, L, GENERAL_DENS)
            coeffs = [a + c * b for a, b in zip(coeffs, elem.coeffs)]
        coeffs[0] = coeffs[0] + self._cyclo(rng, L, GENERAL_DENS)
        integral_dens = tuple(N**e for e in range(3))
        coeffs = [a + self._cyclo(rng, N, integral_dens).lift(L) for a in coeffs]
        if bumped:
            j = rng.choice(BUMP_COLUMNS[N])
            coeffs[j] = coeffs[j] + self._bump(rng, N).lift(L)
        return self.eg.QSeries(L, prec, coeffs)

    def _w_input(self, rng, F, bumped):
        N = F.level
        integral_dens = tuple(N**e for e in range(3))
        rows = [[F[i, j] for j in range(F.prec_q)] for i in range(F.prec_p)]
        for i in range(1, F.prec_p):
            for j in range(1, F.prec_q):
                rows[i][j] = rows[i][j] + self._cyclo(rng, N, integral_dens)
        if bumped:
            i, j = rng.randrange(1, F.prec_p), rng.randrange(1, F.prec_q)
            rows[i][j] = rows[i][j] + self._bump(rng, N)
        return self.eg.PQSeries(N, F.prec_p, F.prec_q, rows)

    # -- checks (outside the timed region) ---------------------------------

    def check_uq(self, s, N: int, degree: int, cls) -> str | None:
        """None when cls is a valid certificate for s, else what is wrong."""
        eg = self.eg
        basis = eg.weight_basis(N, degree // 2, cls.prec)
        part = cls.modular_part
        if len(part["coefficients"]) != len(basis.elements):
            return "coefficient count differs from the basis dimension"
        residual = list(s.lift(basis.field_level).truncate(cls.prec).coeffs)
        for c, elem in zip(part["coefficients"], basis.elements):
            residual = [r - c * b for r, b in zip(residual, elem.coeffs)]
        residual[0] = residual[0] - part["constant"]
        all_zero = True
        for n, (r, coset) in enumerate(zip(residual, cls.cosets)):
            down = eg.descend(r, N)
            if coset is None:
                if down is not None:
                    return f"q^{n}: residual lies in Q(zeta_N) but has no coset"
                all_zero = False
                continue
            if down is None:
                return f"q^{n}: residual outside Q(zeta_N) has a coset"
            if not _canonical(coset.rep, N) or not _n_integral(down - coset.rep, N):
                return f"q^{n}: coset representative is wrong"
            all_zero = all_zero and not coset.rep
        if cls.trivial != all_zero:
            return "verdict disagrees with the decomposition"
        return None

    def check(self, name: str, args, cls, expected: bool) -> str | None:
        s, N, degree = args
        if cls.trivial is not expected:
            return f"verdict {cls.trivial}, expected {expected}"
        if name == "reduce_Uq":
            return self.check_uq(s, N, degree, cls)
        problem = self.check_uq(s.p_row(0), N, degree, cls.row_class) or \
            self.check_uq(s.q_column(0), N, degree, cls.column_class)
        if problem:
            return problem
        mixed_zero = True
        for i in range(1, s.prec_p):
            for j in range(1, s.prec_q):
                rep = cls.mixed_cosets[i - 1][j - 1].rep
                if not _canonical(rep, N) or not _n_integral(s[i, j] - rep, N):
                    return f"mixed cell ({i}, {j}): coset representative is wrong"
                mixed_zero = mixed_zero and not rep
        want = cls.row_class.trivial and cls.column_class.trivial and mixed_zero
        if cls.trivial != want:
            return "two-variable verdict disagrees with its parts"
        return None


def _digest(cls) -> str:
    text = json.dumps(cls.serialize(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(batch: Batch) -> tuple[float, list]:
    """Time every job once; returns the summed wall time of the calls and the results."""
    wall = 0.0
    results = []
    for job_id, name, args, _ in batch.jobs:
        fn = getattr(batch.eg, name)  # looked up per call, so the tracer sees it
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a crashing job is a failed job
            out = exc
        t1, c1 = time.perf_counter(), time.process_time()
        wall += t1 - t0
        results.append((job_id, out, [t1 - t0, c1 - c0]))
    return wall, results


def verify(batch: Batch, results: list, digests: dict, times: dict, failures: list) -> None:
    """Check a pass: the first result of a job in full, later ones against its digest."""
    for (job_id, name, args, expected), (_, out, sample) in zip(batch.jobs, results):
        times.setdefault(job_id, []).append(sample)
        if isinstance(out, Exception):
            failures.append(f"{job_id}: raised {type(out).__name__}: {out}")
            continue
        digest = _digest(out)
        if job_id in digests:
            problem = None if digest == digests[job_id] else "output differs from the first pass"
        else:
            problem = batch.check(name, args, out, expected)
            digests[job_id] = digest
        if problem:
            failures.append(f"{job_id}: {problem}")


def main() -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import ellgenus.cli  # noqa: F401  (every module must be loaded before wrapping)
        from layertrace import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    batch = Batch(args.seed)
    setup_s = time.perf_counter() - t_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    digests: dict[str, str] = {}
    times: dict[str, list[list[float]]] = {}  # job -> [wall_s, cpu_s] per pass
    failures: list[str] = []
    passes = []
    out = {"setup_s": setup_s, "jobs_per_pass": len(batch.jobs)}
    if tracer is not None:
        # traced set-up, then untraced and traced passes in turn on one CPU, so
        # the fastest of each kind give the overhead ratio; the first untraced
        # pass is checked in full and every later pass must reproduce it.  The
        # trace covers set-up and the first traced pass; checks never run
        # under the tracer.
        tracer.uninstall()
        pin_for_pass(0)
        traced_walls = []
        for _ in range(TRACE_PAIRS):
            wall, results = run_pass(batch)
            verify(batch, results, digests, times, failures)
            passes.append(wall)
            tracer.install()
            wall, results = run_pass(batch)
            tracer.uninstall()
            verify(batch, results, digests, {}, failures)
            if not traced_walls:
                out["trace"] = tracer.dump()
            traced_walls.append(wall)
        out["traced_walls"] = traced_walls
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            pin_for_pass(len(passes))
            wall, results = run_pass(batch)
            verify(batch, results, digests, times, failures)
            passes.append(wall)
    out.update(
        pass_walls=passes,
        job_times=times,
        attempted=len(batch.jobs) * (len(passes) + len(out.get("traced_walls", ()))),
        failed=len(failures),
        failures=failures[:10],
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
