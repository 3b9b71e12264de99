"""The benchmark workloads: their inputs, their items, and the checks of every
item's output against the paper's claims and the recorded amount of work.

An item is one call whose failure the benchmark records and survives: one
prime of a Hecke sweep, the whole rank sweep, or one verification call of the
extension-field workload.  Every call into weilrep goes through a module
attribute (``catmap.hecke_que_experiment``, ``symp.module_structure``, ...)
so that the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import dataclass, field
from typing import Callable

from weilrep import catmap, heiwei, sums, symp
from weilrep.gfq import FieldCtx

#: claim tolerances, as stated by the acceptance suite
RATIO_TOL = 1e-9  # every bound ratio <= 1 + RATIO_TOL
TRACE_TOL = 1e-10  # |Tr D - 1| of the statistical states
OPERATOR_TOL = 1e-8  # operator distance <= OPERATOR_TOL * q^N
DENSITY_TOL = 0.05  # rank frequencies within this of 1/2
TWIN_TOL = 1e-12  # extension-field and prime-field twins agree

RANK_MAX_PRIME = 2_000
CAT2_PRIMES = (5, 97)
CAT4_PRIMES = (3, 13)
SELFRED_SAMPLES = 50
#: ext-field works over GF(EXT_PRIME) and GF(EXT_PRIME^2)
EXT_PRIME = 3

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass
class Outcome:
    """What an item returns: its check count and the checks it failed, or
    the reason it was skipped."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    skipped: str | None = None


@dataclass
class ItemResult:
    id: str
    status: str  # "ok", "wrong" (an output check failed), "error" (raised), "skipped"
    seconds: float
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    error: dict | None = None
    skipped: str | None = None
    summary: dict = field(default_factory=dict)

    @property
    def attempted(self) -> bool:
        return self.status != "skipped"

    @property
    def failed(self) -> bool:
        return self.status in ("wrong", "error")


@dataclass
class Item:
    id: str
    run: Callable[[], Outcome]


def run_item(item: Item, clock) -> ItemResult:
    """Run one item; an exception becomes a failed item with its type and
    message, and the pass goes on."""
    t0 = clock()
    try:
        out = item.run()
    except Exception as exc:  # the sweep must survive any one bad item
        tb = traceback.extract_tb(exc.__traceback__)[-1]
        return ItemResult(
            item.id,
            "error",
            clock() - t0,
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "where": f"{os.path.basename(tb.filename)}:{tb.lineno} in {tb.name}",
            },
        )
    seconds = clock() - t0
    if out.skipped is not None:
        return ItemResult(item.id, "skipped", seconds, skipped=out.skipped)
    status = "wrong" if out.failures else "ok"
    return ItemResult(item.id, status, seconds, out.checks, list(out.failures), summary=out.summary)


def _over(name, value, limit):
    return [] if value <= limit else [f"{name} = {value!r} > {limit!r}"]


def _nonzero(name, value):
    return [] if value == 0 else [f"{name} = {value!r}, expected 0"]


# -- Hecke sweeps -----------------------------------------------------------------


def que_failures(row, N: int) -> list[str]:
    out = _nonzero("violations", row["violations"])
    out += _over("max_ratio", row["max_ratio"], 1 + RATIO_TOL)
    if N == 1:  # criterion 7 holds the plain bound for every basis state
        out += _over("max_ratio_plain", row["max_ratio_plain"], 1 + RATIO_TOL)
    return out


def statistical_failures(row) -> list[str]:
    out = _nonzero("statistical violations", row["violations"])
    out += _over("statistical max_ratio", row["max_ratio"], 1 + RATIO_TOL)
    out += _over("trace_deviation", row["trace_deviation"], TRACE_TOL)
    return out


def hecke_item(A, p: int, statistical: bool) -> Outcome:
    """One prime: the QUE experiment (checks = eigenstates x admissible
    exponents) and optionally the statistical one (eigenspaces x admissible
    exponents)."""
    row = catmap.hecke_que_experiment(A, p)
    if row["skipped"]:
        return Outcome(skipped=row["skipped"])
    admissible = row["n_xi"] - row["n_xi_excluded"]
    out = Outcome(row["n_eigenstates"] * admissible, que_failures(row, A.N))
    out.summary = {"torus": row["torus"], "max_ratio": row["max_ratio"]}
    if statistical:
        srow = catmap.statistical_state_experiment(A, p)
        out.checks += srow["n_eigenspaces"] * admissible
        out.failures += statistical_failures(srow)
        out.summary["statistical_max_ratio"] = srow["max_ratio"]
    return out


# -- rank sweep -------------------------------------------------------------------


def rank_sweep_item(A, max_prime: int, expected: dict) -> Outcome:
    sweep = catmap.rank_density_sweep(A, max_prime)
    out = Outcome(sweep["n_primes"])
    for r in (1, 2):
        f = sweep["freqs"].get(r, 0.0)
        if abs(f - 0.5) > DENSITY_TOL:
            out.failures.append(f"rank {r} frequency {f!r} not within {DENSITY_TOL} of 1/2")
    counts = {str(r): c for r, c in sorted(sweep["counts"].items())}
    if counts != expected["rank_counts"]:
        out.failures.append(f"rank counts {counts} != recorded {expected['rank_counts']}")
    if sweep["skipped"] != expected["skipped_primes"]:
        out.failures.append(
            f"skipped primes {sweep['skipped']} != recorded {expected['skipped_primes']}"
        )
    out.summary = {
        "counts": counts,
        "freqs": {str(r): f for r, f in sweep["freqs"].items()},
        "skips": {str(p): catmap.skip_reason(A, p) for p in sweep["skipped"]},
    }
    return out


# -- extension fields --------------------------------------------------------------


def self_reducibility_item(space, seed: int) -> Outcome:
    torus = symp.build_maximal_torus(space, ["irreducible" + str(space.N)])
    ms = symp.module_structure(torus)
    rep = heiwei.WeilRep(space)
    rpt = heiwei.restrict_to_extension(rep, ms, n_samples=SELFRED_SAMPLES, seed=seed)
    out = Outcome(
        rpt["sigma_identity_checked"] + rpt["psi_identity_checked"] + rpt["n_operator_tests"]
    )
    out.failures += _nonzero("sigma_identity_failures", rpt["sigma_identity_failures"])
    out.failures += _nonzero("psi_identity_failures", rpt["psi_identity_failures"])
    if rpt["sigma_identity_checked"] != torus.order - 1:
        out.failures.append(
            f"sigma_identity_checked = {rpt['sigma_identity_checked']}, expected |T| - 1 = {torus.order - 1}"
        )
    out.failures += _over("max_operator_distance", rpt["max_operator_distance"], OPERATOR_TOL * rep.dim)
    out.summary = {"max_operator_distance": rpt["max_operator_distance"]}
    return out


def bound_item(space, kind) -> Outcome:
    torus = symp.build_maximal_torus(space, kind)
    rpt = sums.bound_report(space, torus)
    violations = sum(row["ratio"] > 1 + RATIO_TOL for row in rpt.rows)
    out = Outcome(len(rpt.rows), _nonzero("violations", violations))
    out.failures += _over("max_ratio", rpt.max_ratio, 1 + RATIO_TOL)
    if out.failures:
        out.failures.append(f"worst witness {rpt.argmax}")
    out.summary = {"max_ratio": rpt.max_ratio, "n_excluded": len(rpt.excluded)}
    return out


def twin_failures(results: dict[str, ItemResult], pairs) -> None:
    """Append a failure to the prime-field item of every twin pair whose
    maximum ratio differs from its extension-field twin."""
    for ext_id, prime_id in pairs:
        a, b = results.get(ext_id), results.get(prime_id)
        if a is None or b is None or a.status == "error" or b.status == "error":
            continue
        ra, rb = a.summary["max_ratio"], b.summary["max_ratio"]
        if abs(ra - rb) > TWIN_TOL:
            b.failures.append(f"max_ratio {rb!r} differs from twin {ext_id} ({ra!r}) by more than {TWIN_TOL}")
            b.status = "wrong"


# -- workloads ---------------------------------------------------------------------


class Workload:
    """Inputs built once (the set-up), and the items of one pass."""

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = load_expected()[self.name]

    def inputs(self) -> dict:
        """A JSON description of everything the items are run on."""
        raise NotImplementedError

    def items(self) -> list[Item]:
        raise NotImplementedError

    def cross_check(self, results: dict[str, ItemResult]) -> None:
        pass


class RankSweep(Workload):
    name = "rank-sweep"
    why = "Chebotarev rank statistics: charpoly factorization mod p per prime, no representation built"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.A = catmap.LatticeAutomorphism(catmap.CAT4_DEFAULT)
        self.max_prime = RANK_MAX_PRIME

    def inputs(self):
        return {"A": self.A.mat, "max_prime": self.max_prime, "seeded": False}

    def items(self):
        return [Item("sweep", lambda: rank_sweep_item(self.A, self.max_prime, self.expected))]


class HeckeSweep(Workload):
    matrix: tuple = ()
    prime_range: tuple = ()
    statistical = False

    def __init__(self, seed: int):
        super().__init__(seed)
        self.A = catmap.LatticeAutomorphism(self.matrix)
        lo, hi = self.prime_range
        self.primes = [p for p in catmap.primes_up_to(hi) if p >= lo]

    def inputs(self):
        return {"A": self.A.mat, "primes": self.primes, "statistical": self.statistical, "seeded": False}

    def items(self):
        return [
            Item(f"p={p}", lambda p=p: hecke_item(self.A, p, self.statistical))
            for p in self.primes
        ]


class HeckeCat2(HeckeSweep):
    name = "hecke-cat2"
    why = "criteria 7 and 8: many small representations, per-prime fixed costs dominate"
    matrix = catmap.CAT2_DEFAULT
    prime_range = CAT2_PRIMES
    statistical = True


class HeckeCat4(HeckeSweep):
    name = "hecke-cat4"
    why = "Sp(4) QUE up to dimension 169: decompose and weil_op dominate; p = 11 shows the centralizer defect"
    matrix = catmap.CAT4_DEFAULT
    prime_range = CAT4_PRIMES


class ExtField(Workload):
    name = "ext-field"
    why = "GF(9) operator and character-sum paths beside their GF(3) twins; the only seeded workload"
    #: (extension-field item, prime-field twin) with equal maximum ratios
    TWINS = (
        ("bounds-sl2-f9-split", "bounds-sp4-f3-split2"),
        ("bounds-sl2-f9-inert", "bounds-sp4-f3-irreducible2"),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sp4 = symp.SympSpace(FieldCtx(EXT_PRIME), 2)
        self.sl2 = symp.SympSpace(FieldCtx(EXT_PRIME, 2), 1)

    def inputs(self):
        q = EXT_PRIME
        return {
            "self_reducibility": {"q": q, "N": 2, "torus": "irreducible2",
                                  "samples": SELFRED_SAMPLES, "sample_seed": self.seed},
            "bound_reports": {f"SL(2, GF({q * q}))": ["split", "inert"],
                              f"Sp(4, GF({q}))": ["split2", "irreducible2"]},
            "seeded": True,
        }

    def items(self):
        return [
            Item("selfred-sp4-f3", lambda: self_reducibility_item(self.sp4, self.seed)),
            Item("bounds-sl2-f9-split", lambda: bound_item(self.sl2, ["split"])),
            Item("bounds-sl2-f9-inert", lambda: bound_item(self.sl2, ["inert"])),
            Item("bounds-sp4-f3-split2", lambda: bound_item(self.sp4, [("split", 2)])),
            Item("bounds-sp4-f3-irreducible2", lambda: bound_item(self.sp4, ["irreducible2"])),
        ]

    def cross_check(self, results):
        twin_failures(results, self.TWINS)


WORKLOADS = {w.name: w for w in (RankSweep, HeckeCat2, HeckeCat4, ExtField)}


def build(name: str, seed: int) -> Workload:
    """The set-up: a workload's inputs, ready for its first item."""
    return WORKLOADS[name](seed)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_work(results: list[ItemResult], expected: dict) -> None:
    """Compare every item with the work recorded for it, so a pass that does
    less work cannot read as faster: a completed item must match its recorded
    check count, and the skipped items must be exactly the recorded ones."""
    counts = expected["checks"]
    skips = expected["skipped"]
    for r in results:
        if r.status == "skipped" and r.id not in skips:
            r.failures.append(f"skipped ({r.skipped}) but recorded as attempted")
        elif r.status != "skipped" and r.id in skips:
            r.failures.append(f"recorded as skipped ({skips[r.id]}) but attempted")
        elif r.status in ("ok", "wrong") and r.checks != counts.get(r.id):
            r.failures.append(f"checks = {r.checks}, recorded {counts.get(r.id)}")
        if r.failures and r.status != "error":
            r.status = "wrong"
