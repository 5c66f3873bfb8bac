"""The three benchmark workloads: inputs, the library call, and the check.

Each workload calls the same library entry points as the matching
`superchar euler|image|sweep` command, so a timing is the time to a
verified result without the argparse and JSON work of the CLI.

Every repetition gets a fresh input of one fixed shape, drawn from the
workload seed.  For `euler` and `image` the input is the base weight with
all coordinates shifted by one common integer: atypicality, genericity and
every xi-window are invariant under such a shift, so each repetition does
the same work and none can be served by a per-input cache that an earlier
repetition filled.  For `sweep` the input is the sweep's own random seed.

Nothing here imports superchar at module level: the worker times that
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

# Shifts are drawn without repetition from this range.
SHIFT_RANGE = range(-500, 501)
# Sweep seeds of worker k start at workload seed + k * SWEEP_SEED_STRIDE.
SWEEP_SEED_STRIDE = 1000


class InvalidInput(ValueError):
    """A generated input failed its check; the benchmark cannot run."""


def load_library():
    """Import superchar from this checkout's src/, never from elsewhere."""
    if not (SRC / "superchar" / "__init__.py").is_file():
        raise ImportError(f"no superchar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import superchar
    # every layer module, for the workloads and the tracer
    from superchar import bggcheck, borels, charring, diagrams, linalg, rootdata, vermacalc  # noqa: F401

    origin = Path(superchar.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"superchar was imported from {origin}, not from {SRC}")
    return superchar


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _relative(weight, top) -> list[int]:
    return [a - b for a, b in zip(weight.coeffs, top.coeffs)]


def terms_digest(terms) -> str:
    """sha256 of the canonical JSON of a sorted [[relative weight], coeff] list."""
    blob = json.dumps(sorted(terms), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ShiftedWeightWorkload:
    """A fixed base weight, shifted per repetition by a common integer."""

    name = ""
    profile = (0, 0)
    eps: tuple[int, ...] = ()
    delta: tuple[int, ...] = ()
    depth = 0

    def inputs(self, lib, seed: int, worker: int):
        """Yield checked weights; raise InvalidInput on one that fails its check."""
        rng = random.Random(f"{self.name}:{seed}:{worker}")
        used: set[int] = set()
        profile = lib.rootdata.RankProfile(*self.profile)
        while True:
            shift = rng.choice(SHIFT_RANGE)
            if shift in used:
                continue
            lam = lib.rootdata.weight_from_coords(
                profile, [v + shift for v in self.eps], [v + shift for v in self.delta]
            )
            problem = self.validate(lib, lam)
            if problem:
                raise InvalidInput(problem)
            used.add(shift)
            yield lam

    def base_input(self, lib):
        profile = lib.rootdata.RankProfile(*self.profile)
        return lib.rootdata.weight_from_coords(profile, self.eps, self.delta)

    @staticmethod
    def validate(lib, lam, brute: bool = False):
        """Regular dominant, totally disconnected and g_-1-generic, or why not.

        Genericity is read from the gap criterion, the closed form of the
        2^{mn}-subset walk: a subset shifts eps coordinate a by any count in
        0..n independently of the others, so the order of a pair survives
        every subset exactly when the pair is more than n apart (m apart on
        the delta block).  With brute=True the walk runs too and must agree;
        record_expected.py and selftest.py ask for that, the timed runs do
        not, so that set-up time is the package's import, not the walk.
        """
        flags = lib.rootdata.classify(lam)
        if not (flags.regular and flags.dominant):
            return f"{lam} is not regular dominant"
        if not lib.diagrams.is_totally_disconnected(lam):
            return f"{lam} is not totally disconnected"
        fast = lib.diagrams.is_g1_generic(lam, mode="fast")
        if brute and lib.diagrams.is_g1_generic(lam, mode="brute") != fast:
            return f"{lam}: the subset walk and the gap criterion disagree on genericity"
        if not fast:
            return f"{lam} is not g_-1-generic"
        return None


class Euler(ShiftedWeightWorkload):
    name = "euler"
    why = (
        "construction side of the series ring (div_unit, mul, add) plus the "
        "2^12-subset genericity test; no PBW work"
    )
    profile = (4, 3)
    eps = (15, 10, 5, 0)
    delta = (0, 5, 10)
    depth = 6

    def call(self, lib, lam):
        return lib.bggcheck.euler_check(lam, self.depth)

    @staticmethod
    def simple_terms(lam, report) -> list:
        """The simple character as sorted [[weight - lam], coeff] pairs."""
        return sorted([_relative(w, lam), c] for w, c in report.rhs.coeffs.items())

    def summarize(self, lib, lam, report) -> dict:
        terms = self.simple_terms(lam, report)
        return {
            "verdict": bool(report.equal),
            "simple_terms": len(terms),
            "simple_digest": terms_digest(terms),
        }

    @staticmethod
    def expectation(summary: dict) -> dict:
        if not summary["verdict"]:
            raise ValueError("euler identity fails")
        return {k: summary[k] for k in ("simple_terms", "simple_digest")}

    def check(self, summary: dict, expected: dict) -> list[str]:
        problems = []
        if not summary["verdict"]:
            problems.append("euler identity failed")
        for key in ("simple_terms", "simple_digest"):
            if summary[key] != expected[key]:
                problems.append(f"{key} {summary[key]} != expected {expected[key]}")
        return problems


class Image(ShiftedWeightWorkload):
    name = "image"
    why = (
        "PBW side: monomial enumeration, straightening and exact row "
        "reduction, checked per weight against char_narrow"
    )
    profile = (3, 3)
    eps = (16, 8, 0)
    delta = (0, 8, 16)
    depth = 4

    def call(self, lib, lam):
        """What `superchar image` computes: ranks, character, and their agreement."""
        ranks = lib.vermacalc.narrow_image_dims(lam, self.depth)
        chart = lib.charring.char_narrow(lam, self.depth, warn=False)
        agree = all(chart.coeff(nu) == rank for nu, rank in ranks.items())
        return ranks, agree

    def summarize(self, lib, lam, result) -> dict:
        ranks, agree = result
        return {
            "agree": bool(agree),
            "ranks": sorted([_relative(nu, lam), r] for nu, r in ranks.items()),
        }

    @staticmethod
    def expectation(summary: dict) -> dict:
        if not summary["agree"]:
            raise ValueError("ranks disagree with char_narrow")
        return {"ranks": summary["ranks"]}

    def check(self, summary: dict, expected: dict) -> list[str]:
        problems = []
        if not summary["agree"]:
            problems.append("a narrow image rank differs from its character coefficient")
        if summary["ranks"] != expected["ranks"]:
            got = {tuple(w): r for w, r in summary["ranks"]}
            want = {tuple(w): r for w, r in expected["ranks"]}
            diff = sorted(w for w in got.keys() | want.keys() if got.get(w) != want.get(w))
            problems.append(f"ranks differ from the expectation at {len(diff)} weights, first {diff[0]}")
        return problems


class Sweep:
    name = "sweep"
    why = (
        "the ring used the other way round: many small Verma characters "
        "over 20 Borels, dominated by equals and div_unit"
    )
    profile = (3, 3)
    trials = 2
    depth = 4

    def inputs(self, lib, seed: int, worker: int):
        """Yield sweep seeds: workload seed + repetition index."""
        index = worker * SWEEP_SEED_STRIDE
        while True:
            yield seed + index
            index += 1

    def base_input(self, lib):
        return 0

    @staticmethod
    def validate(lib, sweep_seed, brute: bool = False):
        """Every integer is a valid sweep seed."""
        return None

    def call(self, lib, sweep_seed: int):
        profile = lib.rootdata.RankProfile(*self.profile)
        return lib.bggcheck.character_shift_sweep(
            profile, trials=self.trials, depth=self.depth, seed=sweep_seed
        )

    def summarize(self, lib, sweep_seed, report) -> dict:
        return {
            "passed": bool(report.passed),
            "pairs_per_trial": report.pairs_checked // self.trials,
            "pairs_checked": report.pairs_checked,
            "mismatches_tried": report.mismatches_tried,
            "mismatches_detected": report.mismatches_detected,
        }

    @staticmethod
    def expectation(summary: dict) -> dict:
        if not summary["passed"]:
            raise ValueError("character sweep fails")
        return {"pairs_per_trial": summary["pairs_per_trial"]}

    def check(self, summary: dict, expected: dict) -> list[str]:
        problems = []
        if not summary["passed"]:
            problems.append("character sweep failed")
        if summary["pairs_checked"] != expected["pairs_per_trial"] * self.trials:
            problems.append(
                f"pairs_checked {summary['pairs_checked']} != "
                f"{expected['pairs_per_trial']} * {self.trials}"
            )
        if summary["mismatches_detected"] != summary["mismatches_tried"]:
            problems.append("a deliberate mismatch went undetected")
        return problems


WORKLOADS = {w.name: w for w in (Euler(), Image(), Sweep())}
