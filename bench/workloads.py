"""The three closed-loop workloads: laws, sets and certify.

A workload turns (seed, cycle number) into a list of tasks, runs one
task through a library namespace (plain or traced), checks the task's
outputs exactly, encodes them for the run digest and measures the size
of its main output in canonical form (`output_size.mean`).  Tasks come in
whole cycles with a fixed mix of backends and input shapes, so every
run sees the same mix whatever its seed and however many cycles fit in
its time; only the concrete words and elements change with the seed.
Checking and encoding happen outside the timed region.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Any, NamedTuple

BACKEND_TAGS = ("odo2", "odo3", "shift2", "shift3")


def task_rng(seed: int, workload: str, task_id: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{task_id}")


def family(tag: str) -> str:
    return "odo" if tag.startswith("odo") else "shift"


class Task(NamedTuple):
    id: int
    family: str         # "odo" or "shift"
    backend: str        # backend tag
    data: Any           # the workload's inputs for this task


# -- laws ---------------------------------------------------------------------


class Laws:
    """Group laws on three fresh random elements, then the support of a
    conjugate against the image of a support (criteria 01 and 03)."""

    name = "laws"
    spans_by_family = False

    def __init__(self, lib, seed: int):
        self.seed = seed
        self.backends = {tag: lib.backend(tag) for tag in BACKEND_TAGS}
        self.identities = {tag: lib.identity(b) for tag, b in self.backends.items()}

    def cycle(self, lib, number: int) -> list[Task]:
        first = number * len(BACKEND_TAGS)
        return [Task(first + k, family(tag), tag, None) for k, tag in enumerate(BACKEND_TAGS)]

    def run(self, lib, task: Task):
        backend = self.backends[task.backend]
        e = self.identities[task.backend]
        rng = task_rng(self.seed, self.name, task.id)
        f = lib.random_element(rng, backend, 6)
        g = lib.random_element(rng, backend, 6)
        h = lib.random_element(rng, backend, 6)
        fg_h = lib.compose(lib.compose(f, g), h)
        f_gh = lib.compose(f, lib.compose(g, h))
        f_inv = lib.inverse(f)
        fe, ef = lib.compose(f, e), lib.compose(e, f)
        return {
            "f": f, "g": g, "fgh": fg_h, "f_gh": f_gh, "fe": fe, "ef": ef,
            "assoc": lib.equals(fg_h, f_gh),
            "right_id": lib.equals(fe, f),
            "left_id": lib.equals(ef, f),
            "f_is_g": lib.equals(f, g),
            "right_inv": lib.compose(f, f_inv),
            "left_inv": lib.compose(f_inv, f),
            "supp_conj": lib.support(lib.conjugate(g, f)),
            "image_supp": lib.image_of_clopen(g, lib.support(f)),
        }

    def check(self, lib, task: Task, out) -> list[str]:
        f = out["f"]
        # each law holds in canonical form, and equals agrees with it
        laws = {"assoc": (out["fgh"], out["f_gh"]), "right_id": (out["fe"], f),
                "left_id": (out["ef"], f), "f_is_g": (f, out["g"])}
        bad = [law for law, (x, y) in laws.items()
               if out[law] is not (x.pieces == y.pieces)
               or (law != "f_is_g" and x.pieces != y.pieces)]
        bad += [law for law in ("right_inv", "left_inv") if not out[law].is_identity()]
        if out["supp_conj"] != out["image_supp"]:
            bad.append("support of conjugate")
        return bad

    def output_size(self, out) -> int:
        return len(out["fgh"].pieces)

    def encode(self, lib, task: Task, out) -> str:
        return "|".join([lib.format_element(out["f"]), lib.format_element(out["g"]),
                         lib.format_element(out["fgh"]), lib.format_clopen(out["supp_conj"])])


# -- sets ---------------------------------------------------------------------

# word lengths per base, and the word counts: log-uniform from 16 to
# 512 in SIZE_STRATA strata per cycle, placed inside each stratum by a
# golden-ratio sequence over cycles, so the sizes a run sees do not
# depend on its seed
WORD_LENGTHS = {2: (8, 10), 3: (5, 7)}
MIN_WORDS, MAX_WORDS, SIZE_STRATA = 16, 512, 6
GOLDEN = 0.6180339887498949


def bitmap(words, base: int, depth: int) -> frozenset:
    """Depth-`depth` words covered by the cylinders of `words`, found
    by prefix lookup; independent of the library's canonical forms."""
    prefixes = set(map(tuple, words))
    return frozenset(w for w in itertools.product(range(base), repeat=depth)
                     if any(w[:k] in prefixes for k in range(depth + 1)))


class Sets:
    """Boolean algebra on two benchmark-made antichains of 16 to 512
    words, a comparison witness, and a swap and 4 GW rounds on one
    swap-equivalent pair of depth <= 6."""

    name = "sets"
    spans_by_family = False

    def __init__(self, lib, seed: int):
        self.seed = seed
        self.backends = {tag: lib.backend(tag) for tag in BACKEND_TAGS}

    def cycle(self, lib, number: int) -> list[Task]:
        tasks = []
        for stratum in range(SIZE_STRATA):
            for k, tag in enumerate(BACKEND_TAGS):
                backend = self.backends[tag]
                task_id = (number * SIZE_STRATA + stratum) * len(BACKEND_TAGS) + k
                rng = task_rng(self.seed, self.name, task_id)
                place = (number * GOLDEN + k / len(BACKEND_TAGS)) % 1
                ratio = (stratum + place) / SIZE_STRATA
                count = round(MIN_WORDS * (MAX_WORDS / MIN_WORDS) ** ratio)
                lo, hi = WORD_LENGTHS[backend.base]
                words = [[tuple(rng.randrange(backend.base)
                                for _ in range(rng.randint(lo, hi)))
                          for _ in range(count)] for _ in range(2)]
                pair = lib.swap_equivalent_pair(rng, backend, 6)
                tasks.append(Task(task_id, family(tag), tag,
                                  {"words": words, "pair": pair, "bitmap": stratum == 0}))
        return tasks

    def run(self, lib, task: Task):
        backend = self.backends[task.backend]
        base = backend.base
        words_a, words_b = task.data["words"]
        A = lib.from_words(base, words_a)
        B = lib.from_words(base, words_b)
        D = lib.difference(A, B)
        out = {
            "A": A, "B": B, "D": D,
            "U": lib.union(A, B), "I": lib.intersect(A, B),
            "Ac": lib.complement(A), "Bc": lib.complement(B),
            "subset": lib.is_subset(A, B),
            "mA": lib.measure(A), "mB": lib.measure(B), "mD": lib.measure(D),
        }
        out["mU"] = lib.measure(out["U"])
        out["mI"] = lib.measure(out["I"])
        admissible = not B.is_empty() and (not backend.is_odometer or out["mD"] < out["mB"])
        out["witness"] = lib.compare_clopen(backend, D, B) if admissible else None
        SA, SB = task.data["pair"]
        out["swap"] = lib.exact_swap_involution(backend, SA, SB)
        out["gw"] = lib.gw_intertwining(backend, SA, SB, 4)
        return out

    def check(self, lib, task: Task, out) -> list[str]:
        B, I, D, Ac, Bc = out["B"], out["I"], out["D"], out["Ac"], out["Bc"]
        bad = []
        if lib.complement(I) != lib.union(Ac, Bc):
            bad.append("De Morgan")
        if out["mU"].fraction + out["mI"].fraction != out["mA"].fraction + out["mB"].fraction:
            bad.append("measure of union and intersection")
        if out["subset"] != D.is_empty():
            bad.append("is_subset")
        if out["witness"] is not None:
            source, target = lib.source_range(out["witness"])
            if source != D or not lib.is_subset(target, B):
                bad.append("compare witness")
        SA, SB = task.data["pair"]
        if lib.image_of_clopen(out["swap"], SA) != SB:
            bad.append("swap image")
        if out["gw"].round != 4:
            bad.append("gw rounds")
        if task.data["bitmap"]:
            bad += self._bitmap_check(task, out)
        return bad

    def _bitmap_check(self, task: Task, out) -> list[str]:
        base = self.backends[task.backend].base
        depth = WORD_LENGTHS[base][1]
        words_a, words_b = task.data["words"]
        everything = bitmap([()], base, depth)
        a, b = bitmap(words_a, base, depth), bitmap(words_b, base, depth)
        expected = {"A": a, "B": b, "U": a | b, "I": a & b, "D": a - b,
                    "Ac": everything - a, "Bc": everything - b}
        bad = [f"bitmap {key}" for key, bits in expected.items()
               if bitmap(out[key].words, base, depth) != bits]
        if out["mA"].fraction != Fraction(len(a), base ** depth):
            bad.append("bitmap measure")
        return bad

    def output_size(self, out) -> int:
        return sum(len(out[key].words) for key in ("U", "I", "D", "Ac"))

    def encode(self, lib, task: Task, out) -> str:
        parts = [lib.format_clopen(out[key]) for key in ("U", "I", "D", "Ac")]
        parts += [str(out[key]) for key in ("subset", "mA", "mB", "mU", "mI")]
        parts.append(lib.format_bisection(out["witness"]) if out["witness"] else "-")
        parts += [lib.format_element(out["swap"]), lib.format_element(out["gw"].partial)]
        return "|".join(parts)


# -- certify ------------------------------------------------------------------

# odometer triples by shape: tau0 is a power of the adding machine and
# alpha, beta are swaps of m cylinders against m cylinders of depth d,
# ((m_alpha, d_alpha), (m_beta, d_beta)).  The shapes fix each
# certificate's size (24 to 144 factors on the seed code), so every run
# holds the same spread of sizes.  An odd count of shapes keeps the
# median and the 75th percentile off the steps between shapes.
ODO_SHAPES = {
    "odo2": [((2, 4), (1, 4)), ((4, 4), (1, 4)), ((3, 3), (1, 4))],
    "odo3": [((1, 3), (1, 3)), ((2, 3), (1, 3)), ((1, 2), (1, 3)), ((2, 2), (1, 3))],
}
SHIFT_TRIPLES = 10      # per shift backend and cycle
SHIFT_DEPTH = 5
SIGN_FLIP_MAX_FACTORS = 64


class Certify:
    """The CLI's certify -> verify round trip on `elem:` encoded triples
    with a nontrivial commutator; odometer triples by shape, shift
    triples drawn as in criterion 09."""

    name = "certify"
    spans_by_family = True

    def __init__(self, lib, seed: int):
        self.seed = seed
        self.backends = {tag: lib.backend(tag) for tag in BACKEND_TAGS}

    def cycle(self, lib, number: int) -> list[Task]:
        plan = [(tag, shape) for tag, shapes in ODO_SHAPES.items() for shape in shapes]
        plan += [(tag, None) for tag in ("shift2", "shift3") for _ in range(SHIFT_TRIPLES)]
        tasks = []
        for k, (tag, shape) in enumerate(plan):
            task_id = number * len(plan) + k
            rng = task_rng(self.seed, self.name, task_id)
            backend = self.backends[tag]
            triple = (self._odo_triple(lib, rng, backend, shape) if shape
                      else self._shift_triple(lib, rng, backend))
            tasks.append(Task(task_id, family(tag), tag,
                              [lib.format_element(x) for x in triple]))
        return tasks

    @staticmethod
    def _swap(lib, rng, backend, m: int, d: int):
        b = backend.base
        words = rng.sample(list(itertools.product(range(b), repeat=d)), 2 * m)
        return lib.exact_swap_involution(backend, lib.ClopenSet.from_words(b, words[:m]),
                                         lib.ClopenSet.from_words(b, words[m:]))

    def _odo_triple(self, lib, rng, backend, shape):
        b = backend.base
        tau0 = lib.element_from_pieces(
            backend, [lib.OdometerPiece((), rng.randrange(1, b * b))], fill_identity=False)
        while True:
            alpha = self._swap(lib, rng, backend, *shape[0])
            beta = self._swap(lib, rng, backend, *shape[1])
            if not lib.commutator(alpha, beta)[0].is_identity():
                return tau0, alpha, beta

    @staticmethod
    def _shift_triple(lib, rng, backend):
        while True:
            tau0 = lib.random_element(rng, backend, SHIFT_DEPTH, nontrivial=True)
            if lib.equals(tau0, lib.inverse(tau0)):
                continue          # keeps the sign-flip check observable
            alpha, beta = (lib.random_element(rng, backend, SHIFT_DEPTH, nontrivial=True,
                                              proper_support=True, moves=1)
                           for _ in range(2))
            if not lib.commutator(alpha, beta)[0].is_identity():
                return tau0, alpha, beta

    def run(self, lib, task: Task):
        tau0, alpha, beta = (lib.parse_element(text) for text in task.data)
        env = lib.Environment(tau0.backend, {"tau0": tau0, "alpha": alpha, "beta": beta})
        cert = lib.commutator_in_normal_closure("alpha", "beta", "tau0", env)
        target = lib.commutator(alpha, beta)[0]
        text = lib.dump_certificate(cert, env, target)
        loaded, loaded_env, loaded_target = lib.load_certificate(text)
        ok = lib.verify_certificate(loaded, loaded_env, loaded_target)
        return {"elements": (tau0, alpha, beta), "cert": cert, "text": text, "ok": ok,
                "loaded": (loaded, loaded_env, loaded_target)}

    def check(self, lib, task: Task, out) -> list[str]:
        tau0, alpha, beta = out["elements"]
        loaded, env, target = out["loaded"]
        bad = []
        if out["ok"] is not True:
            bad.append("verify")
        if not out["cert"].factors:
            bad.append("empty certificate")
        expected = lib.compose(lib.compose(lib.compose(alpha, beta), lib.inverse(alpha)),
                               lib.inverse(beta))
        if target != expected:
            bad.append("certificate target")
        if loaded != out["cert"] or (env.get("tau0"), env.get("alpha"), env.get("beta")) \
                != (tau0, alpha, beta):
            bad.append("certificate round trip")
        if out["cert"].factors and len(out["cert"].factors) <= SIGN_FLIP_MAX_FACTORS:
            first = loaded.factors[0]
            flipped = lib.ConjugateProduct(loaded.generator, (
                lib.ConjugateFactor(first.conjugator, -first.sign),) + loaded.factors[1:])
            if lib.verify_certificate(flipped, env, target):
                bad.append("sign flip still verifies")
        return bad

    def output_size(self, out) -> int:
        return sum(len(f.conjugator.tokens) for f in out["cert"].factors)

    def encode(self, lib, task: Task, out) -> str:
        return out["text"] + str(out["ok"])
