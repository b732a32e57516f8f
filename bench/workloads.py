"""The three benchmark workloads: set-up, one work item, and verdict checks.

Every workload is a closed loop run by ``run.py``: one process, one thread,
each item starting when the previous one has finished.  Inputs are a pure
function of the seed and the item index, so a replay of the same indices
sees the same inputs.

* ``construct-verify`` runs the paper's pipelines as CLI subcommands on
  JSON files written during set-up.
* ``state-budget`` runs ``stats`` and ``determinize`` on self-loop-only
  alphabets and checks the reached records against S_R.
* ``query-stream`` sends single UP-word queries to long-lived oracles.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import corpus as C

DOCUMENTED_EXIT_CODES = (0, 1, 2, 3)

# Enumeration bounds passed to `obat equiv` and `obat posi-check`.  The CLI
# defaults (3/4) make one 3-letter `equiv` cost ~4,800 words; posi-check on a
# 9-letter alphabet at 2/2 would need ~67M queries (see NOTES.md).
EQUIV_BOUNDS = ("--max-prefix", "2", "--max-period", "3")
POSI_BOUNDS = ("--max-prefix", "1", "--max-period", "2")


class WrongVerdict(Exception):
    """The program answered, with a documented exit code, but wrongly."""


class ItemFailed(Exception):
    """An item raised or returned an undocumented exit code."""


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``obat.cli.main`` in-process; looked up per call so tracing sees it."""
    import obat.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = obat.cli.main(argv)
    if code not in DOCUMENTED_EXIT_CODES:
        raise ItemFailed(f"obat {' '.join(argv)}: undocumented exit code {code!r}")
    return code, out.getvalue()


def expect(argv: list[str], code: int = 0) -> str:
    got, out = cli_call(argv)
    if got != code:
        raise WrongVerdict(f"obat {' '.join(argv)}: exit {got}, expected {code}: {out.strip()}")
    return out


def write_json(path, doc) -> str:
    Path(path).write_text(json.dumps(doc))
    return str(path)


def up(word):
    from obat import up as make

    return make(*word)


def hist(values) -> dict:
    return {str(k): n for k, n in sorted(Counter(values).items())}


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._perms: dict[str, list] = {}
        workdir.mkdir(parents=True, exist_ok=True)

    def rng(self, *key) -> random.Random:
        return random.Random("/".join(str(k) for k in (self.name, self.seed) + key))

    def cycle(self, key: str, values, j: int):
        """j-th draw of a seeded permutation of ``values``, repeated.

        Shapes are drawn this way, not independently, so every stretch of
        len(values) draws holds each shape once and the per-run mix of sizes
        does not depend on the seed; the contents stay random.
        """
        if key not in self._perms:
            perm = list(values)
            self.rng("perm", key).shuffle(perm)
            self._perms[key] = perm
        perm = self._perms[key]
        return perm[j % len(perm)]

    def prepare(self, i: int):
        """Input of item i, built outside the timed region."""
        return i

    def run_item(self, prepared):
        raise NotImplementedError

    def verify(self, results: dict) -> dict:
        """Check every completed item; raise WrongVerdict. Returns the corpus shape."""
        raise NotImplementedError

    def attempted_shape(self, attempted) -> dict:
        """Histogram of item kinds over every attempted item, failed ones included."""
        raise NotImplementedError

    def layer_extras(self, results: dict) -> dict:
        return {}


class FileWorkload(Workload):
    """A corpus of automaton files, cycled by item index.

    Set-up builds the documents in memory.  An element's files are written
    just before its first item, outside the timed region: written all at
    once, they made set-up time follow the shared file system's stalls
    rather than the work done.
    """

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.elements: list[dict] = []

    def element(self, i: int) -> int:
        return i % len(self.elements)

    def prepare(self, i: int):
        for path, doc in self.elements[self.element(i)].pop("unwritten", {}).items():
            write_json(path, doc)
        return i


# --- construct-verify --------------------------------------------------------------

CV_SCHEDULE = ("oba", "rabin", "oba", "parity", "oba", "oba", "rabin", "oba", "parity", "oba")
CV_ELEMENTS = 1000  # more than one run attempts, so items rarely repeat
CV_SHAPES = {
    "oba": [(n, k) for n in (3, 4, 5) for k in (2, 3)],  # states, letters
    "rabin": [(k, p) for k in (3, 4) for p in (1, 2, 3)],  # letters, pairs
    "parity": [(k, d) for k in (2, 3, 4) for d in (1, 2)],  # states, odd levels
}


class ConstructVerify(FileWorkload):
    name = "construct-verify"
    why = (
        "what a user of the paper runs: determinize/ε-complete/convert then equiv and posi-check "
        "via the CLI, on small automata with many memo hits"
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        seen = dict.fromkeys(CV_SHAPES, 0)
        for e in range(CV_ELEMENTS):
            kind = CV_SCHEDULE[e % len(CV_SCHEDULE)]
            shape = self.cycle(kind, CV_SHAPES[kind], seen[kind])
            seen[kind] += 1
            rng = self.rng("element", e)
            el = {"kind": kind, "stem": str(workdir / f"e{e}")}
            if kind == "oba":
                el["doc"] = C.random_oba_doc(rng, *shape)
                el["a"] = self.path(el, "a")
                el["unwritten"] = {el["a"]: el["doc"]}
            elif kind == "rabin":
                el["spec"] = C.random_rabin_spec(rng, *shape)
                el["spec_path"], el["ref"] = self.path(el, "spec"), self.path(el, "ref")
                el["unwritten"] = {el["spec_path"]: el["spec"], el["ref"]: C.rabin_guess_npa_doc(el["spec"])}
            else:
                el["doc"] = C.random_eps_complete_doc(rng, *shape)
                el["p"] = self.path(el, "p")
                el["unwritten"] = {el["p"]: el["doc"]}
            self.elements.append(el)

    @staticmethod
    def path(el: dict, part: str) -> str:
        return f"{el['stem']}.{part}.json"

    def run_item(self, i: int):
        el = self.elements[self.element(i)]
        if el["kind"] == "oba":
            a, det, aug = el["a"], self.path(el, "det"), self.path(el, "aug")
            expect(["validate", a])
            out = expect(["determinize", a, "-o", det])
            expect(["eps-complete", det, "-o", aug])
            expect(["equiv", a, det, *EQUIV_BOUNDS])
            expect(["equiv", det, aug, *EQUIV_BOUNDS])
            expect(["posi-check", a, *POSI_BOUNDS])
            return int(out.split()[0])
        oba = self.path(el, "oba")
        if el["kind"] == "rabin":
            expect(["convert", "rabin", el["spec_path"], "-o", oba])
            expect(["equiv", oba, el["ref"], *EQUIV_BOUNDS])
            return None
        expect(["convert", "parity", el["p"], "-o", oba])
        expect(["equiv", el["p"], oba, *EQUIV_BOUNDS])
        return None

    def verify(self, results):
        from obat import DpaOracle, NpaOracle, ObaOracle, intertwine
        from obat.cli import load_document

        shapes = []
        for e in sorted({self.element(i) for i in results}):
            el = self.elements[e]
            rng = self.rng("check", e)
            if el["kind"] == "oba":
                _, a, _ = load_document(el["a"])
                _, det, _ = load_document(self.path(el, "det"))
                _, aug, _ = load_document(self.path(el, "aug"))
                oba, dpa, npa = ObaOracle(a), DpaOracle(det), NpaOracle(aug)
                for word in C.short_words(rng, sorted(a.alphabet), 6, 3, 3):
                    w = up(word)
                    want = oba(w)
                    if dpa(w) != want or npa(intertwine(w)) != want:
                        raise WrongVerdict(f"element {e}: Oba/Dpa/Npa(intertwined) disagree on {w}")
                if len(det.states) > C.record_bound(a.universe.size):
                    raise WrongVerdict(f"element {e}: {len(det.states)} records over the bound")
                shapes.append(("oba", a.universe.size, len(a.alphabet), len(det.states)))
            elif el["kind"] == "rabin":
                spec = el["spec"]
                _, oba, morphism = load_document(self.path(el, "oba"))
                _, ref, _ = load_document(el["ref"])
                converted, guess = ObaOracle(oba, morphism), NpaOracle(ref)
                for word in C.short_words(rng, spec["alphabet"], 16, 3, 4):
                    w = up(word)
                    want = C.rabin_accepts(spec, *word)
                    if converted(w) != want or guess(w) != want:
                        raise WrongVerdict(f"element {e}: Rabin route disagrees with pair evaluation on {w}")
                shapes.append(("rabin", oba.universe.size, len(spec["alphabet"]), len(spec["pairs"])))
            else:
                _, src, _ = load_document(el["p"])
                _, oba, morphism = load_document(self.path(el, "oba"))
                npa, converted = NpaOracle(src), ObaOracle(oba, morphism)
                for word in C.short_words(rng, ["a", "b"], 12, 3, 4):
                    w = up(word)
                    if npa(w) != converted(w):
                        raise WrongVerdict(f"element {e}: Npa and Oba+morphism disagree on {w}")
                shapes.append(("parity", len(src.states), 2, oba.universe.size))
        by_kind = {}
        for kind in ("oba", "rabin", "parity"):
            rows = [s for s in shapes if s[0] == kind]
            by_kind[kind] = {
                "elements": len(rows),
                "states": hist(r[1] for r in rows),
                "letters": hist(r[2] for r in rows),
                {"oba": "records", "rabin": "pairs", "parity": "oba_states"}[kind]: hist(r[3] for r in rows),
            }
        by_kind["equiv_bounds"] = " ".join(EQUIV_BOUNDS)
        by_kind["posi_bounds"] = " ".join(POSI_BOUNDS)
        return by_kind

    def attempted_shape(self, attempted):
        return {"kinds": hist(self.elements[self.element(i)]["kind"] for i in attempted)}

    def layer_extras(self, results):
        reached = sum(r for r in results.values() if r is not None)
        bound = sum(
            C.record_bound(len(self.elements[self.element(i)]["doc"]["states"]))
            for i, r in results.items()
            if r is not None
        )
        return {"determinize.records_over_bound": reached / bound if bound else 0.0}


# --- state-budget ------------------------------------------------------------------

# One block of 40 items: the full horizontal-complete alphabets (twice at
# n=3, once at n=4), 31 seeded sub-alphabets over 3-4 states and 6 (15 %)
# over 5-6 states.
SB_SCHEDULE = [("full", 3)] * 2 + [("full", 4)] + [("big", 5)] * 3 + [("big", 6)] * 3
SB_SCHEDULE += [("sub", 3)] * 16 + [("sub", 4)] * 15
random.Random(20260102).shuffle(SB_SCHEDULE)
SB_ELEMENTS = 480  # 12 blocks; more than one run attempts
SB_LETTERS = {3: (4, 12), 4: (4, 16), 5: (6, 12), 6: (6, 10)}
_RA_LINE = re.compile(r"^R_A = \{(.*)\}$", re.M)
_SR_LINE = re.compile(r"^\|S_R\| = (\d+)$", re.M)


class StateBudget(FileWorkload):
    name = "state-budget"
    why = (
        "tile products and the monoid behind R_A/S_R plus delta over many letters; "
        "no oracle runs, so the lasso engine is bypassed"
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        seen = dict.fromkeys(SB_LETTERS, 0)
        for e in range(SB_ELEMENTS):
            kind, n = SB_SCHEDULE[e % len(SB_SCHEDULE)]
            if kind == "full":
                letters = C.full_loop_alphabet(n)
            else:
                lo, hi = SB_LETTERS[n]
                k = self.cycle(f"letters-{n}", range(lo, hi + 1), seen[n])
                seen[n] += 1
                letters = C.sub_loop_alphabet(self.rng("element", e), n, k)
            path = str(workdir / f"e{e}.json")
            self.elements.append(
                {"kind": kind, "n": n, "letters": letters, "path": path, "unwritten": {path: C.loop_oba_doc(n, letters)}}
            )

    def run_item(self, i: int):
        el = self.elements[self.element(i)]
        det = str(self.workdir / f"e{self.element(i)}.det.json")
        stats = expect(["stats", el["path"]])
        out = expect(["determinize", el["path"], "-o", det])
        ra = _RA_LINE.search(stats)
        sr = _SR_LINE.search(stats)
        if ra is None or sr is None:
            raise WrongVerdict(f"item {i}: stats output lacks R_A or |S_R|: {stats!r}")
        heads = frozenset(s.strip() for s in ra.group(1).split(",") if s.strip())
        return {"heads": heads, "S_R": int(sr.group(1)), "reached": int(out.split()[0])}

    def verify(self, results):
        shapes = []
        checked = set()
        for i, got in results.items():
            e = self.element(i)
            el = self.elements[e]
            n = el["n"]
            heads, kills = C.loop_budget(n, el["letters"])
            size = C.budget_size(heads, kills)
            names = frozenset(f"q{h}" for h in heads)
            if got["heads"] != names:
                raise WrongVerdict(f"element {e}: R_A {sorted(got['heads'])}, expected {sorted(names)}")
            if got["S_R"] != size:
                raise WrongVerdict(f"element {e}: |S_R| = {got['S_R']}, expected {size}")
            if e in checked:
                continue
            checked.add(e)
            doc = json.loads((self.workdir / f"e{e}.det.json").read_text())
            records = [[int(s[1:]) for s in doc["records"][name]] for name in doc["states"]]
            if len(records) != got["reached"]:
                raise WrongVerdict(f"element {e}: determinize printed {got['reached']} states, file has {len(records)}")
            for r in records:
                if not C.in_budget(r, heads, kills):
                    raise WrongVerdict(f"element {e}: reached record {r} outside S_R")
            if el["kind"] == "full" and not (len(records) == size == C.record_bound(n)):
                raise WrongVerdict(
                    f"element {e}: full alphabet over {n} states reached {len(records)}, "
                    f"|S_R| {size}, bound {C.record_bound(n)}"
                )
            shapes.append((el["kind"], n, len(el["letters"]), len(records), size))
        return {
            "elements": len(shapes),
            "states": hist(n for _, n, _, _, _ in shapes),
            "letters": hist(x for _, _, x, _, _ in shapes),
            "records": hist(r for _, _, _, r, _ in shapes),
            "S_R": hist(s for _, _, _, _, s in shapes),
            "per_element": [
                {"kind": k, "states": n, "letters": x, "records": r, "S_R": s} for k, n, x, r, s in shapes
            ],
        }

    def attempted_shape(self, attempted):
        kinds = (self.elements[self.element(i)] for i in attempted)
        return {"kinds": hist(f"{el['kind']}-{el['n']}" for el in kinds)}

    def layer_extras(self, results):
        reached = sum(r["reached"] for r in results.values())
        budget = sum(r["S_R"] for r in results.values())
        bound = sum(C.record_bound(self.elements[self.element(i)]["n"]) for i in results)
        return {
            "determinize.records_over_bound": reached / bound if bound else 0.0,
            "determinize.reached_over_S_R": reached / budget if budget else 0.0,
        }


# --- query-stream ------------------------------------------------------------------

# One block of 50 queries: 1 to the ε-completed NPA, 10 to the DPA and 13 to
# each of the three ordered Büchi automata.  Each target draws prefix
# lengths 0-50 and period lengths 1-16 from seeded permutations; every 397th
# query (coprime to the block) has a 1,000-2,000-letter prefix instead.  A
# target's long prefixes have lengths 2000, 1500, 1750, 1250, ... (a van der
# Corput sequence), the same in every run, so the longest comes first and
# the memo growth each session sees does not depend on the seed.  The
# oracles live for a session of QS_SESSION queries, in which every target
# sees each prefix length equally often, and are then rebuilt (untimed), so
# peak memory measures one session's memo growth whatever the machine's speed.
#
# The oracles recurse once per prefix letter (ε-letters included, so the
# intertwined NPA words recurse up to 6,000 deep).  At Python's default
# recursion limit the long prefixes raise RecursionError, so the workload
# raises the limit to QS_RECURSION_LIMIT and every query completes; the traced
# run counts how many long queries fail at the default limit
# (automata.recursion_errors_at_default_limit), so the defect stays measured.
QS_TARGETS = ("rabin9", "fig-aa-bb", "fig-b-bb-a", "hc4-dpa", "hc4-npa")
QS_COUNTS = dict(zip(QS_TARGETS, (13, 13, 13, 10, 1)))
QS_BLOCK = [t for t in QS_TARGETS for _ in range(QS_COUNTS[t])]
random.Random(20260101).shuffle(QS_BLOCK)
QS_RANK = [QS_BLOCK[:pos].count(t) for pos, t in enumerate(QS_BLOCK)]
QS_PREFIX_LENGTHS = range(0, 51)
QS_PERIOD_LENGTHS = range(1, 17)
QS_LONG_EVERY = 397
# target of the k-th long query, and its rank among that target's, over one
# cycle of len(QS_BLOCK) long queries
QS_LONG_TARGETS = [QS_BLOCK[(QS_LONG_EVERY * k + QS_LONG_EVERY - 1) % len(QS_BLOCK)] for k in range(len(QS_BLOCK))]
QS_LONG_RANK = [QS_LONG_TARGETS[:k].count(t) for k, t in enumerate(QS_LONG_TARGETS)]
QS_SESSION = len(QS_PREFIX_LENGTHS) * len(QS_BLOCK)
PREFIX_BINS = ((0, 10), (11, 20), (21, 30), (31, 40), (41, 50), (1000, 2000))
QS_RECURSION_LIMIT = 20_000
DEFAULT_RECURSION_LIMIT = sys.getrecursionlimit()


def long_prefix_len(j: int) -> int:
    """Length of a target's j-th long prefix: 2000 minus 1000 × (base-2 van der Corput of j)."""
    x, scale = 0.0, 0.5
    while j:
        x += scale * (j & 1)
        j >>= 1
        scale /= 2
    return 2000 - round(1000 * x)


class QueryStream(Workload):
    name = "query-stream"
    why = (
        "long distinct UP words against long-lived oracles: memo misses, memo growth "
        "and the ε-matrix tail, the opposite use of the automata layer"
    )

    def __init__(self, seed, workdir):
        from obat import ObaOracle
        from obat.cli import load_document

        super().__init__(seed, workdir)
        sys.setrecursionlimit(max(sys.getrecursionlimit(), QS_RECURSION_LIMIT))
        spec = C.behavioural_rabin_spec()
        spec_path = write_json(workdir / "rabin9.spec.json", spec)
        rabin = str(workdir / "rabin9.json")
        expect(["convert", "rabin", spec_path, "-o", rabin])
        hc = write_json(workdir / "hc4.json", C.loop_oba_doc(4, C.full_loop_alphabet(4)))
        det, aug = str(workdir / "hc4.det.json"), str(workdir / "hc4.aug.json")
        expect(["determinize", hc, "-o", det])
        expect(["eps-complete", det, "-o", aug])
        fig1 = write_json(workdir / "fig1.json", C.fig_inf_aa_fin_bb_doc())
        fig2 = write_json(workdir / "fig2.json", C.fig_inf_b_or_bb_inf_a_doc())

        self.automata = {
            target: load_document(path)[1:]
            for target, path in zip(QS_TARGETS, (rabin, fig1, fig2, det, aug))
        }
        self.oracles = self.fresh_oracles()
        self.hc_source = ObaOracle(load_document(hc)[1])
        self.hc_letters = C.full_loop_alphabet(4)
        self.letters = {
            "rabin9": spec["alphabet"],
            "fig-aa-bb": ["a", "b"],
            "fig-b-bb-a": ["a", "b"],
            "hc4-dpa": self.hc_letters,
            "hc4-npa": self.hc_letters,
        }
        self.references = {
            "rabin9": lambda u, v: C.rabin_accepts(spec, u, v),
            "fig-aa-bb": C.fig_inf_aa_fin_bb_accepts,
            "fig-b-bb-a": C.fig_inf_b_or_bb_inf_a_accepts,
            "hc4-dpa": lambda u, v: C.loop_accepts(4, u, v),
            "hc4-npa": lambda u, v: C.loop_accepts(4, u, v),
        }

    def fresh_oracle(self, target: str):
        from obat import DpaOracle, NpaOracle, ObaOracle

        a, m = self.automata[target]
        make = {"hc4-dpa": DpaOracle, "hc4-npa": NpaOracle}
        return make[target](a) if target in make else ObaOracle(a, m)

    def fresh_oracles(self) -> dict:
        return {target: self.fresh_oracle(target) for target in QS_TARGETS}

    def query_shape(self, i: int):
        """Target, prefix length, period length of query i, and its letter source."""
        block, pos = divmod(i, len(QS_BLOCK))
        target = QS_BLOCK[pos]
        j = block * QS_COUNTS[target] + QS_RANK[pos]  # this target's j-th query
        rng = self.rng("query", i)
        if i % QS_LONG_EVERY == QS_LONG_EVERY - 1:
            cycle, k = divmod(i // QS_LONG_EVERY, len(QS_LONG_TARGETS))
            prefix_len = long_prefix_len(cycle * QS_LONG_TARGETS.count(target) + QS_LONG_RANK[k])
        else:
            prefix_len = self.cycle(f"prefix-{target}", QS_PREFIX_LENGTHS, j)
        return target, prefix_len, self.cycle(f"period-{target}", QS_PERIOD_LENGTHS, j), rng

    def query(self, i: int):
        """Target and plain word of query i."""
        target, prefix_len, period_len, rng = self.query_shape(i)
        return target, C.random_word(rng, self.letters[target], prefix_len, period_len)

    def prepare(self, i: int):
        """Query i as the oracle call to time: (oracle, UPWord)."""
        if i and i % QS_SESSION == 0:
            self.oracles = self.fresh_oracles()
        target, word = self.prepare_word(i)
        return self.oracles[target], up(word)

    def prepare_word(self, i: int):
        """Target and the plain word sent to its oracle (intertwined for the NPA)."""
        target, word = self.query(i)
        if target == "hc4-npa":
            word = C.intertwined(*word)
        return target, word

    def run_item(self, prepared):
        oracle, w = prepared
        return oracle(w)

    def verify(self, results):
        check = self.rng("hc4-check")
        for word in C.short_words(check, self.hc_letters, 100, 6, 4):
            if self.hc_source(up(word)) != C.loop_accepts(4, *word):
                raise WrongVerdict(f"hand-written self-loop oracle disagrees with ObaOracle on {word}")
        accepted = dict.fromkeys(QS_TARGETS, 0)
        for i, got in results.items():
            target, word = self.query(i)
            want = self.references[target](*word)
            if got != want:
                raise WrongVerdict(f"query {i} to {target}: got {got}, reference {want}")
            accepted[target] += want
        return {"accepted": accepted}

    def layer_extras(self, results):
        """Replay each long query on a fresh oracle at Python's default recursion limit."""
        errors = 0
        for i in results:
            if i % QS_LONG_EVERY != QS_LONG_EVERY - 1:
                continue
            target, word = self.prepare_word(i)
            oracle = self.fresh_oracle(target)
            sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
            try:
                oracle(up(word))
            except RecursionError:
                errors += 1
            finally:
                sys.setrecursionlimit(QS_RECURSION_LIMIT)
        return {"automata.recursion_errors_at_default_limit": errors}

    def attempted_shape(self, attempted):
        shapes = [self.query_shape(i)[:3] for i in attempted]
        return {
            "targets": hist(t for t, _, _ in shapes),
            "prefix_len": hist(next(f"{lo}-{hi}" for lo, hi in PREFIX_BINS if lo <= u <= hi) for _, u, _ in shapes),
            "period_len": hist(v for _, _, v in shapes),
        }


WORKLOADS = {w.name: w for w in (ConstructVerify, StateBudget, QueryStream)}
