"""End-to-end acceptance checks for the prover, models, and bridges.

Each test covers one numbered criterion and prints a single
``criterion N: PASS``/``FAIL`` line, so the suite doubles as a
checklist. The heavyweight shared piece is a 44-logic random corpus
(500 formulas per logic) built once per session; individual criteria
read aggregate counters off it.
"""

from __future__ import annotations

import random
import time

import pytest

from nnml.calculus import iter_instances
from nnml.formula import Box, node_count, parse, subformula_closure
from nnml.gen import (
    random_bi_model,
    random_formula,
    random_hypersequent,
    random_standard_model,
)
from nnml.hypersequent import Block, Hypersequent, Sequent, parse_input
from nnml.labelled import check_labelled, translate_derivation
from nnml.logic import LogicSpec, parse_logic_name
from nnml.models import (
    BiModel,
    StandardModel,
    bi_from_standard,
    check_conditions,
    conditions_ok,
    extract_bi_countermodel,
    extract_relational_countermodel,
    force,
    model_to_dict,
    standard_from_bi_fine,
    standard_from_bi_rough,
    truth_set,
)
from nnml.search import (
    BudgetExceeded,
    Proved,
    Refuted,
    SearchStats,
    check_derivation,
    prove,
    prove_unkleened,
)

BASES = ("E", "M", "EC", "MC", "EN", "MN", "ECN", "MCN")
SUFFIXES = ("", "T", "P", "D", "D2+", "D3+")
REDUNDANT = {("MC", "D2+"), ("MC", "D3+"), ("MCN", "D2+"), ("MCN", "D3+")}
LOGICS = tuple(b + s for b in BASES for s in SUFFIXES if (b, s) not in REDUNDANT)
CUBE = set(BASES)

CORPUS_SIZE = 500
MAX_NODES = 25
RESERVOIR = 400

# Derivation-checker tally shared by the criteria that prove things
# outside the corpus; the audit criterion reads it after they ran.
AUDIT = {"checked": 0, "failed": 0}


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def _audit(derivation, l: LogicSpec) -> None:
    AUDIT["checked"] += 1
    if not check_derivation(derivation, l).ok:
        AUDIT["failed"] += 1


def _corpus_formula(rng: random.Random):
    while True:
        f = random_formula(rng)
        if node_count(f) <= MAX_NODES:
            return f


def _goal(f) -> Hypersequent:
    return Hypersequent.of([Sequent.of(right=(f,))])




@pytest.fixture(scope="session")
def corpus():
    """Run both proof modes over the whole random corpus once.

    Stores per-logic aggregate counters plus a reservoir sample of
    proved-derivation conclusions used by the invertibility check.
    """
    t0 = time.perf_counter()
    rows = []
    pool: list[tuple[str, Hypersequent]] = []
    pool_rng = random.Random("acceptance:invertibility")
    nodes_seen = 0
    for name in LOGICS:
        l = parse_logic_name(name)
        rng = random.Random(f"corpus:{name}")
        agg = {
            "name": name,
            "c_free": not l.has_c,
            "proved": 0,
            "refuted": 0,
            "disagree": 0,
            "cond_fail": 0,
            "falsify_fail": 0,
            "check_fail": 0,
            "labelled_total": 0,
            "labelled_fail": 0,
            "comp_bound_fail": 0,
            "size_bound_fail": 0,
            "comp_margin": 0.0,
            "size_margin": 0.0,
            "worlds_bound_fail": 0,
            "pairs_bound_fail": 0,
        }
        for _ in range(CORPUS_SIZE):
            f = _corpus_formula(rng)
            n = node_count(f)
            h = _goal(f)
            stats = SearchStats()
            out = prove(h, l, stats=stats)
            proved = isinstance(out, Proved)
            if prove_unkleened(h, l) != proved:
                agg["disagree"] += 1
            if proved:
                agg["proved"] += 1
                if not check_derivation(out.derivation, l).ok:
                    agg["check_fail"] += 1
                if name in CUBE:
                    agg["labelled_total"] += 1
                    if not check_labelled(translate_derivation(out.derivation, l), l).ok:
                        agg["labelled_fail"] += 1
                stack = [out.derivation]
                while stack:
                    d = stack.pop()
                    stack.extend(d.children)
                    nodes_seen += 1
                    if len(pool) < RESERVOIR:
                        pool.append((name, d.conclusion))
                    else:
                        j = pool_rng.randrange(nodes_seen)
                        if j < RESERVOIR:
                            pool[j] = (name, d.conclusion)
            else:
                agg["refuted"] += 1
                m = extract_bi_countermodel(out.leaf, l)
                if not conditions_ok(check_conditions(m, l)):
                    agg["cond_fail"] += 1
                if force(m, 1, f):
                    agg["falsify_fail"] += 1
                if not l.has_c:
                    if len(m.worlds) > len(out.leaf.components):
                        agg["worlds_bound_fail"] += 1
                    for w, s in enumerate(out.leaf.components, 1):
                        if len(m.nbhd[w]) > len(s.blocks):
                            agg["pairs_bound_fail"] += 1
            if not l.has_c:
                comp_bound = n + 3 * n * n
                size_bound = 3 * n
                agg["comp_margin"] = max(agg["comp_margin"], stats.max_components / comp_bound)
                agg["size_margin"] = max(agg["size_margin"], stats.max_component_size / size_bound)
                if stats.max_components > comp_bound:
                    agg["comp_bound_fail"] += 1
                if stats.max_component_size > size_bound:
                    agg["size_bound_fail"] += 1
        rows.append(agg)
    elapsed = time.perf_counter() - t0
    print(f"corpus: {len(LOGICS)} logics x {CORPUS_SIZE} formulas in {elapsed:.1f}s")
    return {"rows": rows, "pool": pool, "elapsed": elapsed}


# --- criterion 1: axiom derivability ---------------------------------------

AXIOM_CASES = [
    ("box (p & q) => box (q & p)", "E"),
    ("box (q & p) => box (p & q)", "E"),
    ("box (p & q) -> box p", "M"),
    ("box true", "EN"),
    ("box p & box q -> box (p & q)", "EC"),
    ("box p -> p", "ET"),
    ("~box false", "EP"),
    ("box p -> ~box ~p", "ED"),
    ("~box (p & ~p)", "ED1+"),
    ("~(box p & box ~p)", "ED2+"),
    ("~(box p & box q & box ~(p & q))", "ED3+"),
]


def test_criterion_01_axiom_derivability():
    failures = []
    for text, name in AXIOM_CASES:
        l = parse_logic_name(name)
        out = prove(parse_input(text), l)
        if isinstance(out, Proved):
            _audit(out.derivation, l)
        else:
            failures.append(f"{text!r} not proved in {name}")
    _verdict(1, not failures, f"{len(AXIOM_CASES)} instances")
    assert not failures, failures


# --- criterion 2: separation ------------------------------------------------

HANSSON = "~(box a1 & box a2 & box ~(a1 & a2))"

REFUTED_CASES = [
    ("box (p & q) -> box p", "E"),
    ("box p & box q -> box (p & q)", "E"),
    ("box p & box q -> box (p & q)", "EN"),
    ("box true", "E"),
    ("box true", "EC"),
    ("box (p -> q) -> box p -> box q", "EC"),
    ("box (p -> q) -> box p -> box q", "E"),
    ("box p -> ~box ~p", "EP"),
    ("~box false", "ED"),
    (HANSSON, "ED"),
    (HANSSON, "EP"),
]

PROVED_ANYWAY = [(HANSSON, "ED3+"), (HANSSON, "ECD")]


def test_criterion_02_separation():
    failures = []
    for text, name in REFUTED_CASES:
        l = parse_logic_name(name)
        f = parse(text)
        out = prove(_goal(f), l)
        if not isinstance(out, Refuted):
            failures.append(f"{text!r} unexpectedly proved in {name}")
            continue
        m = extract_bi_countermodel(out.leaf, l)
        if not conditions_ok(check_conditions(m, l)):
            failures.append(f"countermodel conditions fail for {text!r} in {name}")
        if force(m, 1, f):
            failures.append(f"countermodel does not falsify {text!r} in {name}")
    for text, name in PROVED_ANYWAY:
        l = parse_logic_name(name)
        out = prove(_goal(parse(text)), l)
        if isinstance(out, Proved):
            _audit(out.derivation, l)
        else:
            failures.append(f"{text!r} not proved in {name}")
    _verdict(2, not failures, f"{len(REFUTED_CASES)} refuted + {len(PROVED_ANYWAY)} proved")
    assert not failures, failures


# --- criterion 3: classic countermodels, frozen -----------------------------


def _refute(text: str, name: str):
    l = parse_logic_name(name)
    out = prove(parse_input(text), l)
    assert isinstance(out, Refuted), f"{text!r} should be refuted in {name}"
    return out, l


def test_criterion_03_classic_countermodels():
    checks = []

    out, l = _refute("box (p & q) -> box p", "E")
    m = extract_bi_countermodel(out.leaf, l)
    checks.append(
        model_to_dict(m)
        == {
            "worlds": [1, 2],
            "valuation": {"p": [2]},
            "bi": {"1": [{"plus": [], "minus": [2]}], "2": []},
        }
    )
    fine = standard_from_bi_fine(m, subformula_closure([parse("box (p & q) -> box p")]), supplement=l.monotonic)
    checks.append(
        model_to_dict(fine)
        == {"worlds": [1, 2], "valuation": {"p": [2]}, "standard": {"1": [[]], "2": []}}
    )

    out, l = _refute("box (p -> q) -> box p -> box q", "EC")
    m = extract_bi_countermodel(out.leaf, l)
    checks.append(
        model_to_dict(m)
        == {
            "worlds": [1, 2, 3],
            "valuation": {"q": [2]},
            "bi": {
                "1": [{"plus": [], "minus": [2, 3]}, {"plus": [3], "minus": []}],
                "2": [],
                "3": [],
            },
        }
    )
    fine = standard_from_bi_fine(
        m, subformula_closure([parse("box (p -> q) -> box p -> box q")]), supplement=l.monotonic
    )
    checks.append(
        model_to_dict(fine)
        == {
            "worlds": [1, 2, 3],
            "valuation": {"q": [2]},
            "standard": {"1": [[], [1, 2, 3]], "2": [], "3": []},
        }
    )

    out, l = _refute("box p -> box box p", "MC")
    m = extract_bi_countermodel(out.leaf, l)
    checks.append(
        model_to_dict(m)
        == {
            "worlds": [1, 2],
            "valuation": {"p": [2]},
            "bi": {"1": [{"plus": [2], "minus": []}], "2": []},
        }
    )
    r = extract_relational_countermodel(out.leaf, l)
    checks.append(
        model_to_dict(r)
        == {
            "worlds": [1, 2],
            "valuation": {"p": [2]},
            "relational": {"non_normal": [2], "edges": {"1": [2], "2": []}},
        }
    )

    out, l = _refute("box p -> box box p", "MCNT")
    r = extract_relational_countermodel(out.leaf, l)
    checks.append(
        model_to_dict(r)
        == {
            "worlds": [1, 2, 3],
            "valuation": {"p": [1, 2]},
            "relational": {
                "non_normal": [],
                "edges": {"1": [1, 2], "2": [1, 2, 3], "3": [1, 2, 3]},
            },
        }
    )

    out, l = _refute("~box true", "ED")
    m = extract_bi_countermodel(out.leaf, l)
    checks.append(
        model_to_dict(m)
        == {
            "worlds": [1, 2],
            "valuation": {},
            "bi": {"1": [{"plus": [2], "minus": []}], "2": []},
        }
    )

    ok = all(checks)
    _verdict(3, ok, f"{len(checks)} frozen payloads")
    assert ok, checks


# --- criteria 4 and 5: corpus countermodels and mode agreement ---------------


def test_criterion_04_corpus_countermodels(corpus):
    refuted = sum(r["refuted"] for r in corpus["rows"])
    cond = sum(r["cond_fail"] for r in corpus["rows"])
    fals = sum(r["falsify_fail"] for r in corpus["rows"])
    ok = refuted > 0 and cond == 0 and fals == 0
    _verdict(4, ok, f"{refuted} refutations, {cond} condition / {fals} falsification failures")
    assert ok


def test_criterion_05_mode_agreement(corpus):
    disagree = sum(r["disagree"] for r in corpus["rows"])
    checked = len(corpus["rows"]) * CORPUS_SIZE
    _verdict(5, disagree == 0, f"{checked} formulas, {disagree} disagreements")
    assert disagree == 0


# --- criterion 6: structural rules and invertibility -------------------------

STRUCTURAL_POOL = ("E", "M", "EC", "MCN", "ET", "ED")
TARGET = 200
ATTEMPT_CAP = 60000
SCREEN_BUDGET = 5000
# Small instances keep the C-logic block explosion out of the sampling
# loop; one block per component is enough to exercise the modal rules.
GEN_KW = dict(max_components=2, max_side=2, max_blocks=1, max_nodes=6)


def _proved(h: Hypersequent, l: LogicSpec):
    out = prove(h, l)
    return out.derivation if isinstance(out, Proved) else None


def _screen(h: Hypersequent, l: LogicSpec):
    """Premiss candidate filter: provable within a small budget.

    Refuting a random hypersequent can cost orders of magnitude more
    than proving one (agglomeration logics especially), and rejected
    candidates carry no information here, so they are not worth a full
    search.
    """
    try:
        out = prove(h, l, budget=SCREEN_BUDGET)
    except BudgetExceeded:
        return None
    return out.derivation if isinstance(out, Proved) else None


def _run_weakening() -> list[str]:
    rng = random.Random("acceptance:weakening")
    failures, done, attempts = [], 0, 0
    while done < TARGET and attempts < ATTEMPT_CAP and not failures:
        attempts += 1
        l = parse_logic_name(rng.choice(STRUCTURAL_POOL))
        h = random_hypersequent(rng, **GEN_KW)
        if _screen(h, l) is None:
            continue
        extra = random_formula(rng, max_nodes=5)
        kind = rng.choice(("left", "right", "block", "component"))
        if kind == "component":
            h2 = h.with_new_component(Sequent.of(left=(extra,)))
        else:
            n = rng.choice(range(1, len(h.components) + 1))
            c = h.component(n)
            if kind == "left":
                seq = c.adding(left=(extra,))
            elif kind == "right":
                seq = c.adding(right=(extra,))
            else:
                seq = c.adding(blocks=(Block.of((extra,)),))
            h2 = h.replace(n, seq)
        d = _proved(h2, l)
        if d is None:
            failures.append(f"weakening lost provability ({kind}) for {h2}")
        else:
            _audit(d, l)
            done += 1
    if done < TARGET and not failures:
        failures.append(f"weakening: only {done} instances in {attempts} attempts")
    return failures


def _run_contraction() -> list[str]:
    rng = random.Random("acceptance:contraction")
    failures, done, attempts = [], 0, 0
    while done < TARGET and attempts < ATTEMPT_CAP and not failures:
        attempts += 1
        l = parse_logic_name(rng.choice(STRUCTURAL_POOL))
        h = random_hypersequent(rng, **GEN_KW)
        n = rng.choice(range(1, len(h.components) + 1))
        c = h.component(n)
        options = [s for s, present in (
            ("left", c.left),
            ("right", c.right),
            ("block", c.blocks),
        ) if present]
        if not options:
            continue
        kind = rng.choice(options)
        if kind == "left":
            seq = c.adding(left=(rng.choice(c.left),))
        elif kind == "right":
            seq = c.adding(right=(rng.choice(c.right),))
        else:
            seq = c.adding(blocks=(rng.choice(c.blocks),))
        h2 = h.replace(n, seq)
        if _screen(h2, l) is None:
            continue
        d = _proved(h, l)
        if d is None:
            failures.append(f"contraction lost provability ({kind}) for {h}")
        else:
            _audit(d, l)
            done += 1
    if done < TARGET and not failures:
        failures.append(f"contraction: only {done} instances in {attempts} attempts")
    return failures


def _run_external_contraction() -> list[str]:
    rng = random.Random("acceptance:external-contraction")
    failures, done, attempts = [], 0, 0
    while done < TARGET and attempts < ATTEMPT_CAP and not failures:
        attempts += 1
        l = parse_logic_name(rng.choice(STRUCTURAL_POOL))
        h = random_hypersequent(rng, **GEN_KW)
        h2 = h.with_new_component(rng.choice(h.components))
        if _screen(h2, l) is None:
            continue
        d = _proved(h, l)
        if d is None:
            failures.append(f"external contraction lost provability for {h}")
        else:
            _audit(d, l)
            done += 1
    if done < TARGET and not failures:
        failures.append(f"external contraction: only {done} instances in {attempts} attempts")
    return failures


def _run_cut() -> list[str]:
    rng = random.Random("acceptance:cut")
    failures, done, attempts = [], 0, 0

    def side(limit=2):
        return tuple(
            random_formula(rng, max_nodes=3, max_modal_depth=1, max_boxes=1, atoms=("p", "q"))
            for _ in range(rng.randint(0, limit))
        )

    while done < TARGET and attempts < ATTEMPT_CAP and not failures:
        attempts += 1
        l = parse_logic_name(rng.choice(STRUCTURAL_POOL))
        a = random_formula(rng, max_nodes=4, max_modal_depth=1, max_boxes=1, atoms=("p", "q"))
        sigma, pi, sigma2, pi2 = side(), side(), side(), side()
        context = [Sequent.of(left=side(1), right=side(1))] if rng.random() < 0.3 else []
        p1 = Hypersequent.of(context + [Sequent.of(left=sigma, right=pi + (a,))])
        p2 = Hypersequent.of(context + [Sequent.of(left=(a,) + sigma2, right=pi2)])
        if _screen(p1, l) is None or _screen(p2, l) is None:
            continue
        concl = Hypersequent.of(context + [Sequent.of(left=sigma + sigma2, right=pi + pi2)])
        d = _proved(concl, l)
        if d is None:
            failures.append(f"cut lost provability for {concl}")
        else:
            _audit(d, l)
            done += 1
    if done < TARGET and not failures:
        failures.append(f"cut: only {done} instances in {attempts} attempts")
    return failures


def _run_invertibility(pool) -> list[str]:
    rng = random.Random("acceptance:invertibility-choose")
    failures, done = [], 0
    for name, conclusion in pool:
        if done >= TARGET or failures:
            break
        l = parse_logic_name(name)
        instances = list(iter_instances(conclusion, l))
        if not instances:
            continue
        inst = rng.choice(instances)
        for premiss in inst.premisses:
            if not isinstance(prove(premiss, l), Proved):
                failures.append(
                    f"premiss of {inst.rule.name} not derivable in {name} from {conclusion}"
                )
                break
        else:
            done += 1
    if done < TARGET and not failures:
        failures.append(f"invertibility: only {done} instances from pool of {len(pool)}")
    return failures


def test_criterion_06_structural_rules(corpus):
    failures = (
        _run_weakening()
        + _run_contraction()
        + _run_external_contraction()
        + _run_cut()
        + _run_invertibility(corpus["pool"])
    )
    _verdict(6, not failures, f"{TARGET} instances per family")
    assert not failures, failures


# --- criterion 7: derivation audit -------------------------------------------


def test_criterion_07_derivation_audit(corpus):
    corpus_checked = sum(r["proved"] for r in corpus["rows"])
    corpus_failed = sum(r["check_fail"] for r in corpus["rows"])
    labelled_checked = sum(r["labelled_total"] for r in corpus["rows"])
    labelled_failed = sum(r["labelled_fail"] for r in corpus["rows"])
    ok = (
        corpus_checked > 0
        and labelled_checked > 0
        and corpus_failed == 0
        and labelled_failed == 0
        and AUDIT["failed"] == 0
    )
    _verdict(
        7,
        ok,
        f"{corpus_checked + AUDIT['checked']} derivations, {labelled_checked} labelled",
    )
    assert ok, (corpus_failed, labelled_failed, AUDIT)


# --- criterion 8: search-size bounds -----------------------------------------


def test_criterion_08_complexity_bounds(corpus):
    c_free = [r for r in corpus["rows"] if r["c_free"]]
    comp_fail = sum(r["comp_bound_fail"] for r in c_free)
    size_fail = sum(r["size_bound_fail"] for r in c_free)
    comp_margin = max(r["comp_margin"] for r in c_free)
    size_margin = max(r["size_margin"] for r in c_free)
    elapsed = corpus["elapsed"]
    ok = comp_fail == 0 and size_fail == 0 and elapsed < 60.0
    _verdict(
        8,
        ok,
        f"margins: components {comp_margin:.2f}, size {size_margin:.2f} of bound; "
        f"corpus {elapsed:.1f}s",
    )
    assert ok, (comp_fail, size_fail, elapsed)


# --- criterion 9: transformations ---------------------------------------------

EVERYTHING = LogicSpec(
    monotonic=True, has_c=True, has_n=True, has_t=True, has_p=True, has_d=True, dplus=2
)
RD_KEYS = ("RD1+", "RD2+")


def _supplemented(m: StandardModel) -> StandardModel:
    worlds = m.worlds
    nbhd = {}
    for w in worlds:
        closed = set()
        for alpha in m.neighbourhoods(w):
            rest = sorted(worlds - alpha)
            for bits in range(1 << len(rest)):
                extra = {rest[i] for i in range(len(rest)) if bits >> i & 1}
                closed.add(alpha | extra)
        nbhd[w] = closed
    return StandardModel.make(worlds, {k: set(v) for k, v in m.valuation.items()}, nbhd)


def _crafted_bi() -> list[BiModel]:
    w3 = frozenset({1, 2, 3})
    return [
        BiModel.make({1, 2, 3}, {"p": {1}}, {w: {(w3, frozenset())} for w in w3}),
        BiModel.make({1, 2, 3}, {"q": {2, 3}}, {w: {(frozenset({w}), frozenset())} for w in w3}),
        BiModel.make({1, 2}, {}, {1: {(frozenset({2}), frozenset({1}))}, 2: set()}),
    ]


def _crafted_standard() -> list[StandardModel]:
    w3 = frozenset({1, 2, 3})
    up = {w: {s for s in _powerset(w3) if w in s} for w in w3}
    return [
        StandardModel.make(w3, {"p": {1}}, up),
        StandardModel.make(w3, {}, {w: {w3} for w in w3}),
        StandardModel.make({1, 2}, {"p": {2}}, {1: {frozenset({2})}, 2: set()}),
    ]


def _powerset(ws):
    ws = sorted(ws)
    for bits in range(1 << len(ws)):
        yield frozenset(ws[i] for i in range(len(ws)) if bits >> i & 1)


def _passing(report: dict) -> set[str]:
    return {k for k, (status, _) in report.items() if status == "pass"}


def test_criterion_09_transformations():
    rng_f = random.Random("acceptance:transform-formulas")
    formulas = [random_formula(rng_f, max_nodes=12) for _ in range(50)]
    top = parse("true")
    rng_b = random.Random("acceptance:bi-models")
    bi_pool = [random_bi_model(rng_b) for _ in range(100)] + _crafted_bi()
    rng_s = random.Random("acceptance:standard-models")
    std_pool = [random_standard_model(rng_s) for _ in range(100)] + _crafted_standard()

    failures: list[str] = []
    transported: dict[str, int] = {}

    def note(key):
        transported[key] = transported.get(key, 0) + 1

    for i, m in enumerate(bi_pool):
        rough = standard_from_bi_rough(m)
        for f in formulas:
            if truth_set(m, f) != truth_set(rough, f):
                failures.append(f"rough forcing mismatch at bi model {i}: {f}")
                break
        for f in formulas[:10]:
            fine = standard_from_bi_fine(m, subformula_closure([f]), supplement=False)
            if truth_set(m, f) != truth_set(fine, f):
                failures.append(f"fine forcing mismatch at bi model {i}: {f}")
                break

        bi_pass = _passing(check_conditions(m, EVERYTHING))
        rough_pass = _passing(check_conditions(rough, EVERYTHING))
        for key in ("M", "N", "C", "T", "P", "D"):
            if key in bi_pass:
                note(f"rough:{key}")
                if key not in rough_pass:
                    failures.append(f"rough transport lost {key} at bi model {i}")
        if all(k in bi_pass for k in RD_KEYS):
            note("rough:RD")
            if not all(k in rough_pass for k in RD_KEYS):
                failures.append(f"rough transport lost graded conditions at bi model {i}")
        fine_n = standard_from_bi_fine(
            m, subformula_closure([formulas[i % len(formulas)]]) | {Box(top), top}, supplement=False
        )
        fine_pass = _passing(check_conditions(fine_n, EVERYTHING))
        for key in ("N", "T", "P", "D"):
            if key in bi_pass:
                note(f"fine:{key}")
                if key not in fine_pass:
                    failures.append(f"fine transport lost {key} at bi model {i}")
        if all(k in bi_pass for k in RD_KEYS):
            note("fine:RD")
            if not all(k in fine_pass for k in RD_KEYS):
                failures.append(f"fine transport lost graded conditions at bi model {i}")

    for i, m in enumerate(std_pool):
        std_pass = _passing(check_conditions(m, EVERYTHING))
        image = bi_from_standard(m, supplemented="M" in std_pass)
        for f in formulas:
            if truth_set(m, f) != truth_set(image, f):
                failures.append(f"bi forcing mismatch at standard model {i}: {f}")
                break
        image_pass = _passing(check_conditions(image, EVERYTHING))
        for key in ("M", "N", "C", "T", "P", "D"):
            if key in std_pass:
                note(f"bi:{key}")
                if key not in image_pass:
                    failures.append(f"bi transport lost {key} at standard model {i}")
        if all(k in std_pass for k in RD_KEYS):
            note("bi:RD")
            if not all(k in image_pass for k in RD_KEYS):
                failures.append(f"bi transport lost graded conditions at standard model {i}")

    for msup in (_supplemented(std_pool[0]), _supplemented(std_pool[100])):
        image = bi_from_standard(msup, supplemented=True)
        for f in formulas:
            if truth_set(msup, f) != truth_set(image, f):
                failures.append(f"supplemented round trip mismatch: {f}")
                break

    vacuous = [k for k in sorted(transported) if transported[k] == 0]
    ok = not failures and not vacuous
    _verdict(
        9,
        ok,
        f"{len(bi_pool)} bi + {len(std_pool)} standard models, "
        f"{len(transported)} transport clauses",
    )
    assert ok, failures[:10] + vacuous


# --- criterion 10: countermodel size ------------------------------------------


def test_criterion_10_countermodel_size(corpus):
    c_free = [r for r in corpus["rows"] if r["c_free"]]
    worlds_fail = sum(r["worlds_bound_fail"] for r in c_free)
    pairs_fail = sum(r["pairs_bound_fail"] for r in c_free)
    refuted = sum(r["refuted"] for r in c_free)
    ok = refuted > 0 and worlds_fail == 0 and pairs_fail == 0
    _verdict(10, ok, f"{refuted} extracted models within bounds")
    assert ok
