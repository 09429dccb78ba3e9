"""Decision procedures and countermodels for non-normal modal logics.

The calculus manipulates hypersequents whose components may carry
blocks of boxed formulas; proof search either returns a checkable
derivation or a saturated hypersequent from which countermodels in
three semantics can be read off. A separate bridge translates
hypersequent derivations into labelled sequent derivations.
"""

from .formula import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Box,
    Formula,
    Imp,
    Or,
    ParseError,
    TOP,
    Top,
    dia,
    neg,
    parse,
    to_text,
    weight,
)
from .hypersequent import (
    Block,
    Component,
    Hypersequent,
    Sequent,
    parse_hypersequent,
    parse_input,
    render_hypersequent,
    render_sequent,
    subsumes,
)
from .logic import (
    LogicNameError,
    LogicSpec,
    RuleId,
    canonical_name,
    parse_logic_name,
    rule_set,
)
from .calculus import (
    InvalidInstance,
    RuleInstance,
    build_premisses,
    initial_evidence,
    is_saturated,
)
from .search import (
    BudgetExceeded,
    CheckReport,
    Derivation,
    Proved,
    Refuted,
    SearchOutcome,
    SearchStats,
    check_derivation,
    derivation_to_dict,
    prove,
    prove_unkleened,
)
from .models import (
    BiModel,
    Model,
    RelationalModel,
    StandardModel,
    UnknownWorldError,
    check_conditions,
    conditions_ok,
    extract_bi_countermodel,
    extract_relational_countermodel,
    force,
    model_from_dict,
    model_to_dict,
    standard_from_bi_fine,
    standard_from_bi_rough,
    truth_set,
    valid,
)

from .labelled import (
    ForcesAll,
    ForcesEx,
    LabelledDerivation,
    LabelledSequent,
    MemberOf,
    NbTerm,
    PairOf,
    TranslationError,
    WorldAt,
    check_labelled,
    labelled_derivation_to_dict,
    render_labelled_sequent,
    translate_derivation,
    translate_hypersequent,
)
from .gen import (
    random_bi_model,
    random_formula,
    random_hypersequent,
    random_standard_model,
)

__version__ = "0.1.0"
