"""repro — All-Instances Restricted Chase Termination (PODS 2020).

A full reproduction of Gogacz, Marcinkowski & Pieris, *All-Instances
Restricted Chase Termination*: the chase machinery (restricted, oblivious,
real oblivious, weakly restricted), the Fairness Theorem, chaseable sets
and treeification for guarded TGDs, caterpillars and the Büchi decision
procedure for sticky TGDs, plus baselines (weak/joint acyclicity, the
critical database) and the cheap-first termination portfolio in front of
the deciders.

Quickstart::

    from repro import parse_database, parse_tgds, restricted_chase
    from repro import TerminationPortfolio

    tgds = parse_tgds(["R(x,y) -> R(x,z)"])
    result = restricted_chase(parse_database("R(a,b)"), tgds)
    verdict = TerminationPortfolio().analyze(tgds)
"""

from repro.backends import SQLiteInstance, make_instance
from repro.core.atoms import Atom
from repro.core.equality import EqualityType, LabeledEqualityType
from repro.core.instance import Database, Instance
from repro.core.parsing import (
    ParseError,
    parse_atom,
    parse_atoms,
    parse_database,
    parse_instance,
)
from repro.core.cores import core_of, is_core, redundancy
from repro.core.queries import ConjunctiveQuery
from repro.core.schema import Schema
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Null, Term, Variable
from repro.chase.checkpoint import Budget, ChaseCheckpoint
from repro.chase.derivation import Derivation, DerivationError
from repro.chase.fairness import FairnessError, fairness_round, make_fair
from repro.chase.multihead import (
    MultiHeadTrigger,
    example_b1_tgds,
    multihead_restricted_chase,
)
from repro.chase.oblivious import ObliviousResult, oblivious_chase, satisfies_all
from repro.chase.real_oblivious import ChaseGraph, OChaseNode, RealObliviousChase
from repro.chase.restricted import (
    ChaseResult,
    SearchBudgetExceeded,
    all_derivations_terminate,
    exists_derivation_of_length,
    restricted_chase,
    seminaive_chase,
)
from repro.chase.trigger import (
    Trigger,
    active_triggers_on,
    is_active,
    seminaive_triggers,
    triggers_on,
)
from repro.errors import (
    ChaseInterrupted,
    CheckpointError,
    ExtractionError,
    ReproError,
    StateBudgetExceeded,
)
from repro.guarded.abstract_join_tree import AbstractJoinTree, ajt_from_derivation
from repro.guarded.chaseable import (
    chase_graph_from_derivation,
    derivation_from_chaseable,
    is_chaseable,
)
from repro.guarded.decision import PumpWitness, decide_guarded, find_pump
from repro.guarded.join_tree import JoinTree, gyo_join_tree, is_acyclic_instance
from repro.guarded.treeification import TreeifiedDatabase, treeify, verify_treeification
from repro.sticky.alphabet import CaterpillarSymbol, caterpillar_alphabet
from repro.sticky.automaton import CaterpillarAutomatonFamily, CaterpillarState
from repro.sticky.caterpillar import CaterpillarPrefix, prefix_from_witness
from repro.sticky.decision import CaterpillarWitness, decide_sticky, witness_from_lasso
from repro.sticky.extraction import TermGenealogy, extract_proto_caterpillar
from repro.termination.critical import critical_chase, critical_database, critical_verdict
from repro.termination.portfolio import TerminationPortfolio
from repro.termination.verdict import Status, Verdict
from repro.tgds.acyclicity import (
    is_jointly_acyclic,
    is_weakly_acyclic,
    terminating_certificate,
)
from repro.tgds.guardedness import guard_of, is_guarded, is_linear
from repro.tgds.stickiness import StickinessAnalysis, is_sticky
from repro.tgds.tgd import TGD, MultiHeadTGD, parse_tgds

__version__ = "1.0.0"

__all__ = [
    # core
    "Atom", "Constant", "Null", "Term", "Variable", "Schema", "Substitution",
    "Instance", "Database",
    "SQLiteInstance", "make_instance",
    "EqualityType",
    "LabeledEqualityType", "ConjunctiveQuery", "ParseError",
    "parse_atom", "parse_atoms", "parse_database", "parse_instance",
    "core_of", "is_core", "redundancy",
    # dependencies
    "TGD", "MultiHeadTGD", "parse_tgds", "guard_of", "is_guarded", "is_linear",
    "is_sticky", "StickinessAnalysis", "is_weakly_acyclic", "is_jointly_acyclic",
    "terminating_certificate",
    # errors (repro.errors is the canonical home; aliases stay importable
    # from each exception's historical module)
    "ReproError", "ChaseInterrupted", "CheckpointError",
    "StateBudgetExceeded", "ExtractionError",
    # fault tolerance
    "Budget", "ChaseCheckpoint",
    # chase
    "Trigger", "triggers_on", "active_triggers_on", "is_active",
    "seminaive_triggers",
    "restricted_chase", "seminaive_chase", "ChaseResult",
    "exists_derivation_of_length",
    "all_derivations_terminate", "SearchBudgetExceeded",
    "oblivious_chase", "ObliviousResult", "satisfies_all",
    "RealObliviousChase", "OChaseNode", "Derivation", "DerivationError",
    "make_fair", "fairness_round", "FairnessError",
    "MultiHeadTrigger", "multihead_restricted_chase", "example_b1_tgds",
    # guarded
    "ChaseGraph", "chase_graph_from_derivation", "is_chaseable",
    "derivation_from_chaseable", "JoinTree", "gyo_join_tree",
    "is_acyclic_instance", "TreeifiedDatabase", "treeify",
    "verify_treeification", "AbstractJoinTree", "ajt_from_derivation",
    "decide_guarded", "find_pump", "PumpWitness",
    # sticky
    "CaterpillarSymbol", "caterpillar_alphabet", "CaterpillarAutomatonFamily",
    "CaterpillarState", "CaterpillarPrefix", "prefix_from_witness",
    "decide_sticky", "witness_from_lasso", "CaterpillarWitness",
    "extract_proto_caterpillar", "TermGenealogy",
    # termination
    "TerminationPortfolio", "Verdict", "Status",
    "critical_database", "critical_chase", "critical_verdict",
]
