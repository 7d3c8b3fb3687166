"""Verdicts: the answers of the termination decision procedures.

Every decision procedure in this library is *certifying*: a verdict carries
an artefact that can be re-checked independently (a syntactic certificate
name, a witness database plus a validated derivation, or an automaton
lasso).  ``UNKNOWN`` is an honest answer when neither side was established
within the configured bounds (see DESIGN.md §3 on the MSOL substitution).

Verdicts are plain, picklable data, and every producer in this package is
deterministic: the same TGD set (and budget) yields the same verdict —
including its certificate — which is what lets tests diff portfolio and
decider answers directly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class Status:
    """The possible answers about membership in ``CT_res_∀∀``.

    ``TIMEOUT`` is distinct from ``UNKNOWN``: the configured *bounds* were
    never reached — a :class:`repro.chase.checkpoint.Budget` cut the search
    short, so a larger budget (not a larger bound) might still decide.
    """

    ALL_TERMINATING = "all-terminating"
    NOT_ALL_TERMINATING = "not-all-terminating"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"


class Verdict:
    """Answer + provenance for one TGD set."""

    def __init__(
        self,
        status: str,
        method: str,
        certificate: Optional[Dict[str, Any]] = None,
        detail: str = "",
    ):
        if status not in (
            Status.ALL_TERMINATING,
            Status.NOT_ALL_TERMINATING,
            Status.UNKNOWN,
            Status.TIMEOUT,
        ):
            raise ValueError(f"unknown status {status!r}")
        #: One of the :class:`Status` constants.
        self.status = status
        #: Which procedure produced the answer (e.g. "weak-acyclicity",
        #: "sticky-buchi", "guarded-replay").
        self.method = method
        #: Machine-checkable evidence; keys depend on the method.
        self.certificate = certificate or {}
        #: Human-readable explanation.
        self.detail = detail

    @property
    def is_terminating(self) -> bool:
        return self.status == Status.ALL_TERMINATING

    @property
    def is_nonterminating(self) -> bool:
        return self.status == Status.NOT_ALL_TERMINATING

    @property
    def is_unknown(self) -> bool:
        return self.status == Status.UNKNOWN

    @property
    def is_timeout(self) -> bool:
        return self.status == Status.TIMEOUT

    def __repr__(self) -> str:
        return f"Verdict({self.status} via {self.method})"
