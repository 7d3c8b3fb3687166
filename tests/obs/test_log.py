"""Logger factory naming and the structured-event convention."""

import logging

from repro.obs.log import get_logger, log_event


class TestGetLogger:
    def test_repro_names_pass_through(self):
        assert get_logger("repro.chase.engine").name == "repro.chase.engine"
        assert get_logger("repro").name == "repro"

    def test_foreign_names_are_filed_under_repro(self):
        assert get_logger("__main__").name == "repro.__main__"
        assert get_logger("benchmarks.harness").name == "repro.benchmarks.harness"

    def test_root_has_null_handler(self):
        # The library never configures its embedder's logging: the repro
        # root carries a NullHandler so unhandled records stay silent.
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)


class TestLogEvent:
    def test_renders_event_and_fields(self, caplog):
        logger = get_logger("repro.obs.test")
        with caplog.at_level(logging.INFO, logger="repro.obs.test"):
            log_event(logger, logging.INFO, "round.cut", reason="budget:wall", n=3)
        assert len(caplog.records) == 1
        record = caplog.records[0]
        assert record.getMessage() == "round.cut reason='budget:wall' n=3"

    def test_attaches_structured_attributes(self, caplog):
        logger = get_logger("repro.obs.test")
        with caplog.at_level(logging.DEBUG, logger="repro.obs.test"):
            log_event(logger, logging.DEBUG, "checkpoint.restore", kind="oblivious")
        record = caplog.records[0]
        assert record.event == "checkpoint.restore"
        assert record.event_fields == {"kind": "oblivious"}

    def test_no_fields_renders_bare_event(self, caplog):
        logger = get_logger("repro.obs.test")
        with caplog.at_level(logging.INFO, logger="repro.obs.test"):
            log_event(logger, logging.INFO, "checkpoint.capture")
        assert caplog.records[0].getMessage() == "checkpoint.capture"

    def test_disabled_level_short_circuits(self, caplog):
        logger = get_logger("repro.obs.test")
        with caplog.at_level(logging.WARNING, logger="repro.obs.test"):
            log_event(logger, logging.DEBUG, "round.cut", reason="x")
        assert not caplog.records
