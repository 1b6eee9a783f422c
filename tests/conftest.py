"""Emit one PASS/FAIL line per acceptance criterion in the terminal output, and
draw the same Hypothesis examples on every run."""

from hypothesis import settings

# derandomized: each test's examples follow from the test alone, so the time and
# the coverage of a run repeat; max_examples and deadlines stay per test
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

ACCEPTANCE_LABELS = {
    "test_criterion_1_fixture_reproduction": (1, "fixture-reproduction"),
    "test_criterion_2_construction_sweeps": (2, "construction-sweeps"),
    "test_criterion_3_necessary_conditions": (3, "necessary-conditions"),
    "test_criterion_4_knight_machinery": (4, "knight-machinery"),
    "test_criterion_5_decompositions": (5, "decompositions"),
    "test_criterion_6_biembeddings": (6, "biembeddings"),
    "test_criterion_7_archdeacon": (7, "archdeacon"),
    "test_criterion_8_property_suites": (8, "property-suites"),
}

_results: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if name in ACCEPTANCE_LABELS and report.when == "call":
        number, label = ACCEPTANCE_LABELS[name]
        _results[number] = (label, "PASS" if report.passed else "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_results):
        label, outcome = _results[number]
        terminalreporter.write_line(f"ACCEPTANCE {number} {label}: {outcome}")
