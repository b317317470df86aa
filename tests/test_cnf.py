import pytest

from chromapoly.cnf import CnfInstance, count_models, parse_cnf
from chromapoly.errors import BudgetExceededError, budget
from helpers import emit_cnf


def test_parse_nae():
    cnf = parse_cnf("p cnf 3 1\nc semantics nae3\n1 2 3 0\n")
    assert cnf.num_vars == 3
    assert cnf.clauses == ((1, 2, 3),)
    assert cnf.semantics == "nae3"


def test_parse_monotone_rejects_negative():
    with pytest.raises(ValueError):
        parse_cnf("c semantics monotone2sat\np cnf 2 1\n1 -2 0\n")


def test_parse_width_violation():
    with pytest.raises(ValueError):
        parse_cnf("c semantics 2of4\np cnf 3 1\n1 2 3 0\n")


def test_parse_structure_errors():
    with pytest.raises(ValueError):
        parse_cnf("c semantics nae3\n1 2 3 0\n")          # no header
    with pytest.raises(ValueError):
        parse_cnf("p cnf 3 1\n1 2 3 0\n")                  # no semantics
    with pytest.raises(ValueError):
        parse_cnf("c semantics nae3\np cnf 3 2\n1 2 3 0\n")  # clause count
    with pytest.raises(ValueError):
        parse_cnf("c semantics nae3\np cnf 3 1\n1 2 3\n")  # missing terminator
    with pytest.raises(ValueError):
        parse_cnf("c semantics nae2\np cnf 2 1\n1 2 0\n")  # width < 3


def test_repeated_variable_rejected():
    with pytest.raises(ValueError):
        CnfInstance(3, ((1, -1, 2),), "nae3")


def test_emit_round_trip():
    cnf = CnfInstance(4, ((1, -2, 3, 4),), "2of4")
    assert parse_cnf(emit_cnf(cnf)) == cnf


def test_count_models_nae():
    cnf = CnfInstance(3, ((1, 2, 3),), "nae3")
    assert count_models(cnf) == 6
    # with a negated literal: failing assignments are x1=0,x2=x3=1 shifted
    cnf = CnfInstance(3, ((-1, 2, 3),), "nae3")
    assert count_models(cnf) == 6


def test_count_models_alpha():
    cnf = CnfInstance(4, ((1, 2, 3, 4),), "2of4")
    assert count_models(cnf) == 6
    two = CnfInstance(4, ((1, 2, 3, 4), (1, 2, 3, 4)), "2of4")
    assert count_models(two) == 6


def test_count_models_monotone():
    cnf = CnfInstance(2, ((1, 2),), "monotone2sat")
    assert count_models(cnf) == 3
    # independent clauses multiply: 3 * 3 over disjoint variables
    cnf = CnfInstance(4, ((1, 2), (3, 4)), "monotone2sat")
    assert count_models(cnf) == 9


def test_count_models_free_variable_doubles():
    base = CnfInstance(3, ((1, 2, 3),), "nae3")
    padded = CnfInstance(4, ((1, 2, 3),), "nae3")
    assert count_models(padded) == 2 * count_models(base)


def test_count_models_budget():
    cnf = CnfInstance(30, (tuple(range(1, 4)),), "nae3")
    with budget(10 ** 4), pytest.raises(BudgetExceededError):
        count_models(cnf)
