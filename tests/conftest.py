from fractions import Fraction

import pytest

from mmda_lab.instances import build_mmda, make_params
from mmda_lab.relaxations import SubtreeFamily, assignment_solution
from mmda_lab.shadow import shadow_model


@pytest.fixture(scope="session")
def inst4():
    return build_mmda(make_params(4, Fraction(1, 4)))


@pytest.fixture(scope="session")
def inst8():
    return build_mmda(make_params(8, Fraction(1, 4)))


@pytest.fixture(scope="session")
def inst12():
    return build_mmda(make_params(12, Fraction(1, 4)))


@pytest.fixture(scope="session")
def inst16_deep():
    return build_mmda(make_params(16, Fraction(1, 4), epsilon=Fraction(1, 2)))


@pytest.fixture(scope="session")
def inst8_deep():
    return build_mmda(make_params(8, Fraction(1, 4), epsilon=Fraction(1, 2)))


@pytest.fixture(scope="session")
def sol8(inst8):
    return assignment_solution(inst8)


@pytest.fixture(scope="session")
def family8(inst8):
    return SubtreeFamily(inst8)


@pytest.fixture(scope="session")
def model8(inst8):
    return shadow_model(inst8)


@pytest.fixture(scope="session")
def model4(inst4):
    return shadow_model(inst4)
