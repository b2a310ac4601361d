import pytest

from sicherman.dice import Die


@pytest.fixture
def label_builds(monkeypatch):
    """The coefficient tuples of the dice whose label tuples are built while
    the test runs: a die from `Die.from_coeffs` builds its labels on first
    read."""
    built = []
    read = Die.labels.fget

    def counted(die):
        if die._labels is None:
            built.append(die.coeffs)
        return read(die)

    monkeypatch.setattr(Die, "labels", property(counted))
    return built
