"""The package's export list names each public member once."""

import eprghz

REMOVED = ("DensityMatrix", "reduced_density", "inner", "psi_prime",
           "multinomial_exact")


def test_all_names_each_attribute_once():
    names = eprghz.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(eprghz, n)] == []
    assert [n for n in REMOVED if n in names or hasattr(eprghz, n)] == []
