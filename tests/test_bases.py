import numpy as np
import pytest

import mub_eve.bases as bases_mod
from mub_eve import (
    DimensionError,
    ProtocolSpec,
    computational_basis,
    fourier_basis,
    protocol_bases,
    qutrit_three_basis_set,
)
from mub_eve.errors import ProtocolError
from oracles import is_mutually_unbiased

ALPHA = np.exp(2j * np.pi / 3)


def test_computational_basis_is_standard():
    basis = computational_basis(3)
    assert np.array_equal(basis.vectors, np.eye(3))
    assert np.array_equal(computational_basis(4).vectors, np.eye(4))
    assert basis.label == "computational"


@pytest.mark.parametrize("d", [1, 0, -2])
def test_dimension_below_two_rejected(d):
    with pytest.raises(DimensionError):
        computational_basis(d)
    with pytest.raises(DimensionError):
        fourier_basis(d)


def test_fourier_basis_qutrit_entries():
    vecs = fourier_basis(3).vectors
    expected1 = np.array([1.0, ALPHA, ALPHA.conjugate()]) / np.sqrt(3)
    assert np.max(np.abs(vecs[1] - expected1)) < 1e-12
    assert np.max(np.abs(vecs[0] - np.ones(3) / np.sqrt(3))) < 1e-12


def test_fourier_basis_ququart_entries():
    vecs = fourier_basis(4).vectors
    expected1 = np.array([1.0, 1j, -1.0, -1j]) / 2.0
    assert np.max(np.abs(vecs[1] - expected1)) < 1e-12


def test_fourier_basis_qubit_entries():
    vecs = fourier_basis(2).vectors
    assert np.max(np.abs(vecs[1] - np.array([1.0, -1.0]) / np.sqrt(2))) < 1e-12


@pytest.mark.parametrize("d", range(2, 11))
def test_fourier_orthonormal_and_unbiased(d):
    fb = fourier_basis(d)
    gram = fb.vectors.conj() @ fb.vectors.T
    assert np.max(np.abs(gram - np.eye(d))) <= 1e-12
    assert is_mutually_unbiased(computational_basis(d), fb)


def test_qutrit_three_basis_entries():
    comp, alpha, alpha_star = qutrit_three_basis_set()
    assert np.max(np.abs(alpha.vectors[0] - np.array([ALPHA, 1, 1]) / np.sqrt(3))) < 1e-12
    assert np.max(np.abs(alpha.vectors[1] - np.array([1, ALPHA, 1]) / np.sqrt(3))) < 1e-12
    assert (
        np.max(np.abs(alpha_star.vectors[0] - np.array([ALPHA.conjugate(), 1, 1]) / np.sqrt(3)))
        < 1e-12
    )
    assert np.array_equal(comp.vectors, np.eye(3))


def test_qutrit_three_bases_pairwise_unbiased():
    bases = qutrit_three_basis_set()
    for i in range(3):
        for j in range(i + 1, 3):
            assert is_mutually_unbiased(bases[i], bases[j])
            mags = np.abs(bases[i].vectors.conj() @ bases[j].vectors.T)
            assert np.max(np.abs(mags - 1 / np.sqrt(3))) <= 1e-12


def test_same_basis_is_not_unbiased_with_itself():
    comp = computational_basis(3)
    assert not is_mutually_unbiased(comp, comp)


def test_unbiased_dimension_mismatch():
    with pytest.raises(DimensionError):
        is_mutually_unbiased(computational_basis(3), computational_basis(4))


def test_fourier_five_unbiased_with_computational():
    assert is_mutually_unbiased(fourier_basis(5), computational_basis(5))


def test_protocol_bases():
    labels = [b.label for b in protocol_bases(ProtocolSpec(4, 2))]
    assert labels == ["computational", "fourier"]
    labels = [b.label for b in protocol_bases(ProtocolSpec(3, 3))]
    assert labels == ["computational", "alpha", "alpha-star"]
    with pytest.raises(ProtocolError):
        protocol_bases(ProtocolSpec(4, 3))
    with pytest.raises(ProtocolError):
        protocol_bases(ProtocolSpec(3, 5))


def test_protocol_bases_are_built_once_and_shared_read_only():
    bases = protocol_bases(ProtocolSpec(5, 2))
    assert isinstance(bases, tuple)
    assert protocol_bases(ProtocolSpec(5, 2)) is bases
    assert protocol_bases(ProtocolSpec(3, 3)) is protocol_bases(ProtocolSpec(3, 3))
    for basis in bases:
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 0.0
    assert qutrit_three_basis_set() is not qutrit_three_basis_set()  # a fresh list, never the shared set


def test_protocol_bases_cache_is_bounded():
    builder = bases_mod._build_protocol_bases
    maxsize = builder.cache_info().maxsize
    assert maxsize is not None and 5 <= maxsize <= 16  # a workload's specs, not every d
    for d in range(2, maxsize + 4):
        protocol_bases(ProtocolSpec(d))
    assert builder.cache_info().currsize == maxsize
