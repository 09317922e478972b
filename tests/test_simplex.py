import numpy as np
import pytest

from rspca import DataError, build_simplex, interpret
from .conftest import atom_vector, block_model


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 12])
def test_unit_edges_and_zero_centroid(k):
    v = build_simplex(k)
    assert v.shape == (k, k - 1)
    for a in range(k):
        for b in range(a + 1, k):
            dist = np.linalg.norm(v[a] - v[b])
            assert abs(dist - 1.0) <= 1e-12
    assert np.all(np.abs(v.sum(axis=0)) <= 1e-12)


def test_k1_is_zero_dimensional():
    assert build_simplex(1).shape == (1, 0)


def test_k0_rejected():
    with pytest.raises(DataError):
        build_simplex(0)


def test_k2_vertices_are_half():
    assert sorted(build_simplex(2).ravel()) == [-0.5, 0.5]


def test_k3_is_equilateral_triangle():
    v = build_simplex(3)
    d01 = np.linalg.norm(v[0] - v[1])
    d02 = np.linalg.norm(v[0] - v[2])
    d12 = np.linalg.norm(v[1] - v[2])
    assert abs(d01 - 1) < 1e-12 and abs(d02 - 1) < 1e-12 and abs(d12 - 1) < 1e-12


def test_construction_is_bit_identical():
    assert build_simplex(6).tobytes() == build_simplex(6).tobytes()


@pytest.mark.parametrize("k", range(1, 11))
def test_gram_is_half_centering(k):
    # V V^T = (I - 11^T/k)/2: the identity the loading-space pursuit rests on;
    # its diagonal is the squared center norm and its zero row sums the zero centroid
    v = build_simplex(k)
    expected = (np.eye(k) - np.ones((k, k)) / k) / 2.0
    assert np.all(np.abs(v @ v.T - expected) <= 1e-15)


def interpreted_atoms(k, trials=20):
    """Every atom interpret reports for seeded random blocks of a k-category variable."""
    rng = np.random.default_rng(k)
    atoms = []
    for _ in range(trials):
        result = interpret(block_model([rng.normal(size=k - 1)]), 1, max_terms=4, eps=0.0)
        assert len(result.terms) <= 4
        atoms.extend(atom for _, atom in result.terms)
    return atoms


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_atom_counts_and_norms(k):
    atoms = interpreted_atoms(k)
    edges = [a for a in atoms if a.kind == "edge"]
    centers = [a for a in atoms if a.kind == "center"]
    assert len(edges) + len(centers) == len(atoms)
    # at k = 2 the center ties the unit edge and the tie goes to the edge
    assert edges and (bool(centers) == (k > 2))
    for atom in edges:
        assert abs(np.linalg.norm(atom_vector(atom, k)) - 1.0) <= 1e-12
        assert atom.from_category < atom.to_category
    expected = np.sqrt((k - 1) / (2 * k))
    for atom in centers:
        assert abs(np.linalg.norm(atom_vector(atom, k)) - expected) <= 1e-12
        assert atom.from_category == atom.to_category


def test_k2_center_norm_is_half():
    v = build_simplex(2)
    assert np.all(np.abs(np.linalg.norm(v, axis=1) - 0.5) <= 1e-12)
    # a center of norm 1/2 correlates exactly as well as the unit edge; the edge wins
    result = interpret(block_model([np.array([0.3])]), 1)
    assert [(atom.kind, atom.from_category, atom.to_category) for _, atom in result.terms] == [("edge", 0, 1)]
    assert abs(result.terms[0][0] + 0.3) <= 1e-15 and result.residual_norm == 0.0


def test_k4_center_norm():
    v = build_simplex(4)
    result = interpret(block_model([v[2]]), 1)
    assert len(result.terms) == 1
    coef, atom = result.terms[0]
    assert (atom.kind, atom.from_category, atom.to_category) == ("center", 2, 2)
    assert abs(np.linalg.norm(atom_vector(atom, 4)) - np.sqrt(3 / 8)) <= 1e-12
    assert abs(coef - 1.0) <= 1e-12 and result.residual_norm <= 1e-12


def test_k1_has_no_atoms():
    result = interpret(block_model([np.zeros(0), np.array([0.6, -0.8])]), 1)
    assert result.terms and {atom.variable for _, atom in result.terms} == {"v1"}


@pytest.mark.parametrize("k", [2, 4, 6])
def test_edge_is_difference_of_centers(k):
    v = build_simplex(k)
    for atom in interpreted_atoms(k):
        expected = v[atom.to_category] - v[atom.from_category] if atom.kind == "edge" else v[atom.to_category]
        assert np.all(np.abs(atom_vector(atom, k) - expected) <= 1e-15)


def test_squared_distance_reproduces_categorical_distance():
    v = build_simplex(5)
    for a in range(5):
        for b in range(5):
            d2 = np.sum((v[a] - v[b]) ** 2)
            assert abs(d2 - (0.0 if a == b else 1.0)) <= 1e-12
