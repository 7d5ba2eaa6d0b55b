"""Unit tests for the diagonal multi-partitioning geometry."""

import pytest

from repro.apps.npb.multipartition import MultiPartition, X, Y, Z, is_square


def test_square_requirement():
    """§4.2: only square process counts (225 is vSCC's maximum)."""
    MultiPartition(225, 162)
    with pytest.raises(ValueError, match="square"):
        MultiPartition(48, 162)
    assert is_square(144) and not is_square(150)


@pytest.fixture
def part():
    return MultiPartition(16, 32)


def test_every_rank_owns_one_cell_per_slab(part):
    for rank in range(part.nranks):
        cells = part.cells(rank)
        for dim in (X, Y, Z):
            assert sorted(c[dim] for c in cells) == list(range(part.p))


def test_cells_partition_the_grid(part):
    owned = set()
    for rank in range(part.nranks):
        for cell in part.cells(rank):
            assert cell not in owned
            owned.add(cell)
    assert len(owned) == part.p ** 3


def test_partners_are_mutual(part):
    for rank in range(part.nranks):
        for dim in (X, Y, Z):
            succ = part.partner(rank, dim, True)
            assert part.partner(succ, dim, False) == rank


def test_partner_owns_adjacent_cell(part):
    """The cell next to mine in a sweep belongs to my fixed partner."""
    p = part.p
    for rank in range(part.nranks):
        succ = part.partner(rank, X, True)
        for (x, y, z) in part.cells(rank):
            neighbor = ((x + 1) % p, y, z)
            assert neighbor in part.cells(succ)


def test_cell_in_slab_consistency(part):
    for rank in range(part.nranks):
        cells = part.cells(rank)
        for dim in (X, Y, Z):
            for slab in range(part.p):
                c = part.cell_in_slab(rank, dim, slab)
                assert cells[c][dim] == slab


def test_slab_sizes_sum_to_grid():
    part = MultiPartition(9, 20)  # 20 = 3*6 + 2: uneven slabs
    sizes = [part.slab_size(k) for k in range(part.p)]
    assert sum(sizes) == 20
    assert max(sizes) - min(sizes) <= 1
    assert part.slab_start(2) == sizes[0] + sizes[1]


def test_grid_too_small_rejected():
    with pytest.raises(ValueError):
        MultiPartition(16, 3)


@pytest.mark.parametrize("rank", [-1, 16])
def test_bad_rank_raises_on_every_call(part, rank):
    """The per-instance tables never let a bad rank through (nor wrap a
    negative one), however often it is asked."""
    calls = [
        lambda: part.node_coords(rank),
        lambda: part.cells(rank),
        lambda: part.cell_in_slab(rank, X, 0),
        lambda: part.partner(rank, Y, True),
        lambda: part.cell_shape(rank, 0),
        lambda: part.points_in_cell(rank, 0),
    ]
    for _ in range(2):
        for call in calls:
            with pytest.raises(ValueError, match="out of range"):
                call()


def test_geometry_tables_match_direct_formulas():
    """Every table entry equals the closed-form geometry of the module doc."""
    part = MultiPartition(9, 20)
    p = part.p
    steps = {
        (X, True): (1, 0),
        (X, False): (-1, 0),
        (Y, True): (0, 1),
        (Y, False): (0, -1),
        (Z, True): (-1, -1),
        (Z, False): (1, 1),
    }
    for rank in range(part.nranks):
        i, j = rank % p, rank // p
        assert part.node_coords(rank) == (i, j)
        assert part.cells(rank) == [((i + c) % p, (j + c) % p, c) for c in range(p)]
        for (dim, positive), (di, dj) in steps.items():
            assert part.partner(rank, dim, positive) == ((j + dj) % p) * p + (i + di) % p
        for slab in range(p):
            assert part.cell_in_slab(rank, X, slab) == (slab - i) % p
            assert part.cell_in_slab(rank, Y, slab) == (slab - j) % p
            assert part.cell_in_slab(rank, Z, slab) == slab
        for c, (x, y, z) in enumerate(part.cells(rank)):
            shape = (part.slab_size(x), part.slab_size(y), part.slab_size(z))
            assert part.cell_shape(rank, c) == shape
            assert part.points_in_cell(rank, c) == shape[0] * shape[1] * shape[2]
    with pytest.raises(ValueError, match="dimension"):
        part.cell_in_slab(0, 3, 0)
