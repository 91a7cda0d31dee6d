import numpy as np
import pytest
from numpy import tanh  # activation("tanh") is the numpy ufunc itself

from attrseq.kernel import (
    Rng,
    activation,
    activation_grad_from_output,
    glorot_bound,
    orthogonal_init,
    relu,
    sigmoid,
    uniform_init,
)


def test_activation_point_values():
    assert tanh(0.0) == 0.0
    assert sigmoid(0.0) == 0.5
    assert relu(-2.0) == 0.0
    assert relu(3.5) == 3.5


def test_sigmoid_saturates_without_nan():
    z = np.array([-1000.0, -50.0, 50.0, 1000.0])
    out = sigmoid(z)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0


def test_sigmoid_symmetry():
    gen = np.random.default_rng(3)
    x = gen.uniform(-30, 30, 1000)
    assert np.max(np.abs(sigmoid(x) + sigmoid(-x) - 1.0)) < 1e-12


def _where_sigmoid(z):
    """The two-branch formula `sigmoid` must reproduce bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.bitwise
def test_sigmoid_is_bitwise_the_where_formula():
    gen = np.random.default_rng(7)
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan,
               5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny, 709.8, -709.8, 745.2, -745.2]
    z = np.concatenate([gen.normal(0.0, 4.0, 4000), gen.uniform(-800.0, 800.0, 4000),
                        special]).reshape(-1, 2)
    want = _where_sigmoid(z)
    assert np.array_equal(_bits(sigmoid(z)), _bits(want))
    out = np.full_like(z, 7.0)
    assert sigmoid(z, out=out) is out
    assert np.array_equal(_bits(out), _bits(want))
    in_place = z.copy()
    sigmoid(in_place, out=in_place)
    assert np.array_equal(_bits(in_place), _bits(want))
    # a strided view as out, as the LSTM writes its gate rows
    rows = np.zeros((z.shape[0], 3))
    sigmoid(z, out=rows[:, 1:])
    assert np.array_equal(_bits(rows[:, 1:]), _bits(want))
    assert not rows[:, 0].any()
    # the batched LSTM's call: a gate block of a (32, 200) array as z and as out
    z_rows = np.full((32, 200), 3.0)
    z_rows[:, :150] = gen.permutation(np.resize(np.concatenate([special, z.ravel()]), 32 * 150)
                                      ).reshape(32, 150)
    block = z_rows[:, :150]
    block_want = _where_sigmoid(block)
    gates = np.full((32, 200), 7.0)
    sigmoid(block, out=gates[:, :150])
    assert np.array_equal(_bits(gates[:, :150]), _bits(block_want))
    assert np.all(gates[:, 150:] == 7.0) and np.all(z_rows[:, 150:] == 3.0)
    sigmoid(block, out=block)
    assert np.array_equal(_bits(block), _bits(block_want))
    z_before = z.copy()
    sigmoid(z, out=out)
    assert np.array_equal(_bits(z), _bits(z_before))
    for x in special:  # scalars go through the same formula
        assert _bits(sigmoid(x)) == _bits(_where_sigmoid(x)), x


def _allocating_sigmoid(z, out=None):
    """`sigmoid` as it was with two temporaries: the numerator and exp(-|z|)
    each in a fresh array, the numerator written before |z| is taken."""
    z = np.asarray(z, dtype=np.float64)
    num, ez = np.empty_like(z), np.empty_like(z)
    np.copysign(1.0, z, out=num)
    np.exp(np.negative(np.abs(z, out=ez), out=ez), out=ez)
    np.maximum(ez, num, out=num)
    ez += 1.0
    return np.divide(num, ez, out=num if out is None else out)


@pytest.mark.bitwise
def test_sigmoid_one_temporary_is_bitwise_the_allocating_form():
    tiny = np.finfo(np.float64).tiny
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000ABC,
                     0xFFF80000DEADBEEF, 0x7FF0000000000001, 0xFFF4000000000000],
                    dtype=np.uint64).view(np.float64)  # quiet and signalling, either sign, payloads
    special = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, tiny / 3, -tiny / 3,
                               tiny, -tiny, 709.0, -709.0, 709.78, -709.78, 745.2, -745.2], nans])
    gen = np.random.default_rng(11)
    z = np.concatenate([special, gen.normal(0.0, 6.0, 250), gen.uniform(-720.0, 720.0, 250)])
    z = gen.permutation(z).reshape(2, 3, -1)
    want = _allocating_sigmoid(z)
    assert np.array_equal(_bits(sigmoid(z)), _bits(want))  # out=None
    out = np.full_like(z, 7.0)
    assert sigmoid(z, out=out) is out and np.array_equal(_bits(out), _bits(want))
    in_place = z.copy()
    assert sigmoid(in_place, out=in_place) is in_place  # out is z
    assert np.array_equal(_bits(in_place), _bits(want))
    block = z.copy()  # a strided gate block as z and as out, as the LSTM calls it
    assert np.array_equal(_bits(sigmoid(block[:, :2], out=block[:, :2])), _bits(want[:, :2]))
    assert np.array_equal(_bits(block[:, 2]), _bits(z[:, 2]))
    for x in special:  # scalars: a Python float, a numpy scalar and a 0-d array
        for form in (float(x), np.float64(x), np.array(x)):
            assert _bits(sigmoid(form)) == _bits(_allocating_sigmoid(form)), x
        zero_d = np.array(x)
        assert _bits(sigmoid(zero_d, out=zero_d)) == _bits(_allocating_sigmoid(x)), x


@pytest.mark.bitwise
def test_activation_grads_are_bitwise_their_formulas():
    gen = np.random.default_rng(5)
    x = np.concatenate([[0.0, -0.0, np.nan, -np.inf, np.inf, 5e-324], gen.normal(0.0, 2.0, 200)])
    assert np.array_equal(_bits(activation_grad_from_output("relu", relu(x))), _bits((relu(x) > 0) * 1.0))
    t = tanh(x)
    assert np.array_equal(_bits(activation_grad_from_output("tanh", t)), _bits(1.0 - t * t))


def test_activation_lookup():
    assert activation("tanh") is tanh
    assert activation("relu") is relu
    with pytest.raises(ValueError, match="unknown activation"):
        activation("softplus")


def test_activation_grad_from_output():
    x = np.array([-2.0, -0.3, 0.0, 0.7, 2.0])
    t = tanh(x)
    assert np.allclose(activation_grad_from_output("tanh", t), 1 - np.tanh(x) ** 2)
    r = relu(x)
    assert np.array_equal(activation_grad_from_output("relu", r), [0, 0, 0, 1, 1])


def test_glorot_bound_values():
    assert glorot_bound(50, 50) == pytest.approx(0.2449489742783178)
    assert np.sqrt(6.0 / 50) == pytest.approx(0.34641016151377546)


def test_uniform_init_within_bound():
    m = uniform_init(Rng(11), 40, 30, 0.25)
    assert m.shape == (40, 30)
    assert np.all(np.abs(m) <= 0.25)


def test_uniform_init_rejects_nonpositive_bound():
    with pytest.raises(ValueError, match="bound"):
        uniform_init(Rng(0), 2, 2, 0.0)
    with pytest.raises(ValueError, match="bound"):
        uniform_init(Rng(0), 2, 2, -1.0)


def test_rng_reproducible():
    a = uniform_init(Rng(42), 8, 8, 0.5)
    b = uniform_init(Rng(42), 8, 8, 0.5)
    assert np.array_equal(a, b)


def test_rng_child_streams_independent_of_draw_order():
    r1 = Rng(42)
    r2 = Rng(42)
    r2.gen.uniform(size=100)  # consuming the parent must not affect children
    c1 = r1.child("init").gen.uniform(size=10)
    c2 = r2.child("init").gen.uniform(size=10)
    assert np.array_equal(c1, c2)
    # distinct labels give distinct streams
    assert not np.array_equal(c1, Rng(42).child("other").gen.uniform(size=10))


def test_rng_rejects_out_of_range_seed():
    with pytest.raises(ValueError, match="64-bit"):
        Rng(-1)


def test_rng_seed_range_ends_at_the_largest_64_bit_unsigned_integer():
    assert Rng(2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValueError, match="64-bit"):
        Rng(2**64)


def test_orthogonal_init_is_orthogonal_and_deterministic():
    q1 = orthogonal_init(Rng(5), 12)
    q2 = orthogonal_init(Rng(5), 12)
    assert np.array_equal(q1, q2)
    assert np.max(np.abs(q1.T @ q1 - np.eye(12))) < 1e-10
