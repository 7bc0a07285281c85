import math
import random
from fractions import Fraction as F

import pytest

from reflekt.constructions import transposition_chain_specs
from reflekt.networks import (
    ComparatorSeq,
    apply_comparators,
    batcher,
    double_bubble_seq,
    insertion_network,
    is_sorting_network,
    stride_indices,
    stride_seq,
)
from reflekt.reflections import transposition_spec


class TestBatcher:
    def test_two_wires(self):
        assert batcher(2).comparators == ((1, 2),)

    def test_four_wires_exact_layout(self):
        assert batcher(4).comparators == ((1, 2), (3, 4), (1, 3), (2, 4), (2, 3))

    def test_eight_wires_size(self):
        assert len(batcher(8)) == 19

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sorts_exhaustively(self, n):
        assert is_sorting_network(batcher(n))

    def test_random_rational_vectors_sorted(self):
        # cross-check of the 0/1 principle on non-binary data
        net = batcher(6)
        rng = random.Random(17)
        for _ in range(1000):
            y = tuple(F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(6))
            assert apply_comparators(net, y) == tuple(sorted(y))


class TestInsertionNetwork:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_size_and_validity(self, n):
        net = insertion_network(n)
        assert len(net) == n * (n - 1) // 2
        assert is_sorting_network(net)


class TestValidation:
    def test_single_comparator_two_wires(self):
        assert is_sorting_network(ComparatorSeq(2, ((1, 2),)))

    def test_single_comparator_three_wires(self):
        assert not is_sorting_network(ComparatorSeq(3, ((1, 2),)))

    def test_bubble_three_wires(self):
        assert is_sorting_network(ComparatorSeq(3, ((1, 2), (2, 3), (1, 2))))

    def test_cap(self):
        with pytest.raises(ValueError):
            is_sorting_network(ComparatorSeq(25, ((1, 2),)))

    def test_degenerate_comparator_rejected(self):
        with pytest.raises(ValueError):
            ComparatorSeq(3, ((2, 2),))


class TestDoubleBubble:
    def test_k3(self):
        assert double_bubble_seq(3).comparators == ((1, 2), (2, 3), (1, 2))

    def test_k4(self):
        assert double_bubble_seq(4).comparators == (
            (1, 2), (2, 3), (3, 4), (1, 2), (2, 3),
        )

    def test_k4_chain_order(self):
        pairs = ((2, 3), (1, 2), (3, 4), (2, 3), (1, 2))
        want = [transposition_spec(k, ell, 4) for k, ell in pairs]
        assert transposition_chain_specs(double_bubble_seq(4)) == want

    @pytest.mark.parametrize("k", range(3, 41))
    def test_length(self, k):
        assert len(double_bubble_seq(k)) == 2 * k - 3

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            double_bubble_seq(2)


class TestStride:
    def test_k3(self):
        assert stride_seq(3).comparators == ((2, 3), (1, 2), (2, 3))

    def test_k4(self):
        assert stride_seq(4).comparators == ((3, 4), (2, 3), (3, 4))

    def test_k6(self):
        assert stride_indices(6) == [6, 5, 4, 2]
        assert stride_seq(6).comparators == ((5, 6), (4, 5), (2, 4), (4, 5), (5, 6))

    def test_length_law(self):
        for k in range(3, 200):
            r = len(stride_indices(k))
            assert len(stride_seq(k)) == 2 * r - 3

    def test_palindromes(self):
        # so a stride sequence lists the same pairs in chain order
        for k in range(3, 200):
            assert stride_seq(k).comparators == stride_seq(k).comparators[::-1]

    def test_depth_bound(self):
        for k in range(3, 10 ** 4 + 1):
            r = len(stride_indices(k))
            assert r <= math.ceil(math.log2(k)) + 2

    def test_memoized_by_k(self):
        assert stride_seq(9) is stride_seq(9)
        assert stride_seq(9) == ComparatorSeq(9, stride_seq(9).comparators)
        for _ in range(2):
            with pytest.raises(ValueError):
                stride_seq(2)


class TestApply:
    def test_batcher_sorts(self):
        assert apply_comparators(batcher(4), (4, 3, 2, 1)) == (1, 2, 3, 4)

    def test_double_bubble_application_order(self):
        # the two bubble passes push the two largest entries to the top
        out = apply_comparators(double_bubble_seq(4), (3, 1, 3, 2))
        assert out == (1, 2, 3, 3)

    def test_empty_sequence(self):
        seq = ComparatorSeq(3, ())
        assert apply_comparators(seq, (3, 1, 2)) == (3, 1, 2)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            apply_comparators(batcher(4), (1, 2, 3))
