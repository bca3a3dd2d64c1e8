import pytest

from skewdyck import automaton
from skewdyck.automaton import count, run, step, walk
from skewdyck.paths import enumerate_paths
from skewdyck.rings import TPoly


class TestStep:
    def test_first_step_only_up(self):
        state = step(next(walk(0)))
        assert state == {("F", 1): TPoly(1)}

    def test_four_steps_total_weight(self):
        state = run(4)
        total = sum((w for w in state.values()), TPoly())
        assert total(1) == 7  # equals brute-force cardinality at length 4

    def test_four_steps_level_zero(self):
        state = run(4)
        got = sum((w for (lyr, lvl), w in state.items() if lvl == 0), TPoly())
        assert got == TPoly([2, 1])

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            step({("F", -1): TPoly(1)})


class TestCount:
    def test_forbid_length8(self):
        assert count(8, 0)(0) == 20

    def test_track_length10(self):
        assert count(10, 0) == TPoly([71, 64, 2])

    def test_total_length12(self):
        assert count(12, 0)(1) == 543

    def test_odd_length_returns_zero(self):
        assert count(1, 0)(1) == 0

    @pytest.mark.parametrize("m,k", [(3, 0), (4, 1), (5, 2), (6, 9)])
    def test_parity_and_height(self, m, k):
        assert count(m, k) == TPoly()

    def test_oracle_equivalence_small(self):
        for m in range(11):
            by_level = {}
            for _, level, udr in enumerate_paths(m):
                counter = by_level.setdefault(level, {})
                counter[udr] = counter.get(udr, 0) + 1
            for k, counter in by_level.items():
                coeffs = [0] * (max(counter) + 1)
                for j, c in counter.items():
                    coeffs[j] = c
                assert count(m, k) == TPoly(coeffs), (m, k)

    def test_forbid_equals_oracle_with_pattern_forbidden(self):
        for m in range(13):
            levels = [level for _, level, udr in enumerate_paths(m) if not udr]
            for k in range(m + 1):
                assert count(m, k)(0) == levels.count(k), (m, k)


class TestByLevel:
    def test_sums_layers(self):
        state = {("G", 1): TPoly([1]), ("K", 1): TPoly([0, 2]), ("F", 3): TPoly([4])}
        assert automaton.by_level(state) == {1: TPoly([1, 2]), 3: TPoly([4])}

    def test_agrees_with_count(self):
        levels = automaton.by_level(run(12))
        for k in range(13):
            assert levels.get(k, TPoly()) == count(12, k), k


def layer_weights(layer, level, order):
    """The weight of one (layer, level) cell after 0, ..., order - 1
    steps: the first order coefficients of its generating series."""
    return [state.get((layer, level), TPoly()) for state in walk(order - 1)]


class TestLayerSeries:
    def test_f_level0_is_one(self):
        s = layer_weights("F", 0, 8)
        assert s[0] == TPoly(1)
        assert all(c == TPoly() for c in s[1:])

    def test_k_level0_marked_path(self):
        s = layer_weights("K", 0, 6)
        assert s[4](1) == 1  # the single path UUDR
        assert s[4] == TPoly([0, 1])

    def test_recursion_identities(self):
        n_levels, order = 6, 12
        f = [layer_weights("F", n, order) for n in range(n_levels + 2)]
        g = [layer_weights("G", n, order) for n in range(n_levels + 2)]
        h = [layer_weights("H", n, order) for n in range(n_levels + 2)]
        k = [layer_weights("K", n, order) for n in range(n_levels + 2)]
        t = TPoly((0, 1))
        for n in range(n_levels):
            for m in range(order - 1):
                # f_{n+1} = z(f_n + g_n + h_n)
                assert f[n + 1][m + 1] == f[n][m] + g[n][m] + h[n][m], ("f", n, m)
                # g_n = z f_{n+1}
                assert g[n][m + 1] == f[n + 1][m], ("g", n, m)
                # h_n = z(g_{n+1} + h_{n+1} + k_{n+1})
                assert h[n][m + 1] == g[n + 1][m] + h[n + 1][m] + k[n + 1][m], ("h", n, m)
                # k_n = z(t g_{n+1} + h_{n+1} + k_{n+1})
                assert k[n][m + 1] == t * g[n + 1][m] + h[n + 1][m] + k[n + 1][m], ("k", n, m)
            assert f[n][0] == (TPoly(1) if n == 0 else TPoly())

    def test_g_level0_matches_boundary_constant(self):
        from skewdyck.kernel import GFMode, boundary_constants

        g0 = boundary_constants(10, GFMode.UNIVARIATE)["g0"]
        s = layer_weights("G", 0, 10)
        for m in range(10):
            assert s[m](0) == g0.coeffs[m]
