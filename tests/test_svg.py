import io
import re

import numpy as np
import pytest

from stresslayout import grid_graph, path_graph, render_svg


def render_to_text(coords, graph):
    out = io.StringIO()
    render_svg(coords, graph, out)
    return out.getvalue()


class TestRenderSvg:
    def test_single_edge_element_counts(self):
        text = render_to_text([[0.0, 0.0], [1.0, 0.0]], path_graph(2))
        assert text.count("<line") == 1
        assert text.count("<circle") == 2

    def test_grid_element_counts(self):
        g = grid_graph(3, 3)
        text = render_to_text(np.random.default_rng(0).random((9, 2)), g)
        assert text.count("<line") == g.m
        assert text.count("<circle") == g.n

    def test_byte_identical_output(self, tmp_path):
        layout = np.random.default_rng(1).random((9, 2)) * 10.0
        g = grid_graph(3, 3)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(layout, g, a)
        render_svg(layout, g, b)
        assert a.read_bytes() == b.read_bytes()

    def test_coordinates_fit_viewport_margin(self):
        layout = np.random.default_rng(2).random((9, 2)) * 100.0
        text = render_to_text(layout, grid_graph(3, 3))
        values = [
            float(v)
            for attr in ("cx", "cy", "x1", "x2", "y1", "y2")
            for v in re.findall(rf'{attr}="([-0-9.]+)"', text)
        ]
        assert values
        assert min(values) >= 40.0 - 1e-6  # 5% margin of the 800-unit viewport
        assert max(values) <= 760.0 + 1e-6

    def test_degenerate_layouts_render(self):
        # single point and collinear layouts must not divide by zero
        assert "<circle" in render_to_text([[5.0, 5.0]], path_graph(1))
        text = render_to_text([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]], path_graph(3))
        assert text.count("<circle") == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            render_to_text([[0.0, 0.0]], path_graph(2))

    def test_exact_text_of_fixed_layout(self):
        # pins the whole document, number formatting included
        text = render_to_text([[0.0, 0.0], [1.0, 1.0], [7.0, 2.0]], path_graph(3))
        assert text == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="800" '
            'viewBox="0 0 800 800">\n'
            '<rect width="800" height="800" fill="white"/>\n'
            '<g stroke="#444444" stroke-width="1">\n'
            '<line x1="40.0000" y1="502.8571" x2="142.8571" y2="400.0000"/>\n'
            '<line x1="142.8571" y1="400.0000" x2="760.0000" y2="297.1429"/>\n'
            '</g>\n'
            '<g fill="#1f4e99">\n'
            '<circle cx="40.0000" cy="502.8571" r="3.0"/>\n'
            '<circle cx="142.8571" cy="400.0000" r="3.0"/>\n'
            '<circle cx="760.0000" cy="297.1429" r="3.0"/>\n'
            '</g>\n'
            '</svg>\n'
        )
