"""Unit tests for the threadblock geometry of a launch."""

import pytest

from repro.gpu.launch import PAPER_TILE, TiledLaunch


class TestGrid:
    def test_paper_tile_is_1024_threads(self):
        launch = TiledLaunch((246, 994, 750))
        assert launch.threads_per_block == 1024
        assert launch.tile_xyz == PAPER_TILE == (16, 8, 8)

    def test_grid_dims_ceil(self):
        launch = TiledLaunch((10, 9, 17), (16, 8, 8))
        assert launch.grid_dims == (2, 2, 2)
        assert launch.num_blocks == 8

    def test_exact_fit(self):
        launch = TiledLaunch((8, 8, 16), (16, 8, 8))
        assert launch.grid_dims == (1, 1, 1)

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError, match="1024"):
            TiledLaunch((4, 4, 4), (32, 8, 8))

    def test_rejects_zero_tile(self):
        with pytest.raises(ValueError):
            TiledLaunch((4, 4, 4), (0, 8, 8))
