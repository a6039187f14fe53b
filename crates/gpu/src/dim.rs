//! Launch geometry: grids, threadblocks, warps.

use gpm_sim::PersistencyModel;

/// Threads per warp (lockstep SIMD group).
pub const WARP_SIZE: u32 = 32;

/// A 1-D kernel launch configuration (`<<<grid, block>>>` in CUDA).
///
/// The workloads in this reproduction are naturally 1-D (or linearized by
/// the kernel itself), so the engine keeps geometry one-dimensional.
///
/// # Examples
///
/// ```
/// use gpm_gpu::LaunchConfig;
/// let cfg = LaunchConfig::for_elements(1000, 256);
/// assert_eq!(cfg.grid, 4);
/// assert_eq!(cfg.block, 256);
/// assert_eq!(cfg.total_threads(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of threadblocks in the grid.
    pub grid: u32,
    /// Threads per threadblock.
    pub block: u32,
    /// GPU persistency model for this launch (see [`PersistencyModel`]);
    /// [`PersistencyModel::Strict`] unless pinned. A *simulated-semantics*
    /// setting: epoch launches defer fence drains to the kernel boundary,
    /// changing both timing and crash vulnerability windows.
    pub persistency: PersistencyModel,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `block` exceeds CUDA's 1024
    /// threads-per-block limit.
    pub fn new(grid: u32, block: u32) -> LaunchConfig {
        assert!(grid > 0, "grid dimension must be non-zero");
        assert!(block > 0, "block dimension must be non-zero");
        assert!(block <= 1024, "at most 1024 threads per block");
        LaunchConfig {
            grid,
            block,
            persistency: PersistencyModel::Strict,
        }
    }

    /// Pins the persistency model for this launch.
    #[must_use]
    pub fn with_persistency(mut self, model: PersistencyModel) -> LaunchConfig {
        self.persistency = model;
        self
    }

    /// Smallest grid of `block`-sized blocks covering `elements` threads.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is zero or `block` is invalid.
    pub fn for_elements(elements: u64, block: u32) -> LaunchConfig {
        assert!(elements > 0, "cannot launch zero elements");
        let grid = elements.div_ceil(block as u64);
        LaunchConfig::new(u32::try_from(grid).expect("grid too large"), block)
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid as u64 * self.block as u64
    }

    /// Warps per threadblock.
    pub fn warps_per_block(&self) -> u32 {
        self.block.div_ceil(WARP_SIZE)
    }

    /// Total warps in the launch.
    pub fn total_warps(&self) -> u64 {
        self.grid as u64 * self.warps_per_block() as u64
    }
}

/// Identity of one thread within a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId {
    /// Block index within the grid.
    pub block: u32,
    /// Thread index within the block.
    pub thread: u32,
}

impl ThreadId {
    /// Globally unique linear thread index.
    pub fn global(&self, cfg: &LaunchConfig) -> u64 {
        self.block as u64 * cfg.block as u64 + self.thread as u64
    }

    /// Lane index within the warp (0..32).
    pub fn lane(&self) -> u32 {
        self.thread % WARP_SIZE
    }

    /// Warp index within the block.
    pub fn warp_in_block(&self) -> u32 {
        self.thread / WARP_SIZE
    }
}

/// A 2-D launch shape, linearized onto the engine's 1-D grid
/// (row-major): convenience for stencil kernels like Hotspot and SRAD whose
/// CUDA versions launch 2-D grids.
///
/// # Examples
///
/// ```
/// use gpm_gpu::{Grid2, LaunchConfig};
/// let g = Grid2::new(100, 60, 16, 16);
/// let cfg: LaunchConfig = g.launch();
/// assert!(cfg.total_threads() >= 100 * 60);
/// // A linear thread id maps back to (x, y):
/// let (x, y) = g.coords(16 * 16 + 3); // second block, thread 3
/// assert!(x < 112 && y < 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2 {
    /// Logical width in elements.
    pub width: u64,
    /// Logical height in elements.
    pub height: u64,
    /// Block width (threads).
    pub block_x: u32,
    /// Block height (threads).
    pub block_y: u32,
}

impl Grid2 {
    /// Creates a 2-D shape covering `width × height` elements with
    /// `block_x × block_y` blocks.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the block exceeds 1024 threads.
    pub fn new(width: u64, height: u64, block_x: u32, block_y: u32) -> Grid2 {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        assert!(
            block_x > 0 && block_y > 0,
            "block dimensions must be non-zero"
        );
        assert!(block_x * block_y <= 1024, "at most 1024 threads per block");
        Grid2 {
            width,
            height,
            block_x,
            block_y,
        }
    }

    /// Blocks along x.
    pub fn blocks_x(&self) -> u64 {
        self.width.div_ceil(self.block_x as u64)
    }

    /// Blocks along y.
    pub fn blocks_y(&self) -> u64 {
        self.height.div_ceil(self.block_y as u64)
    }

    /// The linearized launch configuration.
    ///
    /// # Panics
    ///
    /// Panics if the grid exceeds `u32` blocks.
    pub fn launch(&self) -> LaunchConfig {
        let blocks = self.blocks_x() * self.blocks_y();
        LaunchConfig::new(
            u32::try_from(blocks).expect("grid too large"),
            self.block_x * self.block_y,
        )
    }

    /// Maps a linear `global_id` back to `(x, y)` element coordinates.
    /// Coordinates may exceed `width`/`height` for padding threads — guard
    /// with [`Grid2::in_bounds`].
    pub fn coords(&self, global_id: u64) -> (u64, u64) {
        let threads_per_block = (self.block_x * self.block_y) as u64;
        let block = global_id / threads_per_block;
        let t = global_id % threads_per_block;
        let (bx, by) = (block % self.blocks_x(), block / self.blocks_x());
        let (tx, ty) = (t % self.block_x as u64, t / self.block_x as u64);
        (bx * self.block_x as u64 + tx, by * self.block_y as u64 + ty)
    }

    /// Whether coordinates fall inside the logical grid.
    pub fn in_bounds(&self, x: u64, y: u64) -> bool {
        x < self.width && y < self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_elements_covers() {
        let cfg = LaunchConfig::for_elements(1, 32);
        assert_eq!((cfg.grid, cfg.block), (1, 32));
        let cfg = LaunchConfig::for_elements(33, 32);
        assert_eq!(cfg.grid, 2);
        assert!(cfg.total_threads() >= 33);
    }

    #[test]
    fn warp_accounting() {
        let cfg = LaunchConfig::new(3, 96);
        assert_eq!(cfg.warps_per_block(), 3);
        assert_eq!(cfg.total_warps(), 9);
        let cfg = LaunchConfig::new(2, 33);
        assert_eq!(cfg.warps_per_block(), 2);
    }

    #[test]
    fn thread_identity() {
        let cfg = LaunchConfig::new(4, 128);
        let t = ThreadId {
            block: 2,
            thread: 70,
        };
        assert_eq!(t.global(&cfg), 2 * 128 + 70);
        assert_eq!(t.lane(), 6);
        assert_eq!(t.warp_in_block(), 2);
    }

    #[test]
    #[should_panic(expected = "1024")]
    fn block_limit_enforced() {
        LaunchConfig::new(1, 2048);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_grid_rejected() {
        LaunchConfig::new(0, 32);
    }

    #[test]
    fn grid2_covers_every_element_exactly_once() {
        let g = Grid2::new(50, 34, 16, 8);
        let cfg = g.launch();
        let mut seen = std::collections::HashSet::new();
        for gid in 0..cfg.total_threads() {
            let (x, y) = g.coords(gid);
            if g.in_bounds(x, y) {
                assert!(seen.insert((x, y)), "duplicate ({x},{y})");
            }
        }
        assert_eq!(seen.len() as u64, 50 * 34);
    }

    #[test]
    fn grid2_block_geometry() {
        let g = Grid2::new(100, 60, 16, 16);
        assert_eq!(g.blocks_x(), 7);
        assert_eq!(g.blocks_y(), 4);
        assert_eq!(g.launch().grid, 28);
        assert_eq!(g.launch().block, 256);
    }

    #[test]
    #[should_panic(expected = "1024")]
    fn grid2_block_limit() {
        Grid2::new(10, 10, 64, 32);
    }
}
