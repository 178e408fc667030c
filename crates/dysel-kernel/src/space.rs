//! Memory spaces a buffer can be bound to.

use std::fmt;

/// The memory space a buffer argument is placed in for a given variant.
///
/// Data-placement optimizations (PORPLE, ref. 7; Jang et al., ref. 15 in the paper)
/// are expressed as kernel variants that bind the same logical buffers to
/// different spaces; the device timing models price accesses per space.
///
/// # Example
///
/// ```
/// use dysel_kernel::Space;
/// assert!(Space::Texture.is_cached_readonly());
/// assert_eq!(Space::default(), Space::Global);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum Space {
    /// Off-chip global memory (default placement).
    #[default]
    Global,
    /// Read-only texture / `__ldg` path with its own small cache.
    Texture,
    /// Constant memory: broadcast-efficient, serializes divergent reads.
    Constant,
    /// On-chip scratchpad (OpenCL local / CUDA shared memory). Per
    /// work-group; counted against occupancy by the GPU model.
    Scratchpad,
}

impl Space {
    /// Whether reads from this space go through a dedicated read-only cache.
    pub fn is_cached_readonly(self) -> bool {
        matches!(self, Space::Texture | Space::Constant)
    }

    /// Whether stores to this space are permitted.
    pub fn is_writable(self) -> bool {
        matches!(self, Space::Global | Space::Scratchpad)
    }

    /// All spaces, in a stable order (useful for placement sweeps).
    pub fn all() -> [Space; 4] {
        [
            Space::Global,
            Space::Texture,
            Space::Constant,
            Space::Scratchpad,
        ]
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Space::Global => "global",
            Space::Texture => "texture",
            Space::Constant => "constant",
            Space::Scratchpad => "scratchpad",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Space::Global.to_string(), "global");
        assert_eq!(Space::Texture.to_string(), "texture");
        assert_eq!(Space::Constant.to_string(), "constant");
        assert_eq!(Space::Scratchpad.to_string(), "scratchpad");
    }

    #[test]
    fn writability() {
        assert!(Space::Global.is_writable());
        assert!(Space::Scratchpad.is_writable());
        assert!(!Space::Texture.is_writable());
        assert!(!Space::Constant.is_writable());
    }

    #[test]
    fn all_covers_every_variant() {
        let all = Space::all();
        assert_eq!(all.len(), 4);
        for s in all {
            // round-trips through Display without panicking
            let _ = s.to_string();
        }
    }
}
