//! Fundamental identifiers and geometry for 2D-mesh networks.

/// Index of a network node (router/terminal) in row-major order:
/// `id = y * k + x` for a `k x k` mesh.
pub type NodeId = usize;

/// A position in the mesh. `x` is the column (grows eastward), `y` is the
/// row (grows southward; row 0 is the top of the chip as drawn in the
/// paper's Figure 3).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Coord {
    /// Column index (0-based, grows eastward).
    pub x: u16,
    /// Row index (0-based, grows southward).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate from column and row indices.
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance between two coordinates (the minimal hop count
    /// between the corresponding routers in a mesh).
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }

    /// `true` if the two coordinates share a row.
    pub fn same_row(self, other: Coord) -> bool {
        self.y == other.y
    }

    /// `true` if the two coordinates share a column.
    pub fn same_col(self, other: Coord) -> bool {
        self.x == other.x
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// One of the four mesh directions.
///
/// The numeric values double as port indices: direction ports of a router
/// are numbered `0..4` in the order north, east, south, west.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Direction {
    /// Toward row 0 (up in the paper's figures).
    North = 0,
    /// Toward larger column indices.
    East = 1,
    /// Toward larger row indices.
    South = 2,
    /// Toward column 0.
    West = 3,
}

impl Direction {
    /// All four directions in port-index order.
    pub const ALL: [Direction; 4] =
        [Direction::North, Direction::East, Direction::South, Direction::West];

    /// The opposite direction (`North <-> South`, `East <-> West`).
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// Port index of this direction (`0..4`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Direction::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 4`.
    pub fn from_index(idx: usize) -> Direction {
        Self::ALL[idx]
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        let a = Coord::new(0, 0);
        let b = Coord::new(3, 2);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn direction_opposites_are_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn direction_index_roundtrip() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    fn same_row_col() {
        assert!(Coord::new(1, 2).same_row(Coord::new(4, 2)));
        assert!(!Coord::new(1, 2).same_row(Coord::new(1, 3)));
        assert!(Coord::new(1, 2).same_col(Coord::new(1, 5)));
    }
}
