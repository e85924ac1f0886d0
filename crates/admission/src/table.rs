//! The configured routing table.
//!
//! Configuration (Section 5) fixes one route per (source, destination,
//! class); run-time admission only ever looks routes up. The table is a
//! dense `(src, dst, class) → route id` index over one route arena: a
//! lookup is two bounds checks, one index load and one slice of the
//! arena — no hashing — and an admitted flow can name its route by its
//! `u32` id instead of copying the servers (see
//! [`FlowHandle`](crate::FlowHandle)).

use uba_graph::{NodeId, Path};
use uba_traffic::ClassId;

/// Index slot with no route installed.
const NO_ROUTE: u32 = u32::MAX;

/// Immutable route lookup built at configuration time.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    /// Node dimension of the index (`src` and `dst` are both `< nodes`).
    nodes: usize,
    /// Class dimension of the index.
    classes: usize,
    /// `(src · nodes + dst) · classes + class` → route id, or
    /// [`NO_ROUTE`].
    index: Vec<u32>,
    /// Route `id` is `servers[starts[id]..starts[id + 1]]`.
    starts: Vec<u32>,
    /// Every installed route's server indices, back to back. A
    /// re-insert appends the new route and leaves the old one in place
    /// unreferenced: the table is built once, so the dead slots cost a
    /// few words and ids stay stable.
    servers: Vec<u32>,
    /// Keys with a route installed.
    len: usize,
}

impl RoutingTable {
    /// An empty table; the index grows as routes name higher node ids
    /// or classes.
    pub fn new() -> Self {
        Self {
            nodes: 0,
            classes: 0,
            index: Vec::new(),
            starts: vec![0],
            servers: Vec::new(),
            len: 0,
        }
    }

    /// An empty table whose index already covers `nodes` routers and one
    /// class, so building it from a configuration over `nodes` routers
    /// never re-indexes.
    pub fn with_nodes(nodes: usize) -> Self {
        let mut t = Self::new();
        t.resize(nodes, 1);
        t
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Installs a route for `(src, dst, class)`; replaces and returns any
    /// previous route.
    pub fn insert(&mut self, class: ClassId, path: &Path) -> Option<Box<[u32]>> {
        let src = path.source().expect("route must be non-empty");
        let dst = path.target().expect("route must be non-empty");
        assert_ne!(src, dst, "route must connect distinct routers");
        let need = src.0.max(dst.0) as usize + 1;
        if need > self.nodes || class.index() >= self.classes {
            self.resize(need.max(self.nodes), (class.index() + 1).max(self.classes));
        }
        let id = u32::try_from(self.starts.len() - 1).expect("route ids fit in u32");
        assert_ne!(id, NO_ROUTE, "route ids fit in u32");
        self.servers.extend(path.edges.iter().map(|e| e.0));
        let end = u32::try_from(self.servers.len()).expect("route arena fits in u32");
        self.starts.push(end);
        let slot = self.slot(src, dst, class).expect("index covers the key");
        let old = std::mem::replace(&mut self.index[slot], id);
        if old == NO_ROUTE {
            self.len += 1;
            None
        } else {
            Some(self.route_at(old).into())
        }
    }

    /// Installs routes for many `(pair, path)` results of a selection.
    pub fn insert_all<'a>(&mut self, class: ClassId, paths: impl IntoIterator<Item = &'a Path>) {
        for p in paths {
            self.insert(class, p);
        }
    }

    /// The configured route for `(src, dst, class)`, as server indices.
    /// Out-of-range node ids and classes have no route.
    #[inline]
    pub fn route(&self, src: NodeId, dst: NodeId, class: ClassId) -> Option<&[u32]> {
        self.route_id(src, dst, class).map(|id| self.route_at(id))
    }

    /// The id of the configured route for `(src, dst, class)` — a stable
    /// name for it within this table (see [`route_at`](Self::route_at)).
    #[inline]
    pub(crate) fn route_id(&self, src: NodeId, dst: NodeId, class: ClassId) -> Option<u32> {
        let id = self.index[self.slot(src, dst, class)?];
        (id != NO_ROUTE).then_some(id)
    }

    /// The servers of route `id`, as returned by
    /// [`route_id`](Self::route_id). Panics on an id this table never
    /// issued.
    #[inline]
    pub(crate) fn route_at(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.servers[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    #[inline]
    fn slot(&self, src: NodeId, dst: NodeId, class: ClassId) -> Option<usize> {
        let (s, d, c) = (src.0 as usize, dst.0 as usize, class.index());
        (s < self.nodes && d < self.nodes && c < self.classes)
            .then(|| (s * self.nodes + d) * self.classes + c)
    }

    /// Re-lays the index out for `nodes × nodes × classes`, keeping every
    /// installed route under its key.
    fn resize(&mut self, nodes: usize, classes: usize) {
        let mut index = vec![NO_ROUTE; nodes * nodes * classes];
        for s in 0..self.nodes {
            for d in 0..self.nodes {
                for c in 0..self.classes {
                    let old = (s * self.nodes + d) * self.classes + c;
                    index[(s * nodes + d) * classes + c] = self.index[old];
                }
            }
        }
        self.index = index;
        self.nodes = nodes;
        self.classes = classes;
    }
}

impl Default for RoutingTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_graph::{Digraph, EdgeId};

    fn path(g: &Digraph, edges: &[EdgeId]) -> Path {
        Path::from_edges(g, edges.to_vec())
    }

    fn line3() -> (Digraph, Path) {
        let mut g = Digraph::with_nodes(3);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let p = path(&g, &[e01, e12]);
        (g, p)
    }

    #[test]
    fn insert_and_lookup() {
        let (_, p) = line3();
        let mut t = RoutingTable::new();
        t.insert(ClassId(0), &p);
        let r = t.route(NodeId(0), NodeId(2), ClassId(0)).unwrap();
        assert_eq!(r, &[0, 2]);
        assert!(t.route(NodeId(2), NodeId(0), ClassId(0)).is_none());
        assert!(t.route(NodeId(0), NodeId(2), ClassId(1)).is_none());
        assert_eq!(t.len(), 1);
        let id = t.route_id(NodeId(0), NodeId(2), ClassId(0)).unwrap();
        assert_eq!(t.route_at(id), &[0, 2]);
    }

    #[test]
    fn reinsert_replaces() {
        let (g, p) = line3();
        let mut t = RoutingTable::new();
        t.insert(ClassId(0), &p);
        // A different route for the same pair (direct edge 0->2 does not
        // exist; reuse the same path object to exercise replacement).
        let old = t.insert(ClassId(0), &path(&g, &p.edges));
        assert!(old.is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_installs_the_new_route_and_keeps_len() {
        let mut g = Digraph::with_nodes(3);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let (e02, _) = g.add_link(NodeId(0), NodeId(2), 1.0);
        let mut t = RoutingTable::with_nodes(3);
        assert_eq!(t.insert(ClassId(0), &path(&g, &[e01, e12])), None);
        let old = t.insert(ClassId(0), &path(&g, &[e02]));
        assert_eq!(old.as_deref(), Some(&[e01.0, e12.0][..]));
        assert_eq!(
            t.route(NodeId(0), NodeId(2), ClassId(0)),
            Some(&[e02.0][..])
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn out_of_range_keys_have_no_route() {
        let (_, p) = line3();
        let mut t = RoutingTable::with_nodes(3);
        t.insert(ClassId(0), &p);
        assert_eq!(t.route(NodeId(3), NodeId(2), ClassId(0)), None);
        assert_eq!(t.route(NodeId(0), NodeId(3), ClassId(0)), None);
        assert_eq!(t.route(NodeId(0), NodeId(2), ClassId(1)), None);
        assert_eq!(t.route(NodeId(u32::MAX), NodeId(2), ClassId(0)), None);
        assert_eq!(t.route(NodeId(0), NodeId(u32::MAX), ClassId(0)), None);
        assert_eq!(t.route(NodeId(0), NodeId(2), ClassId(usize::MAX)), None);
        assert_eq!(
            RoutingTable::new().route(NodeId(0), NodeId(0), ClassId(0)),
            None
        );
    }

    #[test]
    fn growing_the_index_keeps_earlier_routes() {
        let mut g = Digraph::with_nodes(6);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e45, _) = g.add_link(NodeId(4), NodeId(5), 1.0);
        let (e23, _) = g.add_link(NodeId(2), NodeId(3), 1.0);
        let mut t = RoutingTable::new();
        t.insert(ClassId(0), &path(&g, &[e01]));
        // Higher node ids, then a higher class: both re-index.
        t.insert(ClassId(0), &path(&g, &[e45]));
        t.insert(ClassId(2), &path(&g, &[e23]));
        assert_eq!(
            t.route(NodeId(0), NodeId(1), ClassId(0)),
            Some(&[e01.0][..])
        );
        assert_eq!(
            t.route(NodeId(4), NodeId(5), ClassId(0)),
            Some(&[e45.0][..])
        );
        assert_eq!(
            t.route(NodeId(2), NodeId(3), ClassId(2)),
            Some(&[e23.0][..])
        );
        assert_eq!(t.route(NodeId(2), NodeId(3), ClassId(0)), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_route_rejected() {
        let mut t = RoutingTable::new();
        t.insert(ClassId(0), &Path::default());
    }
}
