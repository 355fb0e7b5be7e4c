//! Data items and catalogs.

use std::fmt;

use omn_contacts::{ContactTrace, NodeId};
use omn_sim::{RngFactory, SimDuration};
use rand::Rng;

/// Identifier of a data item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataItemId(pub u32);

impl DataItemId {
    /// The id as a `usize` index into catalog-ordered vectors.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DataItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A data item owned by a source node.
///
/// The source refreshes the item every `refresh_period` (producing a new
/// version); a cached copy older than `lifetime` is expired regardless of
/// version (the paper's "subject to expiration").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataItem {
    id: DataItemId,
    source: NodeId,
    size: u64,
    refresh_period: SimDuration,
    lifetime: SimDuration,
}

impl DataItem {
    /// Creates a data item.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`, `refresh_period` is zero, or `lifetime` is
    /// zero.
    #[must_use]
    pub fn new(
        id: DataItemId,
        source: NodeId,
        size: u64,
        refresh_period: SimDuration,
        lifetime: SimDuration,
    ) -> DataItem {
        assert!(size > 0, "DataItem: zero size");
        assert!(!refresh_period.is_zero(), "DataItem: zero refresh period");
        assert!(!lifetime.is_zero(), "DataItem: zero lifetime");
        DataItem {
            id,
            source,
            size,
            refresh_period,
            lifetime,
        }
    }

    /// The item id.
    #[must_use]
    pub fn id(&self) -> DataItemId {
        self.id
    }

    /// The owning source node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Payload size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// How often the source produces a new version.
    #[must_use]
    pub fn refresh_period(&self) -> SimDuration {
        self.refresh_period
    }

    /// Maximum age before a cached copy expires.
    #[must_use]
    pub fn lifetime(&self) -> SimDuration {
        self.lifetime
    }
}

/// A catalog of data items, indexed densely by [`DataItemId`].
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    items: Vec<DataItem>,
}

impl Catalog {
    /// Builds a catalog from items whose ids must be dense `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if ids are not exactly `0..len` in order, or the catalog is
    /// empty.
    #[must_use]
    pub fn new(items: Vec<DataItem>) -> Catalog {
        assert!(!items.is_empty(), "Catalog: empty");
        for (i, item) in items.iter().enumerate() {
            assert_eq!(
                item.id().index(),
                i,
                "Catalog: ids must be dense and ordered"
            );
        }
        Catalog { items }
    }

    /// Generates `count` items with random distinct-ish sources drawn from
    /// the trace's nodes, uniform size 1 KiB, the given refresh period, and
    /// lifetime equal to twice the refresh period.
    ///
    /// Deterministic given the factory (stream `"catalog"`).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn uniform(
        trace: &ContactTrace,
        count: usize,
        refresh_period: SimDuration,
        factory: &RngFactory,
    ) -> Catalog {
        assert!(count > 0, "Catalog::uniform: zero count");
        let mut rng = factory.stream("catalog");
        let n = trace.node_count() as u32;
        let items = (0..count)
            .map(|i| {
                DataItem::new(
                    DataItemId(i as u32),
                    NodeId(rng.gen_range(0..n)),
                    1024,
                    refresh_period,
                    refresh_period * 2.0,
                )
            })
            .collect();
        Catalog { items }
    }

    /// The item with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn item(&self, id: DataItemId) -> &DataItem {
        &self.items[id.index()]
    }

    /// All items in id order.
    #[must_use]
    pub fn items(&self) -> &[DataItem] {
        &self.items
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Always false: catalogs are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over item ids.
    pub fn ids(&self) -> impl Iterator<Item = DataItemId> + '_ {
        (0..self.items.len() as u32).map(DataItemId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omn_contacts::TraceBuilder;
    use omn_sim::SimTime;

    fn item(id: u32) -> DataItem {
        DataItem::new(
            DataItemId(id),
            NodeId(0),
            100,
            SimDuration::from_secs(60.0),
            SimDuration::from_secs(120.0),
        )
    }

    #[test]
    fn item_accessors() {
        let d = item(3);
        assert_eq!(d.id(), DataItemId(3));
        assert_eq!(d.source(), NodeId(0));
        assert_eq!(d.size(), 100);
        assert_eq!(d.refresh_period(), SimDuration::from_secs(60.0));
        assert_eq!(d.lifetime(), SimDuration::from_secs(120.0));
        assert_eq!(d.id().to_string(), "d3");
    }

    #[test]
    fn catalog_dense_ids() {
        let c = Catalog::new(vec![item(0), item(1), item(2)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.item(DataItemId(1)).id(), DataItemId(1));
        assert_eq!(c.ids().count(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn catalog_rejects_sparse_ids() {
        let _ = Catalog::new(vec![item(0), item(2)]);
    }

    #[test]
    fn uniform_catalog_sources_in_range() {
        let trace = TraceBuilder::new(7)
            .span(SimTime::from_secs(100.0))
            .build()
            .unwrap();
        let c = Catalog::uniform(
            &trace,
            12,
            SimDuration::from_secs(60.0),
            &RngFactory::new(1),
        );
        assert_eq!(c.len(), 12);
        for d in c.items() {
            assert!(d.source().index() < 7);
            assert_eq!(d.lifetime(), SimDuration::from_secs(120.0));
        }
        // Deterministic.
        let c2 = Catalog::uniform(
            &trace,
            12,
            SimDuration::from_secs(60.0),
            &RngFactory::new(1),
        );
        assert_eq!(c, c2);
    }

    #[test]
    #[should_panic(expected = "zero refresh period")]
    fn item_rejects_zero_period() {
        let _ = DataItem::new(
            DataItemId(0),
            NodeId(0),
            1,
            SimDuration::ZERO,
            SimDuration::from_secs(1.0),
        );
    }
}
