//! Property tests for the shard-merge laws.
//!
//! The sharded semester driver folds per-shard results with three
//! merges: the canonical record order for usage records (one
//! [`Ledger::sort_canonical`] of every shard's records in memory, a
//! [`StreamMerge`] over canonically sorted runs on disk), fieldwise
//! [`FaultStats::merge`] for failure counters, and rollups rebuilt from
//! the canonically merged ledger. Each law must be associative and
//! invariant to shard order, or a parallel semester could not promise
//! byte-identical outcomes at any thread count. These properties pin
//! exactly that, on arbitrary synthetic fragments.

use opml_faults::FaultStats;
use opml_metering::attribution::student_name;
use opml_metering::rollup::{AssignmentRollup, PerStudentUsage};
use opml_simkernel::SimTime;
use opml_testbed::flavor::FlavorId;
use opml_testbed::ledger::{Ledger, StreamMerge, UsageKind, UsageRecord};
use proptest::prelude::*;

/// Deterministically build one synthetic record from drawn scalars.
fn record(student: u32, kind_sel: usize, start: u64, len: u64) -> UsageRecord {
    let flavors = [
        FlavorId::M1Small,
        FlavorId::M1Medium,
        FlavorId::GpuV100,
        FlavorId::ComputeGigaio,
    ];
    let tags = ["lab1", "lab2", "lab7", "proj"];
    let kind = match kind_sel % 6 {
        0 | 1 => UsageKind::Instance {
            flavor: flavors[kind_sel % flavors.len()],
            auto_terminated: kind_sel.is_multiple_of(2),
        },
        2 => UsageKind::FloatingIp,
        3 => UsageKind::Volume {
            size_gb: 10 + (start % 50),
        },
        4 => UsageKind::ObjectStorage {
            gb: (start % 17) as f64 + 0.5,
        },
        _ => UsageKind::Instance {
            flavor: flavors[(kind_sel / 2) % flavors.len()],
            auto_terminated: false,
        },
    };
    UsageRecord {
        name: student_name(tags[kind_sel % tags.len()], student).into(),
        kind,
        start: SimTime(start * 60),
        end: SimTime((start + len) * 60),
    }
}

/// Split drawn records into `shards` fragments by round-robin.
fn fragments(draws: &[(u32, usize, u64, u64)], shards: usize) -> Vec<Ledger> {
    let mut frags = vec![Ledger::new(); shards.max(1)];
    for (i, &(student, kind_sel, start, len)) in draws.iter().enumerate() {
        frags[i % shards.max(1)].push(record(student, kind_sel, start, len));
    }
    frags
}

/// Merge fragments as a sharded semester does: sort each one
/// canonically, then drain one [`StreamMerge`] over them in fragment
/// order.
fn merge(frags: impl IntoIterator<Item = Ledger>) -> Ledger {
    let sources: Vec<_> = frags
        .into_iter()
        .map(|mut frag| {
            frag.sort_canonical();
            frag.into_iter()
        })
        .collect();
    let Ok(mut merge) = StreamMerge::new(sources);
    let mut merged = Ledger::new();
    while let Ok(Some(rec)) = merge.next() {
        merged.push(rec);
    }
    merged
}

fn ledger_bytes(l: &Ledger) -> String {
    serde_json::to_string(l).expect("ledger serializes")
}

proptest! {
    /// Merging ledger fragments is invariant to fragment order and to
    /// grouping (associativity): any shard schedule serializes to the
    /// same bytes.
    #[test]
    fn ledger_merge_is_order_and_grouping_invariant(
        draws in prop::collection::vec((0u32..40, 0usize..12, 0u64..2000, 1u64..200), 1..80),
        shards in 1usize..6,
    ) {
        let frags = fragments(&draws, shards);

        // Fragment order: forward vs reversed.
        let forward = merge(frags.clone());
        let mut reversed_frags = frags.clone();
        reversed_frags.reverse();
        let reversed = merge(reversed_frags);
        prop_assert_eq!(ledger_bytes(&forward), ledger_bytes(&reversed));

        // Grouping: fold pairwise-left vs merge-all-at-once.
        let mut left = Ledger::new();
        for frag in frags {
            left = merge([left, frag]);
        }
        prop_assert_eq!(ledger_bytes(&forward), ledger_bytes(&left));
    }

    /// Fieldwise FaultStats merge is associative and commutative with
    /// the default value as identity.
    #[test]
    fn fault_stats_merge_is_associative_and_commutative(
        a in prop::collection::vec(0u64..1_000_000, 7),
        b in prop::collection::vec(0u64..1_000_000, 7),
        c in prop::collection::vec(0u64..1_000_000, 7),
    ) {
        let stats = |v: &[u64]| FaultStats {
            injected: v[0],
            retries: v[1],
            abandoned: v[2],
            leaked: v[3],
            requeued: v[4],
            degraded: v[5],
            breaker_trips: v[6],
        };
        let (a, b, c) = (stats(&a), stats(&b), stats(&c));

        let mut ab_c = a;
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);

        let mut id = a;
        id.merge(&FaultStats::default());
        prop_assert_eq!(id, a);
    }

    /// Rollups built over the canonically merged ledger are invariant to
    /// how the records were fragmented across shards: same bytes for the
    /// assignment rollup and the per-student usage.
    #[test]
    fn rollups_from_merged_ledger_are_shard_order_invariant(
        draws in prop::collection::vec((0u32..30, 0usize..12, 0u64..2000, 1u64..150), 1..60),
        shards in 1usize..5,
    ) {
        let frags = fragments(&draws, shards);
        let mut rotated = frags.clone();
        rotated.rotate_left(1);

        let merged_a = merge(frags);
        let merged_b = merge(rotated);

        let rollup_a = AssignmentRollup::from_ledger(&merged_a, 191);
        let rollup_b = AssignmentRollup::from_ledger(&merged_b, 191);
        prop_assert_eq!(
            serde_json::to_string(&rollup_a).expect("serialize rollup"),
            serde_json::to_string(&rollup_b).expect("serialize rollup")
        );

        let per_a = PerStudentUsage::from_ledger(&merged_a);
        let per_b = PerStudentUsage::from_ledger(&merged_b);
        prop_assert_eq!(
            serde_json::to_string(&per_a).expect("serialize per-student"),
            serde_json::to_string(&per_b).expect("serialize per-student")
        );
    }
}

proptest! {
    /// The k-way merge over sorted sources is record-for-record
    /// identical to concatenating the fragments and sorting — the law
    /// that lets the semester driver merge shard ledgers as disk runs
    /// without perturbing a single byte of the canonical ledger.
    #[test]
    fn stream_merge_equals_in_memory_merge(
        draws in prop::collection::vec((0u32..40, 0usize..12, 0u64..2000, 1u64..200), 1..80),
        shards in 1usize..6,
    ) {
        let frags = fragments(&draws, shards);
        let mut reference = Ledger::new();
        for frag in &frags {
            for rec in frag.records() {
                reference.push(rec.clone());
            }
        }
        reference.sort_canonical();
        prop_assert_eq!(ledger_bytes(&merge(frags)), ledger_bytes(&reference));
    }

    /// Concatenating the fragments in any order and sorting once
    /// serializes like the forward [`StreamMerge`], even when records
    /// tie exactly across fragments — the law that lets the in-memory
    /// store append shard ledgers in whatever order the shards finish.
    #[test]
    fn sorted_concatenation_in_any_order_equals_the_stream_merge(
        draws in prop::collection::vec((0u32..40, 0usize..12, 0u64..2000, 1u64..200), 1..80),
        shards in 2usize..6,
        copies in prop::collection::vec(0usize..80, 1..20),
        keys in prop::collection::vec(0u64..1000, 5),
    ) {
        let mut frags = fragments(&draws, shards);
        // Draw `i` lives in fragment `i % shards`; a verbatim copy in the
        // next fragment ties with it on every field.
        for &copy in &copies {
            let i = copy % draws.len();
            let (student, kind_sel, start, len) = draws[i];
            frags[(i + 1) % shards].push(record(student, kind_sel, start, len));
        }
        let forward = merge(frags.clone());

        // Append order: fragments ranked by a drawn key.
        let mut order: Vec<usize> = (0..shards).collect();
        order.sort_by_key(|&f| (keys[f], f));
        let mut concatenated = Ledger::new();
        for f in order {
            concatenated.append(frags[f].clone());
        }
        concatenated.sort_canonical();
        prop_assert_eq!(ledger_bytes(&concatenated), ledger_bytes(&forward));
    }
}
