//! Usage rollups from the ledger.

use crate::attribution::{parse_name, Owner};
use opml_testbed::flavor::FlavorId;
use opml_testbed::ledger::{Ledger, UsageKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Usage of one `(assignment, flavor)` cell — one row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AssignmentUsage {
    /// Assignment tag.
    pub tag: String,
    /// Flavor.
    pub flavor: FlavorId,
    /// Total instance hours.
    pub instance_hours: f64,
    /// Total floating-IP hours attributed to this cell.
    pub fip_hours: f64,
    /// Hours closed by lease auto-termination (bare metal / edge).
    pub auto_terminated_hours: f64,
    /// Distinct owners (students/groups) seen.
    pub owners: usize,
}

/// Per-assignment rollup of a ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AssignmentRollup {
    /// Rows sorted by `(tag, flavor)`.
    pub rows: Vec<AssignmentUsage>,
    /// Enrollment used for per-student normalization.
    pub enrollment: usize,
}

impl AssignmentRollup {
    /// Build from a ledger.
    ///
    /// FIP records carry the deployment name; their flavor is resolved by
    /// finding an instance record whose name starts with the FIP's name
    /// (the deployment's nodes are `"<fip-name>"` or `"<fip-name>-…"`)
    /// — mirroring how the paper's authors joined the two data sources.
    pub fn from_ledger(ledger: &Ledger, enrollment: usize) -> AssignmentRollup {
        assert!(enrollment > 0);
        let fip_flavor = fip_flavors(ledger);
        #[derive(Default)]
        struct Cell {
            instance_hours: f64,
            fip_hours: f64,
            auto_hours: f64,
            owners: BTreeSet<Owner>,
        }
        let mut cells: BTreeMap<(String, FlavorId), Cell> = BTreeMap::new();
        for r in ledger.records() {
            match r.kind {
                UsageKind::Instance {
                    flavor,
                    auto_terminated,
                } => {
                    let a = parse_name(&r.name);
                    let cell = cells.entry((a.tag, flavor)).or_default();
                    cell.instance_hours += r.hours();
                    if auto_terminated {
                        cell.auto_hours += r.hours();
                    }
                    cell.owners.insert(a.owner);
                }
                UsageKind::FloatingIp => {
                    if let Some(flavor) = fip_flavor(&r.name) {
                        let a = parse_name(&r.name);
                        let cell = cells.entry((a.tag, flavor)).or_default();
                        cell.fip_hours += r.hours();
                        cell.owners.insert(a.owner);
                    }
                }
                _ => {}
            }
        }
        let rows = cells
            .into_iter()
            .map(|((tag, flavor), c)| AssignmentUsage {
                tag,
                flavor,
                instance_hours: c.instance_hours,
                fip_hours: c.fip_hours,
                auto_terminated_hours: c.auto_hours,
                owners: c.owners.len(),
            })
            .collect();
        AssignmentRollup { rows, enrollment }
    }

    /// Total instance hours across all rows.
    pub fn total_instance_hours(&self) -> f64 {
        self.rows.iter().map(|r| r.instance_hours).sum()
    }

    /// Rows for one tag.
    pub fn rows_for(&self, tag: &str) -> Vec<&AssignmentUsage> {
        self.rows.iter().filter(|r| r.tag == tag).collect()
    }

    /// Per-student mean hours for a tag (Fig. 1's y-axis).
    pub fn per_student_hours(&self, tag: &str) -> f64 {
        self.rows_for(tag)
            .iter()
            .map(|r| r.instance_hours)
            .sum::<f64>()
            / self.enrollment as f64
    }
}

/// A floating IP's flavor, resolved from the ledger's instance records:
/// the flavor of the first deployment, in name order, whose name is the
/// FIP's name or starts with it (a deployment's nodes are `"<fip-name>"`
/// or `"<fip-name>-…"`).
///
/// The names that start with a given name are one contiguous range of
/// the ordered map, beginning at the first name not below it, so each
/// lookup is one `range` step rather than a scan of every deployment.
fn fip_flavors(ledger: &Ledger) -> impl Fn(&str) -> Option<FlavorId> + '_ {
    let mut deployments: BTreeMap<&str, FlavorId> = BTreeMap::new();
    for r in ledger.records() {
        if let UsageKind::Instance { flavor, .. } = r.kind {
            deployments.entry(r.name.as_str()).or_insert(flavor);
        }
    }
    move |fip| {
        deployments
            .range(fip..)
            .next()
            .filter(|(name, _)| name.starts_with(fip))
            .map(|(_, &flavor)| flavor)
    }
}

/// One student's usage of one `(tag, flavor)` cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudentLabUsage {
    /// Assignment tag.
    pub tag: String,
    /// Flavor.
    pub flavor: FlavorId,
    /// Instance hours.
    pub instance_hours: f64,
    /// FIP hours.
    pub fip_hours: f64,
}

/// Per-student usage breakdown (Fig. 2's input).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerStudentUsage {
    /// `student → usage cells` (students with zero usage are absent).
    /// Ordered map: this struct is serialized, so entry order must not
    /// depend on hasher state.
    pub students: BTreeMap<u32, Vec<StudentLabUsage>>,
}

impl PerStudentUsage {
    /// Build from a ledger (only `Owner::Student` records).
    pub fn from_ledger(ledger: &Ledger) -> PerStudentUsage {
        let fip_flavor = fip_flavors(ledger);
        type Cells = BTreeMap<(String, FlavorId), (f64, f64)>;
        let mut students: BTreeMap<u32, Cells> = BTreeMap::new();
        for r in ledger.records() {
            let a = parse_name(&r.name);
            let Owner::Student(id) = a.owner else {
                continue;
            };
            match r.kind {
                UsageKind::Instance { flavor, .. } => {
                    let e = students
                        .entry(id)
                        .or_default()
                        .entry((a.tag, flavor))
                        .or_insert((0.0, 0.0));
                    e.0 += r.hours();
                }
                UsageKind::FloatingIp => {
                    if let Some(flavor) = fip_flavor(&r.name) {
                        let e = students
                            .entry(id)
                            .or_default()
                            .entry((a.tag, flavor))
                            .or_insert((0.0, 0.0));
                        e.1 += r.hours();
                    }
                }
                _ => {}
            }
        }
        let students = students
            .into_iter()
            .map(|(id, cells)| {
                let rows = cells
                    .into_iter()
                    .map(|((tag, flavor), (ih, fh))| StudentLabUsage {
                        tag,
                        flavor,
                        instance_hours: ih,
                        fip_hours: fh,
                    })
                    .collect();
                (id, rows)
            })
            .collect();
        PerStudentUsage { students }
    }

    /// Hours a student spent on a tag.
    pub fn student_hours(&self, student: u32, tag: &str) -> f64 {
        self.students
            .get(&student)
            .map(|rows| {
                rows.iter()
                    .filter(|r| r.tag == tag)
                    .map(|r| r.instance_hours)
                    .sum()
            })
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_simkernel::SimTime;
    use opml_testbed::ledger::UsageRecord;

    fn t(h: u64) -> SimTime {
        SimTime(h * 60)
    }

    fn ledger_fixture() -> Ledger {
        let mut l = Ledger::new();
        // Student 1: lab2 with 3 m1.medium for 10h + one FIP for 10h.
        for n in 0..3 {
            l.push(UsageRecord {
                name: format!("lab2-s001-node{n}").into(),
                kind: UsageKind::Instance {
                    flavor: FlavorId::M1Medium,
                    auto_terminated: false,
                },
                start: t(0),
                end: t(10),
            });
        }
        l.push(UsageRecord {
            name: "lab2-s001".into(),
            kind: UsageKind::FloatingIp,
            start: t(0),
            end: t(10),
        });
        // Student 2: lab4 multi on v100 for 3h, auto-terminated.
        l.push(UsageRecord {
            name: "lab4-multi-s002".into(),
            kind: UsageKind::Instance {
                flavor: FlavorId::GpuV100,
                auto_terminated: true,
            },
            start: t(0),
            end: t(3),
        });
        l.push(UsageRecord {
            name: "lab4-multi-s002".into(),
            kind: UsageKind::FloatingIp,
            start: t(0),
            end: t(3),
        });
        // A project group's instance.
        l.push(UsageRecord {
            name: "proj-g03-serve".into(),
            kind: UsageKind::Instance {
                flavor: FlavorId::M1Large,
                auto_terminated: false,
            },
            start: t(0),
            end: t(100),
        });
        l
    }

    #[test]
    fn rollup_cells() {
        let rollup = AssignmentRollup::from_ledger(&ledger_fixture(), 2);
        assert_eq!(rollup.rows.len(), 3);
        let lab2 = rollup
            .rows
            .iter()
            .find(|r| r.tag == "lab2")
            .expect("lab2 row");
        assert_eq!(lab2.flavor, FlavorId::M1Medium);
        assert_eq!(lab2.instance_hours, 30.0);
        assert_eq!(lab2.fip_hours, 10.0);
        assert_eq!(lab2.owners, 1);
        let lab4 = rollup.rows.iter().find(|r| r.tag == "lab4-multi").unwrap();
        assert_eq!(lab4.instance_hours, 3.0);
        assert_eq!(lab4.auto_terminated_hours, 3.0);
        assert_eq!(lab4.fip_hours, 3.0);
        assert_eq!(rollup.total_instance_hours(), 133.0);
    }

    #[test]
    fn per_student_hours_normalized() {
        let rollup = AssignmentRollup::from_ledger(&ledger_fixture(), 2);
        assert_eq!(rollup.per_student_hours("lab2"), 15.0);
    }

    #[test]
    fn fip_resolves_flavor_via_prefix() {
        // lab2's FIP name has no exact instance match ("-node*" suffixes),
        // yet its hours land on the m1.medium row.
        let rollup = AssignmentRollup::from_ledger(&ledger_fixture(), 2);
        let lab2 = rollup.rows.iter().find(|r| r.tag == "lab2").unwrap();
        assert!(lab2.fip_hours > 0.0);

        // Another student's deployment whose name extends this FIP's
        // name sorts after the FIP's own nodes (`-` before `0`), so the
        // FIP keeps its own flavor.
        let mut ledger = ledger_fixture();
        ledger.push(UsageRecord {
            name: "lab2-s0010-node0".into(),
            kind: UsageKind::Instance {
                flavor: FlavorId::M1Large,
                auto_terminated: false,
            },
            start: t(0),
            end: t(5),
        });
        let rollup = AssignmentRollup::from_ledger(&ledger, 2);
        let fip_hours = |flavor| {
            rollup
                .rows
                .iter()
                .find(|r| r.tag == "lab2" && r.flavor == flavor)
                .map(|r| r.fip_hours)
        };
        assert_eq!(fip_hours(FlavorId::M1Medium), Some(10.0));
        assert_eq!(fip_hours(FlavorId::M1Large), Some(0.0));
        let per = PerStudentUsage::from_ledger(&ledger);
        let s1 = &per.students[&1];
        assert_eq!(s1.len(), 1);
        assert_eq!((s1[0].flavor, s1[0].fip_hours), (FlavorId::M1Medium, 10.0));
    }

    #[test]
    fn per_student_usage() {
        let per = PerStudentUsage::from_ledger(&ledger_fixture());
        assert_eq!(per.students.len(), 2); // groups excluded
        assert_eq!(per.student_hours(1, "lab2"), 30.0);
        assert_eq!(per.student_hours(2, "lab4-multi"), 3.0);
        assert_eq!(per.student_hours(1, "lab4-multi"), 0.0);
        assert_eq!(per.student_hours(99, "lab2"), 0.0);
        let s1 = &per.students[&1];
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].fip_hours, 10.0);
    }

    #[test]
    fn empty_ledger() {
        let rollup = AssignmentRollup::from_ledger(&Ledger::new(), 191);
        assert!(rollup.rows.is_empty());
        assert_eq!(rollup.total_instance_hours(), 0.0);
    }
}
