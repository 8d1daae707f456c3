//! The course naming convention and its parser.
//!
//! Lab instructions tell students to name resources
//! `"<tag>-s<student>"` (e.g. `lab2-s017`), with an optional
//! `-<suffix>` for multi-resource deployments (`lab2-s017-node1`).
//! Project resources are named `"<tag>-g<group>"` (`proj-g07-train`).
//! Resources that do not follow the convention (it happens — §5 says
//! "most" instances could be associated) parse as [`Owner::Unknown`].

use serde::{Deserialize, Serialize};
use std::fmt::Write;

/// Who owns a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Owner {
    /// A student, by index.
    Student(u32),
    /// A project group, by index.
    Group(u32),
    /// Could not be attributed.
    Unknown,
}

/// Parsed attribution of a resource name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribution {
    /// Assignment tag (`lab1`, `lab4a`, `proj`, …).
    pub tag: String,
    /// Owner.
    pub owner: Owner,
}

/// Compose a student resource name.
pub fn student_name(tag: &str, student: u32) -> String {
    // One allocation of the exact size: `format!` would start small and
    // grow by reallocation.
    let digits = student
        .checked_ilog10()
        .map_or(1, |d| d as usize + 1)
        .max(3);
    let mut name = String::with_capacity(tag.len() + 2 + digits);
    let _ = write!(name, "{tag}-s{student:03}");
    name
}

/// Compose a group resource name.
pub fn group_name(tag: &str, group: u32, suffix: &str) -> String {
    if suffix.is_empty() {
        format!("{tag}-g{group:02}")
    } else {
        format!("{tag}-g{group:02}-{suffix}")
    }
}

/// Parse a resource name under the convention.
pub fn parse_name(name: &str) -> Attribution {
    let parts: Vec<&str> = name.split('-').collect();
    for (i, part) in parts.iter().enumerate().skip(1) {
        if let Some(rest) = part.strip_prefix('s') {
            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()) {
                return Attribution {
                    tag: parts[..i].join("-"),
                    owner: Owner::Student(rest.parse().expect("digits checked")),
                };
            }
        }
        if let Some(rest) = part.strip_prefix('g') {
            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()) {
                return Attribution {
                    tag: parts[..i].join("-"),
                    owner: Owner::Group(rest.parse().expect("digits checked")),
                };
            }
        }
    }
    Attribution {
        tag: name.to_string(),
        owner: Owner::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn student_roundtrip() {
        let name = student_name("lab2", 17);
        assert_eq!(name, "lab2-s017");
        let a = parse_name(&name);
        assert_eq!(a.tag, "lab2");
        assert_eq!(a.owner, Owner::Student(17));
    }

    #[test]
    fn student_name_is_allocated_at_its_exact_length() {
        for id in [0, 7, 42, 999, 1_000, 99_999, 123_456, u32::MAX] {
            let name = student_name("lab4a", id);
            assert_eq!(name, format!("lab4a-s{id:03}"));
            assert_eq!(name.capacity(), name.len(), "{name}");
        }
    }

    #[test]
    fn suffixed_deployment_names() {
        let a = parse_name("lab2-s017-node2");
        assert_eq!(a.tag, "lab2");
        assert_eq!(a.owner, Owner::Student(17));
    }

    #[test]
    fn group_names() {
        let name = group_name("proj", 7, "train");
        assert_eq!(name, "proj-g07-train");
        let a = parse_name(&name);
        assert_eq!(a.tag, "proj");
        assert_eq!(a.owner, Owner::Group(7));
        let bare = parse_name(&group_name("proj", 12, ""));
        assert_eq!(bare.owner, Owner::Group(12));
    }

    #[test]
    fn multi_part_tags() {
        let a = parse_name("lab4-multi-s003");
        assert_eq!(a.tag, "lab4-multi");
        assert_eq!(a.owner, Owner::Student(3));
    }

    #[test]
    fn unattributable_names() {
        for name in [
            "my-test-vm",
            "server",
            "lab2-student17",
            "lab2-s",
            "lab2-sabc",
        ] {
            let a = parse_name(name);
            assert_eq!(a.owner, Owner::Unknown, "{name}");
            assert_eq!(a.tag, name);
        }
    }
}
