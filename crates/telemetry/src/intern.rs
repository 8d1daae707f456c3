//! Deterministic string interner for telemetry event names.
//!
//! Event names are drawn from a small, closed vocabulary
//! (`instance.launch`, `queue.pop`, ...) yet the pre-interning pipeline
//! heap-allocated a fresh `String` per emitted event — the single
//! largest contributor to the `shard.sim` allocation profile. The
//! interner maps each distinct name to a [`Sym`] (a `u32` index into a
//! global insertion-order table), so an event carries four bytes
//! instead of an owned string and cloning an event never copies its
//! name.
//!
//! # Wire format
//!
//! Symbols never appear in any serialized artifact. Exporters resolve a
//! `Sym` back to its string (via [`Sym::as_str`] / `Deref<Target =
//! str>`) at render time, so JSONL and Chrome-trace bytes are identical
//! to the pre-interning output — the committed fixture in
//! `tests/trace_golden.rs` and the differential suites
//! (`tests/*_differential.rs`) pin exactly that.
//!
//! # Determinism
//!
//! Symbol *ids* are assigned in first-intern order. Ids are a process-
//! local encoding and never serialized, so output bytes cannot depend
//! on them; but allocation accounting can see *when* a name is first
//! interned (the table grows). [`preseed`] interns a batch of known
//! names up front from one thread, which both fixes the id assignment
//! and moves every table-growth allocation out of the measured window;
//! after a preseed covering the run's vocabulary, the interner performs
//! zero allocations during the run ([`interned_count`] is the
//! regression probe for that).
//!
//! The table only ever grows and entries are `&'static str` (dynamic
//! names are leaked once per *distinct* name — bounded by the
//! vocabulary, not the event count).

use opml_simkernel::{det_hash_map, DetHashMap};
use parking_lot::RwLock;
use std::fmt;
use std::ops::Deref;

struct Interner {
    /// `name -> id` lookup (fixed-seed hasher: growth is deterministic).
    lookup: Option<DetHashMap<&'static str, u32>>,
    /// Insertion-order table; `Sym(i)` resolves to `names[i]`.
    names: Vec<&'static str>,
}

static INTERNER: RwLock<Interner> = RwLock::new(Interner {
    lookup: None,
    names: Vec::new(),
});

/// An interned event name: a copyable `u32` handle that dereferences to
/// the underlying `&'static str`.
///
/// Construct via [`Sym::new`] / `From<&str>`; compare against string
/// literals directly (`sym == "queue.pop"`). Two `Sym`s are equal iff
/// their strings are equal (the interner guarantees one id per distinct
/// string).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Intern `name` (a lookup when already present, an insertion
    /// otherwise) and return its symbol.
    pub fn new(name: &str) -> Sym {
        intern(name)
    }

    /// The interned string. O(1): one shared-lock table read.
    pub fn as_str(self) -> &'static str {
        let interner = INTERNER.read();
        interner.names.get(self.0 as usize).copied().unwrap_or("")
    }

    /// The raw table index (insertion order).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl Deref for Sym {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?}#{})", self.as_str(), self.0)
    }
}

impl From<&str> for Sym {
    fn from(name: &str) -> Sym {
        intern(name)
    }
}

impl From<&String> for Sym {
    fn from(name: &String) -> Sym {
        intern(name)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

/// Intern `name`, returning its stable symbol. The fast path is a
/// shared-lock lookup; a miss upgrades to the write lock, re-checks,
/// and appends.
pub fn intern(name: &str) -> Sym {
    {
        let interner = INTERNER.read();
        if let Some(lookup) = &interner.lookup {
            if let Some(&id) = lookup.get(name) {
                return Sym(id);
            }
        }
    }
    intern_slow(name, None)
}

/// Intern a `'static` string without copying it (the preseed path):
/// the table stores the caller's `&'static str`, so nothing is leaked.
pub fn intern_static(name: &'static str) -> Sym {
    {
        let interner = INTERNER.read();
        if let Some(lookup) = &interner.lookup {
            if let Some(&id) = lookup.get(name) {
                return Sym(id);
            }
        }
    }
    intern_slow(name, Some(name))
}

#[cold]
fn intern_slow(name: &str, as_static: Option<&'static str>) -> Sym {
    let mut interner = INTERNER.write();
    let lookup = interner.lookup.get_or_insert_with(det_hash_map);
    if let Some(&id) = lookup.get(name) {
        return Sym(id);
    }
    let stored: &'static str =
        as_static.unwrap_or_else(|| Box::leak(name.to_string().into_boxed_str()));
    let id = u32::try_from(interner.names.len()).expect("interner table exceeds u32 ids");
    interner
        .lookup
        .as_mut()
        .expect("lookup initialised above")
        .insert(stored, id);
    interner.names.push(stored);
    Sym(id)
}

/// Intern a batch of known names in order, from one thread, before a
/// measured run: fixes id assignment and front-loads every interner
/// allocation. Idempotent.
pub fn preseed(names: &[&'static str]) {
    for name in names {
        let _ = intern_static(name);
    }
}

/// Number of distinct names interned so far. A run whose vocabulary
/// was fully preseeded leaves this unchanged — the regression probe
/// the allocation-pass tests pin.
pub fn interned_count() -> usize {
    INTERNER.read().names.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_round_trip() {
        let _guard = crate::intern_lock();
        let a = Sym::new("test.intern.round_trip");
        assert_eq!(a.as_str(), "test.intern.round_trip");
        assert_eq!(&*a, "test.intern.round_trip");
        assert_eq!(a, "test.intern.round_trip");
    }

    #[test]
    fn same_string_same_symbol() {
        let _guard = crate::intern_lock();
        let a = Sym::new("test.intern.same");
        let b = Sym::from("test.intern.same");
        let c = Sym::from(&String::from("test.intern.same"));
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.id(), c.id());
        assert_ne!(a, Sym::new("test.intern.other"));
    }

    #[test]
    fn preseed_is_idempotent_and_interns_nothing_twice() {
        let _guard = crate::intern_lock();
        preseed(&["test.intern.pre_a", "test.intern.pre_b"]);
        let before = interned_count();
        preseed(&["test.intern.pre_a", "test.intern.pre_b"]);
        let _ = Sym::new("test.intern.pre_a");
        assert_eq!(interned_count(), before);
    }

    #[test]
    fn display_and_debug_show_the_string() {
        let _guard = crate::intern_lock();
        let s = Sym::new("test.intern.display");
        assert_eq!(format!("{s}"), "test.intern.display");
        assert!(format!("{s:?}").contains("test.intern.display"));
    }
}
