//! The digest function under its historical path: perfbench imports
//! `opml_experiments::digest::fnv1a64`. It is the workspace's one
//! FNV-1a, [`opml_simkernel::fnv1a64`].

pub use opml_simkernel::fnv1a64;
