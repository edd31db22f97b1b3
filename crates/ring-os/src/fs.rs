//! On-line storage: a hierarchy of directories and segments.
//!
//! "On-line storage is organized as a collection of segments of
//! information." The hierarchy exists for the paper's file-search
//! example (experiment T3): resolving `a>b>c` takes one directory-search
//! step per component, and the question the paper raises is whether
//! those steps run as protected supervisor code (one gate crossing for
//! the whole search) or as an unprotected library calling a small
//! protected primitive per step.

use std::collections::BTreeMap;
use std::sync::Arc;

use ring_core::addr::AbsAddr;
use ring_core::word::Word;

use crate::acl::Acl;

/// Identifier of a stored segment (index into the segment table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SegmentId(pub u32);

/// Identifier of a directory (index into the directory table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DirId(pub u32);

/// A directory entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entry {
    /// A sub-directory.
    Dir(DirId),
    /// A stored segment.
    Segment(SegmentId),
}

/// Where a stored segment's contents live once brought into memory.
///
/// "A single segment may be part of several virtual memories at the
/// same time, allowing straightforward sharing of segments among
/// users": the first demand load places the segment (or its page
/// table); every later initiation maps the *same* storage, so writes
/// by one process are visible to every other process sharing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadedImage {
    /// Absolute address of the segment base (unpaged) or page table.
    pub addr: AbsAddr,
    /// Whether the image is unpaged.
    pub unpaged: bool,
}

/// A stored segment: its contents and access control list.
#[derive(Clone, Debug)]
pub struct StoredSegment {
    /// Full path, for diagnostics.
    pub path: String,
    /// The access control list.
    pub acl: Acl,
    /// Initial contents (copied into memory at the first demand load;
    /// write-back on termination is out of scope for the reproduction).
    /// Never written, so clones of the file system share it.
    pub data: Arc<[Word]>,
    /// The shared in-memory image, set by the first demand load.
    pub image: Option<LoadedImage>,
}

#[derive(Clone, Debug, Default)]
struct Dir {
    // Ordered so that the modelled linear scan (and hence the charged
    // search cost) is deterministic run to run.
    entries: BTreeMap<String, Entry>,
}

/// The path component separator (Multics used `>`).
pub const SEP: char = '>';

/// The storage hierarchy.
#[derive(Clone, Debug)]
pub struct FileSystem {
    dirs: Vec<Dir>,
    segments: Vec<StoredSegment>,
    /// Directory-entry comparisons performed by searches (the cost the
    /// T3 experiment accounts).
    pub search_steps: u64,
}

/// Errors from storage operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// A path component did not name an entry.
    NotFound(String),
    /// A non-final path component named a segment.
    NotADirectory(String),
    /// The final component named a directory where a segment was
    /// expected (or vice versa).
    WrongKind(String),
    /// An entry with that name already exists.
    Exists(String),
    /// The path was empty or malformed.
    BadPath(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "not found: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::WrongKind(p) => write!(f, "wrong entry kind: {p}"),
            FsError::Exists(p) => write!(f, "already exists: {p}"),
            FsError::BadPath(p) => write!(f, "bad path: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

impl FileSystem {
    /// A file system with an empty root.
    pub fn new() -> FileSystem {
        FileSystem {
            dirs: vec![Dir::default()],
            segments: Vec::new(),
            search_steps: 0,
        }
    }

    /// The root directory.
    pub fn root(&self) -> DirId {
        DirId(0)
    }

    fn split(path: &str) -> Result<Vec<&str>, FsError> {
        let parts: Vec<&str> = path.split(SEP).collect();
        if parts.iter().any(|p| p.is_empty()) {
            return Err(FsError::BadPath(path.to_string()));
        }
        Ok(parts)
    }

    /// Creates intermediate directories for `path` and returns the
    /// directory that will hold its final component plus that name.
    fn make_parents<'p>(&mut self, path: &'p str) -> Result<(DirId, &'p str), FsError> {
        let parts = Self::split(path)?;
        let (last, parents) = parts
            .split_last()
            .ok_or_else(|| FsError::BadPath(path.to_string()))?;
        let mut cur = self.root();
        for p in parents {
            let next = match self.dirs[cur.0 as usize].entries.get(*p) {
                Some(Entry::Dir(d)) => *d,
                Some(Entry::Segment(_)) => return Err(FsError::NotADirectory(p.to_string())),
                None => {
                    let id = DirId(self.dirs.len() as u32);
                    self.dirs.push(Dir::default());
                    self.dirs[cur.0 as usize]
                        .entries
                        .insert(p.to_string(), Entry::Dir(id));
                    id
                }
            };
            cur = next;
        }
        Ok((cur, last))
    }

    /// Creates a segment at `path` (creating directories as needed).
    pub fn create_segment(
        &mut self,
        path: &str,
        acl: Acl,
        data: impl Into<Arc<[Word]>>,
    ) -> Result<SegmentId, FsError> {
        let (dir, name) = self.make_parents(path)?;
        if self.dirs[dir.0 as usize].entries.contains_key(name) {
            return Err(FsError::Exists(path.to_string()));
        }
        let id = SegmentId(self.segments.len() as u32);
        self.segments.push(StoredSegment {
            path: path.to_string(),
            acl,
            data: data.into(),
            image: None,
        });
        self.dirs[dir.0 as usize]
            .entries
            .insert(name.to_string(), Entry::Segment(id));
        Ok(id)
    }

    /// One directory-search step: looks up `component` in `dir`.
    ///
    /// Charges `search_steps` proportionally to the number of entries
    /// scanned (a linear directory scan, as contemporary systems did).
    pub fn step(&mut self, dir: DirId, component: &str) -> Result<Entry, FsError> {
        let d = self
            .dirs
            .get(dir.0 as usize)
            .ok_or_else(|| FsError::NotFound(component.to_string()))?;
        // Model a linear scan: cost = position of the hit (or full
        // length on miss).
        let mut scanned = 0;
        let mut hit = None;
        for (name, entry) in &d.entries {
            scanned += 1;
            if name == component {
                hit = Some(entry.clone());
                break;
            }
        }
        self.search_steps += scanned;
        hit.ok_or_else(|| FsError::NotFound(component.to_string()))
    }

    /// Full path resolution to a segment.
    pub fn resolve(&mut self, path: &str) -> Result<SegmentId, FsError> {
        let parts = Self::split(path)?;
        let mut cur = self.root();
        for (i, p) in parts.iter().enumerate() {
            match self.step(cur, p)? {
                Entry::Dir(d) if i + 1 < parts.len() => cur = d,
                Entry::Segment(s) if i + 1 == parts.len() => return Ok(s),
                Entry::Dir(_) => return Err(FsError::WrongKind(path.to_string())),
                Entry::Segment(_) => return Err(FsError::NotADirectory(p.to_string())),
            }
        }
        Err(FsError::BadPath(path.to_string()))
    }

    /// The stored segment for `id`.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id (ids are never deleted).
    pub fn segment(&self, id: SegmentId) -> &StoredSegment {
        &self.segments[id.0 as usize]
    }

    /// Mutable access to the stored segment for `id`.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id.
    pub fn segment_mut(&mut self, id: SegmentId) -> &mut StoredSegment {
        &mut self.segments[id.0 as usize]
    }

    /// Number of stored segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

impl Default for FileSystem {
    fn default() -> Self {
        FileSystem::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{AclEntry, Modes};
    use ring_core::ring::Ring;

    fn acl() -> Acl {
        Acl::single(AclEntry::new("*", Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap())
    }

    #[test]
    fn create_and_resolve_nested_path() {
        let mut fs = FileSystem::new();
        let id = fs.create_segment("udd>alice>prog", acl(), vec![]).unwrap();
        assert_eq!(fs.resolve("udd>alice>prog").unwrap(), id);
        assert_eq!(fs.segment(id).path, "udd>alice>prog");
    }

    #[test]
    fn duplicate_and_missing_paths() {
        let mut fs = FileSystem::new();
        fs.create_segment("a>b", acl(), vec![]).unwrap();
        assert_eq!(
            fs.create_segment("a>b", acl(), vec![]),
            Err(FsError::Exists("a>b".into()))
        );
        assert!(matches!(fs.resolve("a>c"), Err(FsError::NotFound(_))));
        assert!(matches!(fs.resolve("zzz"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn component_through_a_segment_is_rejected() {
        let mut fs = FileSystem::new();
        fs.create_segment("a>b", acl(), vec![]).unwrap();
        assert!(matches!(
            fs.resolve("a>b>c"),
            Err(FsError::NotADirectory(_))
        ));
        assert!(matches!(
            fs.create_segment("a>b>c", acl(), vec![]),
            Err(FsError::NotADirectory(_))
        ));
    }

    #[test]
    fn resolving_a_directory_as_segment_is_wrong_kind() {
        let mut fs = FileSystem::new();
        fs.create_segment("a>b>c", acl(), vec![]).unwrap();
        assert!(matches!(fs.resolve("a>b"), Err(FsError::WrongKind(_))));
    }

    #[test]
    fn bad_paths() {
        let mut fs = FileSystem::new();
        assert!(matches!(fs.resolve(""), Err(FsError::BadPath(_))));
        assert!(matches!(fs.resolve("a>>b"), Err(FsError::BadPath(_))));
    }

    #[test]
    fn search_steps_accumulate_per_component() {
        let mut fs = FileSystem::new();
        fs.create_segment("a>b>c", acl(), vec![]).unwrap();
        fs.search_steps = 0;
        fs.resolve("a>b>c").unwrap();
        // Each directory has exactly one entry, so three steps total.
        assert_eq!(fs.search_steps, 3);
    }

    #[test]
    fn step_interface_walks_one_component() {
        let mut fs = FileSystem::new();
        let id = fs.create_segment("x>y", acl(), vec![]).unwrap();
        let d = match fs.step(fs.root(), "x").unwrap() {
            Entry::Dir(d) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(fs.step(d, "y").unwrap(), Entry::Segment(id));
    }
}
