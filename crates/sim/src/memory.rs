//! Simulated device global memory: named flat `f32` buffers, optionally
//! backed by a single shared **arena**.
//!
//! All tensor element types evaluate in `f32` precision in the simulator
//! (`F16` buffers still *account* as 2 bytes/element in the cost model); index
//! and predicate types never live in buffers in the kernels this project
//! generates.
//!
//! Two kinds of buffer coexist:
//!
//! * **owned** buffers hold their own `Vec<f32>` — graph inputs and
//!   constants;
//! * **views** address a `(offset, len)` window of the memory's arena — the
//!   placement a memory planner (`hidet::MemoryPlan`) computed for
//!   intermediates. Views make buffer turnover allocation-free: rebinding a
//!   name or zeroing a region touches no allocator, so a serving worker that
//!   reuses one `DeviceMemory` across requests performs zero heap
//!   allocations for intermediates in steady state.
//!
//! [`DeviceMemory::alloc`] and [`DeviceMemory::alloc_zeroed`] write **in
//! place** when the named buffer already exists with the right length
//! (owned or view), allocating only on first use or on a length change.
//!
//! Every name maps to a dense [`BufferId`] that stays valid for the
//! memory's lifetime — across in-place writes, length changes and view
//! rebinds. Callers that launch the same kernels request after request
//! resolve names once ([`DeviceMemory::id`]) and address buffers by id from
//! then on ([`DeviceMemory::slice`]), so the steady-state launch path hashes
//! no string.

use std::collections::HashMap;

/// Backing storage of one named buffer.
#[derive(Debug, Clone)]
enum Storage {
    /// The buffer owns its elements.
    Owned(Vec<f32>),
    /// The buffer is a window of the shared arena.
    View {
        /// Start element within the arena.
        offset: usize,
        /// Length in elements.
        len: usize,
    },
}

/// Dense handle of one named buffer of one [`DeviceMemory`]; see
/// [`DeviceMemory::id`]. Meaningless in any other memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(u32);

/// Named global-memory buffers, keyed by kernel parameter name.
#[derive(Debug, Clone, Default)]
pub struct DeviceMemory {
    /// Name → index into `slots`.
    names: HashMap<String, u32>,
    /// Buffer storage by [`BufferId`]. A name keeps its slot for the
    /// memory's lifetime (rebinding replaces the storage in place), so no
    /// id ever addresses another name's buffer.
    slots: Vec<Storage>,
    /// Shared backing store for [`Storage::View`] buffers.
    arena: Vec<f32>,
}

impl DeviceMemory {
    /// An empty device memory.
    pub fn new() -> DeviceMemory {
        DeviceMemory::default()
    }

    /// Binds `name` to `storage`: in the name's existing slot (its id stays
    /// valid) or in a fresh one.
    fn set(&mut self, name: &str, storage: Storage) {
        match self.names.get(name) {
            Some(&slot) => self.slots[slot as usize] = storage,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 buffers");
                self.names.insert(name.to_string(), slot);
                self.slots.push(storage);
            }
        }
    }

    /// Allocates (or overwrites) a buffer with the given contents. An
    /// existing buffer of the same length — owned or view — is written in
    /// place without allocating.
    pub fn alloc(&mut self, name: &str, data: &[f32]) {
        match self.get_mut(name) {
            Some(buf) if buf.len() == data.len() => buf.copy_from_slice(data),
            _ => self.set(name, Storage::Owned(data.to_vec())),
        }
    }

    /// Allocates (or re-zeroes) a buffer of `len` elements. An existing
    /// buffer of the same length is zero-filled in place without allocating.
    pub fn alloc_zeroed(&mut self, name: &str, len: usize) {
        match self.id(name) {
            Some(id) => self.zero(id, len),
            None => self.set(name, Storage::Owned(vec![0.0; len])),
        }
    }

    /// [`DeviceMemory::alloc_zeroed`] by id: zero-fills the buffer in place,
    /// or replaces it with a fresh owned one when its length is not `len`.
    /// An id this memory never issued is ignored.
    pub fn zero(&mut self, id: BufferId, len: usize) {
        let buf = self.slice_mut(id);
        if buf.len() == len {
            buf.fill(0.0);
        } else if let Some(slot) = self.slots.get_mut(id.0 as usize) {
            *slot = Storage::Owned(vec![0.0; len]);
        }
    }

    /// Grows the shared arena to at least `len` elements (new space is
    /// zero-filled). Never shrinks: existing views stay valid.
    pub fn reserve_arena(&mut self, len: usize) {
        if self.arena.len() < len {
            self.arena.resize(len, 0.0);
        }
    }

    /// Current arena size in elements.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Binds `name` to the arena window `[offset, offset + len)`, replacing
    /// any previous buffer under that name. The contents are whatever the
    /// arena holds there — callers zero the window when fresh storage is
    /// expected.
    ///
    /// # Panics
    /// Panics if the window exceeds the arena ([`DeviceMemory::reserve_arena`]
    /// first).
    pub fn bind_view(&mut self, name: &str, offset: usize, len: usize) {
        assert!(
            offset + len <= self.arena.len(),
            "view {name} [{offset}, {}) exceeds arena of {} elements",
            offset + len,
            self.arena.len()
        );
        self.set(name, Storage::View { offset, len });
    }

    /// Reads a buffer.
    ///
    /// # Panics
    /// Panics if the buffer does not exist; use [`DeviceMemory::get`] for a
    /// fallible lookup.
    pub fn read(&self, name: &str) -> &[f32] {
        self.get(name)
            .unwrap_or_else(|| panic!("no buffer named {name} in device memory"))
    }

    /// The dense id `name` is bound to, if it is bound.
    pub fn id(&self, name: &str) -> Option<BufferId> {
        self.names.get(name).copied().map(BufferId)
    }

    /// The buffer behind `id`; empty for an id this memory never issued.
    #[inline]
    pub fn slice(&self, id: BufferId) -> &[f32] {
        match self.slots.get(id.0 as usize) {
            Some(Storage::Owned(buf)) => buf,
            Some(Storage::View { offset, len }) => &self.arena[*offset..*offset + *len],
            None => &[],
        }
    }

    /// The buffer behind `id`, mutably; empty for an id this memory never
    /// issued.
    #[inline]
    pub fn slice_mut(&mut self, id: BufferId) -> &mut [f32] {
        match self.slots.get_mut(id.0 as usize) {
            Some(Storage::Owned(buf)) => buf,
            Some(Storage::View { offset, len }) => &mut self.arena[*offset..*offset + *len],
            None => &mut [],
        }
    }

    /// Whether two of `ids` share storage: the same buffer twice, or views
    /// of overlapping arena windows. (A memory plan never binds such views
    /// to buffers that are live together; `bind_view` itself lets a caller.)
    pub(crate) fn aliased(&self, ids: &[Option<BufferId>]) -> bool {
        let window = |id: &BufferId| match self.slots.get(id.0 as usize) {
            Some(Storage::View { offset, len }) => Some((*offset, offset + len)),
            _ => None,
        };
        let ids = || ids.iter().flatten();
        ids().enumerate().any(|(i, a)| {
            ids().skip(i + 1).any(|b| match (window(a), window(b)) {
                _ if a == b => true,
                (Some(a), Some(b)) => a.0 < b.1 && b.0 < a.1,
                _ => false,
            })
        })
    }

    /// Fallible buffer lookup.
    pub fn get(&self, name: &str) -> Option<&[f32]> {
        self.id(name).map(|id| self.slice(id))
    }

    /// Mutable fallible lookup.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut [f32]> {
        self.id(name).map(|id| self.slice_mut(id))
    }

    /// True if a buffer with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    /// Names of all resident buffers (unordered).
    pub fn buffer_names(&self) -> impl Iterator<Item = &str> {
        self.names.keys().map(String::as_str)
    }

    /// Total resident bytes (4 bytes per element): owned buffers plus the
    /// arena (counted once — views alias it).
    pub fn total_bytes(&self) -> usize {
        let owned: usize = self
            .slots
            .iter()
            .map(|s| match s {
                Storage::Owned(buf) => buf.len() * 4,
                Storage::View { .. } => 0,
            })
            .sum();
        owned + self.arena.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_roundtrip() {
        let mut m = DeviceMemory::new();
        m.alloc("A", &[1.0, 2.0]);
        assert_eq!(m.read("A"), &[1.0, 2.0]);
        assert!(m.contains("A"));
        assert!(!m.contains("B"));
    }

    #[test]
    fn alloc_zeroed_and_free() {
        let mut m = DeviceMemory::new();
        m.alloc_zeroed("A", 4);
        assert_eq!(m.read("A"), &[0.0; 4]);
        assert_eq!(m.total_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "no buffer named")]
    fn read_missing_panics() {
        DeviceMemory::new().read("missing");
    }

    #[test]
    fn realloc_same_length_writes_in_place() {
        let mut m = DeviceMemory::new();
        m.alloc("A", &[1.0, 2.0]);
        m.alloc("A", &[3.0, 4.0]);
        assert_eq!(m.read("A"), &[3.0, 4.0]);
        m.alloc_zeroed("A", 2);
        assert_eq!(m.read("A"), &[0.0, 0.0]);
        // A length change still reallocates.
        m.alloc("A", &[9.0]);
        assert_eq!(m.read("A"), &[9.0]);
    }

    #[test]
    fn views_alias_the_arena() {
        let mut m = DeviceMemory::new();
        m.reserve_arena(8);
        assert_eq!(m.arena_len(), 8);
        m.bind_view("A", 0, 4);
        m.bind_view("B", 4, 4);
        m.alloc("A", &[1.0, 2.0, 3.0, 4.0]); // in-place write through the view
        m.alloc_zeroed("B", 4);
        assert_eq!(m.read("A"), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.read("B"), &[0.0; 4]);
        // Overlapping re-bind sees the bytes already there.
        m.bind_view("C", 2, 2);
        assert_eq!(m.read("C"), &[3.0, 4.0]);
        m.get_mut("C").unwrap()[0] = 9.0;
        assert_eq!(m.read("A"), &[1.0, 2.0, 9.0, 4.0]);
        // Arena counted once, views are free.
        assert_eq!(m.total_bytes(), 32);
    }

    #[test]
    fn ids_survive_rewrites_and_never_alias_after_free() {
        let mut m = DeviceMemory::new();
        m.reserve_arena(4);
        m.alloc("A", &[1.0, 2.0]);
        let a = m.id("A").unwrap();
        assert_eq!(m.id("B"), None);
        m.alloc("A", &[3.0, 4.0, 5.0]); // length change keeps the id
        assert_eq!(m.id("A"), Some(a));
        assert_eq!(m.slice(a), &[3.0, 4.0, 5.0]);
        m.bind_view("A", 1, 2); // so does a view rebind
        m.slice_mut(a)[0] = 9.0;
        assert_eq!(m.read("A"), &[9.0, 0.0]);
        m.zero(a, 2); // in place
        assert_eq!(m.read("A"), &[0.0, 0.0]);
        m.zero(a, 3); // wrong length: a fresh owned buffer under the same id
        assert_eq!(m.read("A"), &[0.0; 3]);
        m.alloc("B", &[7.0]);
        assert_ne!(m.id("B"), Some(a));
    }

    #[test]
    fn arena_only_grows() {
        let mut m = DeviceMemory::new();
        m.reserve_arena(4);
        m.bind_view("A", 0, 4);
        m.alloc("A", &[1.0, 2.0, 3.0, 4.0]);
        m.reserve_arena(2); // no-op: never shrinks
        assert_eq!(m.arena_len(), 4);
        assert_eq!(m.read("A"), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds arena")]
    fn out_of_arena_view_panics() {
        let mut m = DeviceMemory::new();
        m.reserve_arena(2);
        m.bind_view("A", 0, 4);
    }
}
