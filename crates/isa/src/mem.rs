//! Guest physical memory.
//!
//! Memory is a sparse two-level structure ("similar to a page table",
//! §3.1.2) of 4-KiB pages whose bytes are domain values. A byte that has
//! never been written is materialized on first read according to the
//! [`MissingPolicy`]: concrete executions read zero (the baseline image
//! zero-fills), symbolic explorations create an on-demand symbolic variable
//! per byte ("we modify FuzzBALL to create those variables on demand only
//! when a location is accessed", §3.3.2).

use pokemu_rt::FxHashMap;
use pokemu_symx::{Dom, Stored};

use crate::page::{Page, Slots, PAGE_SHIFT, PAGE_SIZE};
use crate::snapshot::PagedMem;

/// What an unwritten byte reads as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissingPolicy {
    /// Read as zero (concrete emulator execution over a zero-filled image).
    #[default]
    Zero,
    /// Materialize a fresh named symbolic input `mem_XXXXXXXX` (exploration:
    /// "all of the unused bytes in physical memory" are symbolic, §3.3.1).
    Symbolic,
}

/// Sparse physical memory over domain values: copy-on-write 4-KiB
/// [`Page`]s of one slot per byte, sized by the domain ([`Stored`]). A
/// concrete page is 4 KiB of bytes, and an absent page reads as zero. A
/// symbolic page holds optional term ids; it is created by a write or by a
/// read that materializes a byte, so no symbolic page is ever all empty
/// and two symbolic memories are equal exactly when they hold the same
/// bytes.
///
/// Cloning copies owned pages and shares shared ones. [`Memory::share`]
/// makes every page shared, so a template that shares its memory once is
/// cloned per fork without copying a page, and each clone copies a page
/// when it first writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Memory<V: Stored> {
    pages: FxHashMap<u32, Page<V::Slot>>,
    policy: MissingPolicy,
    size: u32,
}

impl<V: Stored> Default for Memory<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Stored> Memory<V> {
    /// Creates an empty memory of [`crate::state::PHYS_MEM_SIZE`] bytes with
    /// the zero policy.
    pub fn new() -> Self {
        Memory {
            pages: FxHashMap::default(),
            policy: MissingPolicy::Zero,
            size: crate::state::PHYS_MEM_SIZE,
        }
    }

    /// Sets the policy for unwritten bytes.
    pub fn set_policy(&mut self, policy: MissingPolicy) {
        self.policy = policy;
    }

    /// The current missing-byte policy.
    pub fn policy(&self) -> MissingPolicy {
        self.policy
    }

    /// Physical memory size in bytes. Addresses wrap modulo this size, so
    /// the 4-GiB linear space aliases onto physical memory exactly as the
    /// baseline page tables do (§4.1).
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Page number and in-page offset of `addr`, wrapped at the size.
    fn slot(&self, addr: u32) -> (u32, usize) {
        let addr = addr % self.size;
        (addr >> PAGE_SHIFT, addr as usize & (PAGE_SIZE - 1))
    }

    /// Page `pno`, writable, created empty if absent.
    fn page_mut(&mut self, pno: u32) -> &mut Slots<V::Slot> {
        self.pages
            .entry(pno)
            .or_insert_with(|| Page::filled(V::EMPTY))
            .make_mut()
    }

    /// Makes every page shared, so that clones of this memory copy no page
    /// until they write it.
    pub fn share(&mut self) {
        for page in self.pages.values_mut() {
            page.share();
        }
    }

    /// The byte at `addr` without materializing it: `None` for a symbolic
    /// byte no write or read has created yet.
    pub fn get(&self, addr: u32) -> Option<V> {
        let (pno, off) = self.slot(addr);
        V::from_slot(self.pages.get(&pno).map_or(V::EMPTY, |page| page[off]))
    }

    /// Reads one byte of physical memory.
    ///
    /// Unwritten bytes are materialized per the policy; a symbolic
    /// materialization is stored so later reads see the same variable.
    pub fn read_u8<D: Dom<V = V>>(&mut self, d: &mut D, addr: u32) -> V {
        if let Some(v) = self.get(addr) {
            return v;
        }
        let (pno, off) = self.slot(addr);
        let v = match self.policy {
            MissingPolicy::Zero => d.constant(8, 0),
            MissingPolicy::Symbolic => d.fresh_input(8, &format!("mem_{:08x}", addr % self.size)),
        };
        self.page_mut(pno)[off] = v.to_slot();
        v
    }

    /// Writes one byte of physical memory. A zero byte written to an absent
    /// concrete page leaves the page absent, and a shared page is copied
    /// only when the write changes it.
    pub fn write_u8(&mut self, addr: u32, v: V) {
        let (pno, off) = self.slot(addr);
        let slot = v.to_slot();
        match self.pages.get_mut(&pno) {
            Some(Page::Shared(shared)) if shared[off] == slot => {}
            Some(page) => page.make_mut()[off] = slot,
            None if slot == V::EMPTY => {}
            None => self.page_mut(pno)[off] = slot,
        }
    }

    /// Reads `n` bytes (1, 2, 4 or 8) little-endian as one value of width `8n`.
    pub fn read<D: Dom<V = V>>(&mut self, d: &mut D, addr: u32, n: u8) -> V {
        debug_assert!(matches!(n, 1 | 2 | 4 | 8));
        let mut v = self.read_u8(d, addr);
        for i in 1..n {
            let b = self.read_u8(d, addr.wrapping_add(i as u32));
            v = d.concat(b, v);
        }
        v
    }

    /// Writes a value of width `8n` little-endian.
    pub fn write<D: Dom<V = V>>(&mut self, d: &mut D, addr: u32, v: V, n: u8) {
        debug_assert_eq!(d.width(v), n * 8);
        for i in 0..n {
            let byte = d.extract(v, i * 8 + 7, i * 8);
            self.write_u8(addr.wrapping_add(i as u32), byte);
        }
    }

    /// Copies a concrete byte slice into memory (image loading), one page
    /// lookup per page it touches.
    pub fn load_bytes<D: Dom<V = V>>(&mut self, d: &mut D, addr: u32, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let (pno, off) = self.slot(addr);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            let page = self.page_mut(pno);
            for (slot, &b) in page[off..off + chunk.len()].iter_mut().zip(chunk) {
                *slot = d.constant(8, b as u64).to_slot();
            }
            addr = addr.wrapping_add(chunk.len() as u32);
            rest = tail;
        }
    }
}

impl<V: Stored<Slot = u8>> Memory<V> {
    /// The snapshot image of a concrete memory: each page that holds a
    /// non-zero byte, shared when the page is shared and copied when owned.
    pub fn to_mem(&self) -> PagedMem {
        let mut pages: Vec<(u32, &Page<u8>)> = self
            .pages
            .iter()
            .map(|(&pno, page)| (pno << PAGE_SHIFT, page))
            .collect();
        pages.sort_unstable_by_key(|&(base, _)| base);
        PagedMem::from_pages(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pokemu_symx::{Concrete, Dom};

    #[test]
    fn zero_policy_reads_zero() {
        let mut d = Concrete::new();
        let mut m: Memory<_> = Memory::new();
        let v = m.read(&mut d, 0x1234, 4);
        assert_eq!(d.as_const(v), Some(0));
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut d = Concrete::new();
        let mut m: Memory<_> = Memory::new();
        let v = d.constant(32, 0xdead_beef);
        m.write(&mut d, 0x2000, v, 4);
        let r = m.read(&mut d, 0x2000, 4);
        assert_eq!(d.as_const(r), Some(0xdead_beef));
        let b0 = m.read(&mut d, 0x2000, 1);
        assert_eq!(d.as_const(b0), Some(0xef));
        let b3 = m.read(&mut d, 0x2003, 1);
        assert_eq!(d.as_const(b3), Some(0xde));
    }

    #[test]
    fn addresses_wrap_at_phys_size() {
        let mut d = Concrete::new();
        let mut m: Memory<_> = Memory::new();
        let v = d.constant(8, 0x5a);
        m.write_u8(0x100, v);
        let aliased = m.read_u8(&mut d, 0x100 + crate::state::PHYS_MEM_SIZE);
        assert_eq!(d.as_const(aliased), Some(0x5a));
    }

    #[test]
    fn symbolic_policy_materializes_stable_vars() {
        use pokemu_symx::Executor;
        let mut e = Executor::new();
        let mut m: Memory<_> = Memory::new();
        m.set_policy(MissingPolicy::Symbolic);
        let a = m.read_u8(&mut e, 0x3000);
        let b = m.read_u8(&mut e, 0x3000);
        assert_eq!(a, b, "same location must be the same variable");
        let c = m.read_u8(&mut e, 0x3001);
        assert_ne!(a, c);
        assert!(e.pool().as_const(a).is_none());
    }

    #[test]
    fn equal_exactly_when_the_same_bytes_are_initialized() {
        use pokemu_symx::Executor;
        let mut e = Executor::new();
        let mut m: Memory<_> = Memory::new();
        m.set_policy(MissingPolicy::Symbolic);
        let before = m.clone();
        // A read that materializes a byte changes the memory...
        let a = m.read_u8(&mut e, 0x3000);
        assert_ne!(m, before);
        let read = m.clone();
        // ...as does a write, while rewriting the same term does not.
        m.write_u8(0x3000, a);
        assert_eq!(m, read);
        let k = e.constant(8, 1);
        m.write_u8(0x3000, k);
        assert_ne!(m, read);
    }

    #[test]
    fn load_bytes_crosses_pages_and_wraps() {
        let mut d = Concrete::new();
        let mut m: Memory<_> = Memory::new();
        let end = crate::state::PHYS_MEM_SIZE;
        let bytes: Vec<u8> = (1..=8).collect();
        m.load_bytes(&mut d, 0x1ffc, &bytes);
        m.load_bytes(&mut d, end - 2, &[0xaa, 0xbb, 0xcc]);
        let init: Vec<(u32, u8)> = m.to_mem().iter().collect();
        let mut want: Vec<(u32, u8)> = (0..8).map(|i| (0x1ffc + i, i as u8 + 1)).collect();
        want.insert(0, (0, 0xcc));
        want.extend([(end - 2, 0xaa), (end - 1, 0xbb)]);
        assert_eq!(init, want);
    }

    #[test]
    fn concrete_reads_and_zero_writes_create_no_page() {
        let mut d = Concrete::new();
        let mut m: Memory<_> = Memory::new();
        let z = m.read_u8(&mut d, 0x5000);
        assert_eq!(d.as_const(z), Some(0));
        m.write_u8(0x6000, z);
        assert_eq!(m, Memory::new());
    }

    #[test]
    fn load_bytes_then_iter() {
        let mut d = Concrete::new();
        let mut m: Memory<_> = Memory::new();
        m.load_bytes(&mut d, 0x7c00, &[1, 2, 3]);
        let init: Vec<(u32, u8)> = m.to_mem().iter().collect();
        assert_eq!(init, vec![(0x7c00, 1), (0x7c01, 2), (0x7c02, 3)]);
    }
}
