//! Guest physical memory.
//!
//! Memory is a sparse two-level structure ("similar to a page table",
//! §3.1.2) of 4-KiB pages whose bytes are domain values. A byte that has
//! never been written is materialized on first read according to the
//! [`MissingPolicy`]: concrete executions read zero (the baseline image
//! zero-fills), symbolic explorations create an on-demand symbolic variable
//! per byte ("we modify FuzzBALL to create those variables on demand only
//! when a location is accessed", §3.3.2).

use std::collections::HashMap;

use pokemu_symx::Dom;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

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

/// One 4-KiB page. A page is created only by a write or by a read that
/// materializes a byte, so no page is ever all-`None`: two memories are
/// equal exactly when they hold the same initialized bytes.
#[derive(Debug, Clone, PartialEq)]
struct Page<V> {
    bytes: Vec<Option<V>>,
}

impl<V: Copy> Page<V> {
    fn new() -> Self {
        Page {
            bytes: vec![None; PAGE_SIZE],
        }
    }
}

/// Sparse physical memory over domain values.
#[derive(Debug, Clone, PartialEq)]
pub struct Memory<V> {
    pages: HashMap<u32, Page<V>>,
    policy: MissingPolicy,
    size: u32,
}

impl<V: Copy> Default for Memory<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> Memory<V> {
    /// Creates an empty memory of [`crate::state::PHYS_MEM_SIZE`] bytes with
    /// the zero policy.
    pub fn new() -> Self {
        Memory {
            pages: HashMap::new(),
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

    fn wrap(&self, addr: u32) -> u32 {
        addr % self.size
    }

    /// Reads one byte of physical memory.
    ///
    /// Unwritten bytes are materialized per the policy; a symbolic
    /// materialization is stored so later reads see the same variable.
    pub fn read_u8<D: Dom<V = V>>(&mut self, d: &mut D, addr: u32) -> V {
        let addr = self.wrap(addr);
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(Page::new);
        let slot = &mut page.bytes[(addr as usize) & (PAGE_SIZE - 1)];
        match *slot {
            Some(v) => v,
            None => {
                let v = match self.policy {
                    MissingPolicy::Zero => d.constant(8, 0),
                    MissingPolicy::Symbolic => d.fresh_input(8, &format!("mem_{addr:08x}")),
                };
                *slot = Some(v);
                v
            }
        }
    }

    /// Writes one byte of physical memory.
    pub fn write_u8(&mut self, addr: u32, v: V) {
        let addr = self.wrap(addr);
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(Page::new);
        page.bytes[(addr as usize) & (PAGE_SIZE - 1)] = Some(v);
    }

    /// Reads `n` bytes (1, 2 or 4) little-endian as one value of width `8n`.
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
            let a = self.wrap(addr);
            let off = (a as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - off);
            let page = self.pages.entry(a >> PAGE_SHIFT).or_insert_with(Page::new);
            for (slot, &b) in page.bytes[off..off + n].iter_mut().zip(&rest[..n]) {
                *slot = Some(d.constant(8, b as u64));
            }
            addr = addr.wrapping_add(n as u32);
            rest = &rest[n..];
        }
    }

    /// Iterates over all initialized bytes as `(address, value)` pairs in
    /// address order.
    pub fn iter_initialized(&self) -> impl Iterator<Item = (u32, V)> + '_ {
        let mut pages: Vec<(&u32, &Page<V>)> = self.pages.iter().collect();
        pages.sort_by_key(|(p, _)| **p);
        pages.into_iter().flat_map(|(pno, page)| {
            let base = pno << PAGE_SHIFT;
            page.bytes
                .iter()
                .enumerate()
                .filter_map(move |(i, b)| b.map(|v| (base + i as u32, v)))
        })
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
        let init: Vec<(u32, u64)> = m
            .iter_initialized()
            .map(|(a, v)| (a, d.as_const(v).unwrap()))
            .collect();
        let mut want: Vec<(u32, u64)> = (0..8).map(|i| (0x1ffc + i, i as u64 + 1)).collect();
        want.insert(0, (0, 0xcc));
        want.extend([(end - 2, 0xaa), (end - 1, 0xbb)]);
        assert_eq!(init, want);
    }

    #[test]
    fn load_bytes_then_iter() {
        let mut d = Concrete::new();
        let mut m: Memory<_> = Memory::new();
        m.load_bytes(&mut d, 0x7c00, &[1, 2, 3]);
        let init: Vec<(u32, u64)> = m
            .iter_initialized()
            .map(|(a, v)| (a, d.as_const(v).unwrap()))
            .collect();
        assert_eq!(init, vec![(0x7c00, 1), (0x7c01, 2), (0x7c02, 3)]);
    }
}
