//! Copy-on-write 4-KiB pages: the one page type of guest memory
//! ([`crate::Memory`] and Lo-Fi's RAM) and of snapshot images
//! ([`crate::PagedMem`]).
//!
//! A page is owned or shared. Writing an owned page is a plain store, with
//! no reference count to touch. A shared page is read-only: the first
//! write through [`Page::make_mut`] copies it into an owned one. Cloning
//! copies an owned page and shares a shared one, so a memory whose pages
//! were all [`Page::share`]d clones without copying a page. That is how a
//! forked run or an explored path starts from its template, and how a
//! snapshot holds the pages a run left unchanged.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Slots (bytes) per page.
pub const PAGE_SIZE: usize = 4096;
/// `log2(PAGE_SIZE)`.
pub const PAGE_SHIFT: u32 = 12;

/// The slots of one page.
pub type Slots<S> = [S; PAGE_SIZE];

/// A 4-KiB page of slots that clones share until one of them writes it.
pub enum Page<S> {
    /// Held by one memory, which writes it in place.
    Owned(Box<Slots<S>>),
    /// Shared by clones, and copied on the first write.
    Shared(Arc<Slots<S>>),
}

impl<S: Copy> Page<S> {
    /// An owned page with every slot `fill`.
    pub fn filled(fill: S) -> Self {
        Page::Owned(sized(vec![fill; PAGE_SIZE].into_boxed_slice()))
    }

    /// The slots, writable. A shared page is first copied into an owned
    /// one, so a write never reaches the page's other holders.
    pub fn make_mut(&mut self) -> &mut Slots<S> {
        if let Page::Shared(shared) = self {
            *self = Page::Owned(sized(Box::<[S]>::from(&shared[..])));
        }
        match self {
            Page::Owned(owned) => owned,
            Page::Shared(_) => unreachable!("just made owned"),
        }
    }

    /// Makes the page shared, copying an owned page once, so that clones
    /// of it copy nothing.
    pub fn share(&mut self) {
        if let Page::Owned(owned) = self {
            *self = Page::Shared(sized(Arc::<[S]>::from(&owned[..])));
        }
    }
}

/// `PAGE_SIZE` slots (in a `Box` or an `Arc`) as a page.
fn sized<Q, P: TryFrom<Q>>(slots: Q) -> P {
    P::try_from(slots).unwrap_or_else(|_| unreachable!("PAGE_SIZE slots"))
}

impl<S> Deref for Page<S> {
    type Target = Slots<S>;

    fn deref(&self) -> &Slots<S> {
        match self {
            Page::Owned(owned) => owned,
            Page::Shared(shared) => shared,
        }
    }
}

/// Copies an owned page and shares a shared one.
impl<S: Copy> Clone for Page<S> {
    fn clone(&self) -> Self {
        match self {
            Page::Owned(owned) => Page::Owned(owned.clone()),
            Page::Shared(shared) => Page::Shared(Arc::clone(shared)),
        }
    }
}

/// Equal slots; two handles to one shared page compare without reading it.
impl<S: PartialEq> PartialEq for Page<S> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Page::Shared(a), Page::Shared(b)) if Arc::ptr_eq(a, b) => true,
            _ => self[..] == other[..],
        }
    }
}

impl<S: Eq> Eq for Page<S> {}

/// Prints whether the page is owned or shared, not its 4,096 slots.
impl<S> fmt::Debug for Page<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Page::Owned(_) => "Owned",
            Page::Shared(_) => "Shared",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_to_a_shared_page_copies_it() {
        let mut template = Page::filled(0u8);
        template.make_mut()[7] = 1;
        template.share();
        let mut fork = template.clone();
        assert!(matches!(fork, Page::Shared(_)));
        assert_eq!(fork, template);
        fork.make_mut()[7] = 2;
        assert!(matches!(fork, Page::Owned(_)));
        assert_eq!((template[7], fork[7]), (1, 2));
        // An owned page clones by copy.
        let mut copy = fork.clone();
        copy.make_mut()[7] = 3;
        assert_eq!((fork[7], copy[7]), (2, 3));
    }
}
