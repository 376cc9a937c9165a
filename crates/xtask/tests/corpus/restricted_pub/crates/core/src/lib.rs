//! A `pub(crate)` fn reaching slice indexing is not an entry of its
//! own: only its `pub` caller is.

pub fn lookup(v: &[u64], i: usize) -> u64 {
    nth(v, i)
}

pub(crate) fn nth(v: &[u64], i: usize) -> u64 {
    v[i]
}
