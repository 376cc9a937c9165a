//! Flat row layouts for the per-slot hot loops.
//!
//! [`SlotDemand`](crate::SlotDemand) keeps each hotspot's videos sorted by
//! id, so the per-slot stages that look videos up or combine two
//! per-hotspot lists work on sorted rows instead of tree containers:
//!
//! - [`FlatRows`] stores variable-length rows in a single buffer (CSR
//!   layout). Placement validation keeps each hotspot's cached videos as
//!   a sorted row and looks them up with a binary search. Failover
//!   routing keeps each hotspot's radius neighbours as a row in serving
//!   order, and each demanded video's holders as a row of hotspots
//!   ([`FlatRows::holders`]), so a membership test searches a short row
//!   and a video no hotspot holds is seen at once.
//! - [`merge_join`] walks two video-sorted rows in one pass, which is how
//!   forecast errors, demand shifts and the predictors' state updates
//!   combine a hotspot's old and new lists.

use ccdn_trace::VideoId;
use std::cmp::Ordering;

/// Variable-length rows in one flat buffer.
///
/// Lookups never panic: a row index past the last row reads as an empty
/// row. They call slice methods by path (`<[T]>::get`), because
/// ccdn-analyze resolves a method call by its name alone and `.get(`
/// would link them to the panicking `DistanceMatrix::get`.
#[derive(Debug)]
pub(crate) struct FlatRows<T> {
    items: Vec<T>,
    /// `(start, end)` of each row in `items`.
    spans: Vec<(usize, usize)>,
}

impl<T: Copy> FlatRows<T> {
    /// No rows yet, with room for `rows` rows of `items` entries in all.
    pub(crate) fn with_capacity(rows: usize, items: usize) -> Self {
        FlatRows { items: Vec::with_capacity(items), spans: Vec::with_capacity(rows) }
    }

    /// Appends `row` as the next row and returns it, so the caller can
    /// reorder it in place.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = T>) -> &mut [T] {
        let start = self.items.len();
        self.items.extend(row);
        self.spans.push((start, self.items.len()));
        <[T]>::get_mut(&mut self.items, start..).unwrap_or_default()
    }

    /// Row `h` (empty past the last row).
    pub(crate) fn row_at(&self, h: usize) -> &[T] {
        <[(usize, usize)]>::get(&self.spans, h)
            .and_then(|&(start, end)| <[T]>::get(&self.items, start..end))
            .unwrap_or_default()
    }
}

impl<T: Copy + Ord> FlatRows<T> {
    /// Whether the sorted row `row` holds `item`.
    pub(crate) fn row_holds(&self, row: usize, item: T) -> bool {
        self.row_at(row).binary_search(&item).is_ok()
    }
}

impl FlatRows<usize> {
    /// Holder rows of one placement list per hotspot: row `v` lists, in
    /// ascending order, the hotspots whose list places video `v`, for every
    /// `v < videos`. A placed video at or above `videos` is left out, so
    /// the index is sized by the caller's video range, not by the largest
    /// id a scheme places. Built in one counting pass: count each video's
    /// holders, then fill the rows in hotspot order.
    pub(crate) fn holders(placements: &[Vec<VideoId>], videos: usize) -> Self {
        // `spans[v]` first counts row `v`'s holders, then is its
        // `(start, end)` with `end` advancing as the row fills.
        let mut spans = vec![(0usize, 0usize); videos];
        for v in placements.iter().flatten() {
            if let Some(span) = <[(usize, usize)]>::get_mut(&mut spans, v.0 as usize) {
                span.1 += 1;
            }
        }
        let mut total = 0;
        for span in &mut spans {
            let count = span.1;
            *span = (total, total);
            total += count;
        }
        let mut items = vec![0usize; total];
        for (h, placement) in placements.iter().enumerate() {
            for v in placement {
                if let Some(span) = <[(usize, usize)]>::get_mut(&mut spans, v.0 as usize) {
                    if let Some(item) = <[usize]>::get_mut(&mut items, span.1) {
                        *item = h;
                    }
                    span.1 += 1;
                }
            }
        }
        FlatRows { items, spans }
    }
}

/// One step of a [`merge_join`]: a video found in the left row only, in
/// the right row only, or in both.
#[derive(Debug)]
pub(crate) enum Joined<A, B> {
    /// Only in the left row.
    Left(A),
    /// Only in the right row.
    Right(B),
    /// In both rows.
    Both(A, B),
}

/// Merge-join of two rows sorted by ascending video id, each video at
/// most once per row: yields every video of either row once, in video
/// order.
pub(crate) fn merge_join<'a, 'b, A, B>(
    mut left: &'a [A],
    left_video: impl Fn(&A) -> VideoId,
    mut right: &'b [B],
    right_video: impl Fn(&B) -> VideoId,
) -> impl Iterator<Item = Joined<&'a A, &'b B>> {
    std::iter::from_fn(move || {
        let (joined, rest_left, rest_right) = match (left.split_first(), right.split_first()) {
            (None, None) => return None,
            (Some((a, l)), None) => (Joined::Left(a), l, right),
            (None, Some((b, r))) => (Joined::Right(b), left, r),
            (Some((a, l)), Some((b, r))) => match left_video(a).cmp(&right_video(b)) {
                Ordering::Less => (Joined::Left(a), l, right),
                Ordering::Greater => (Joined::Right(b), left, r),
                Ordering::Equal => (Joined::Both(a, b), l, r),
            },
        };
        (left, right) = (rest_left, rest_right);
        Some(joined)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn rows_keep_their_bounds() {
        let mut rows = FlatRows::with_capacity(3, 4);
        rows.push_row([3usize, 1]);
        rows.push_row([]);
        rows.push_row([7usize, 5]).sort_unstable();
        assert_eq!(rows.row_at(0), &[3, 1]);
        assert!(rows.row_at(1).is_empty());
        assert_eq!(rows.row_at(2), &[5, 7]);
        assert!(rows.row_at(3).is_empty(), "past the last row");
    }

    #[test]
    fn holder_rows_list_each_videos_hotspots_in_order() {
        let placements = vec![
            vec![VideoId(2), VideoId(0)],
            vec![],
            vec![VideoId(0), VideoId(9)],
            vec![VideoId(2)],
        ];
        let holders = FlatRows::holders(&placements, 4);
        assert_eq!(holders.row_at(0), &[0, 2]);
        assert!(holders.row_at(1).is_empty());
        assert_eq!(holders.row_at(2), &[0, 3]);
        assert!(holders.row_at(3).is_empty());
        assert!(holders.row_at(9).is_empty(), "a video past the range is left out");
        assert!(holders.row_holds(2, 3) && !holders.row_holds(2, 2));
    }

    proptest! {
        /// Holder rows answer every membership query a sorted placement
        /// row does, for videos inside the range.
        #[test]
        fn prop_holder_rows_invert_the_placements(
            raw in prop::collection::vec(prop::collection::btree_set(0u32..30, 0..8), 0..12),
            videos in 0usize..40,
        ) {
            let placements: Vec<Vec<VideoId>> =
                raw.iter().map(|set| set.iter().rev().copied().map(VideoId).collect()).collect();
            let holders = FlatRows::holders(&placements, videos);
            for v in 0..videos {
                let want: Vec<usize> = (0..placements.len())
                    .filter(|&h| raw[h].contains(&(v as u32)))
                    .collect();
                prop_assert_eq!(holders.row_at(v), &want[..], "video {}", v);
            }
            prop_assert!(holders.row_at(videos).is_empty());
        }

        /// The join yields the union of both rows in video order, tagging
        /// each video with the rows that hold it.
        #[test]
        fn prop_merge_join_tags_the_union(
            left in prop::collection::btree_set(0u32..40, 0..20),
            right in prop::collection::btree_set(0u32..40, 0..20),
        ) {
            let l: Vec<VideoId> = left.iter().copied().map(VideoId).collect();
            let r: Vec<VideoId> = right.iter().copied().map(VideoId).collect();
            let joined: Vec<(u32, bool, bool)> = merge_join(&l, |v| *v, &r, |v| *v)
                .map(|j| match j {
                    Joined::Left(v) => (v.0, true, false),
                    Joined::Right(v) => (v.0, false, true),
                    Joined::Both(a, b) => {
                        assert_eq!(a, b);
                        (a.0, true, true)
                    }
                })
                .collect();
            let union: BTreeSet<u32> = left.union(&right).copied().collect();
            let expected: Vec<(u32, bool, bool)> = union
                .into_iter()
                .map(|v| (v, left.contains(&v), right.contains(&v)))
                .collect();
            prop_assert_eq!(joined, expected);
        }
    }
}
