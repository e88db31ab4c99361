//! The inverted index.

/// One postings entry: a document and the term's frequency in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// Document id.
    pub doc: u32,
    /// Term frequency within the document.
    pub tf: u32,
}

/// An immutable inverted index over term-id documents.
///
/// Terms are dense `u32` ids (the corpus's Zipf ranks, see
/// [`crate::corpus`]); postings are sorted by document id. Built via
/// [`IndexBuilder`].
#[derive(Clone, Debug)]
pub struct InvertedIndex {
    postings: Vec<Vec<Posting>>,
    doc_len: Vec<u32>,
    total_len: u64,
}

impl InvertedIndex {
    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Number of distinct terms (the dense id space size).
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// Average document length in tokens.
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_len.len() as f64
        }
    }

    /// Length of document `doc` in tokens.
    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_len[doc as usize]
    }

    /// Document frequency of `term` (0 for out-of-range ids).
    pub fn df(&self, term: u32) -> usize {
        self.postings.get(term as usize).map_or(0, |p| p.len())
    }

    /// The postings list for `term` (empty for out-of-range ids).
    pub fn postings(&self, term: u32) -> &[Posting] {
        self.postings
            .get(term as usize)
            .map_or(&[], |p| p.as_slice())
    }
}

/// Incremental index builder.
#[derive(Clone, Debug, Default)]
pub struct IndexBuilder {
    postings: Vec<Vec<Posting>>,
    doc_len: Vec<u32>,
    total_len: u64,
    /// Per-term scratch: tf of the current doc (term → count), stored
    /// sparsely as (term, count) pairs to avoid a vocab-sized buffer.
    scratch: Vec<(u32, u32)>,
}

impl IndexBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one document given as a term-id sequence; returns its doc id.
    pub fn add_doc(&mut self, terms: &[u32]) -> u32 {
        let doc = self.doc_len.len() as u32;
        self.doc_len.push(terms.len() as u32);
        self.total_len += terms.len() as u64;

        // Accumulate tf sparsely: sort a copy of the term ids.
        self.scratch.clear();
        let mut sorted: Vec<u32> = terms.to_vec();
        sorted.sort_unstable();
        let mut i = 0;
        while i < sorted.len() {
            let t = sorted[i];
            let mut j = i + 1;
            while j < sorted.len() && sorted[j] == t {
                j += 1;
            }
            self.scratch.push((t, (j - i) as u32));
            i = j;
        }

        for &(t, tf) in &self.scratch {
            let t = t as usize;
            if t >= self.postings.len() {
                self.postings.resize_with(t + 1, Vec::new);
            }
            // doc ids arrive in increasing order, so lists stay sorted.
            self.postings[t].push(Posting { doc, tf });
        }
        doc
    }

    /// Finalizes the index.
    pub fn build(self) -> InvertedIndex {
        InvertedIndex {
            postings: self.postings,
            doc_len: self.doc_len,
            total_len: self.total_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_tiny_index() {
        let mut b = IndexBuilder::new();
        let d0 = b.add_doc(&[0, 1, 1, 2]);
        let d1 = b.add_doc(&[1, 3]);
        assert_eq!((d0, d1), (0, 1));
        let idx = b.build();
        assert_eq!(idx.num_docs(), 2);
        assert_eq!(idx.num_terms(), 4);
        assert_eq!(idx.doc_len(0), 4);
        assert_eq!(idx.doc_len(1), 2);
        assert!((idx.avg_doc_len() - 3.0).abs() < 1e-12);
        assert_eq!(idx.df(1), 2);
        assert_eq!(idx.df(3), 1);
        assert_eq!(idx.df(99), 0);
        assert_eq!(
            idx.postings(1),
            &[Posting { doc: 0, tf: 2 }, Posting { doc: 1, tf: 1 }]
        );
        assert!(idx.postings(42).is_empty());
    }

    #[test]
    fn postings_sorted_by_doc() {
        let mut b = IndexBuilder::new();
        for i in 0..50 {
            b.add_doc(&[i % 5, (i + 1) % 5]);
        }
        let idx = b.build();
        for t in 0..5 {
            let p = idx.postings(t);
            assert!(p.windows(2).all(|w| w[0].doc < w[1].doc), "term {t}");
        }
    }

    #[test]
    fn empty_doc_and_empty_index() {
        let mut b = IndexBuilder::new();
        b.add_doc(&[]);
        let idx = b.build();
        assert_eq!(idx.num_docs(), 1);
        assert_eq!(idx.doc_len(0), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);

        let empty = IndexBuilder::new().build();
        assert_eq!(empty.num_docs(), 0);
        assert_eq!(empty.avg_doc_len(), 0.0);
    }
}
