//! The benchmark's own reference evaluator.
//!
//! A plain breadth-first search over product states `(vertex, block,
//! position)` built from the graph's raw edge list. It shares no code with
//! the program under test (no `rlc-core`, no `rlc-baselines`), so an answer
//! that the index, the planner, the stitcher or the server gets wrong cannot
//! be reproduced by the reference through a shared bug.
//!
//! A constraint `B1+ ∘ … ∘ Bm+` is a list of blocks of label ids. A state
//! `(v, b, p)` means: at vertex `v`, inside a repetition of block `b`, about
//! to read its label at position `p`. Completing a repetition of block `b`
//! at vertex `w` either restarts block `b` or moves to block `b + 1`; when
//! `b` is the last block, `w` is an answer.

use std::collections::VecDeque;

/// A directed edge `(source, label, target)` of the generated input.
pub type RawEdge = (u32, u16, u32);

/// Forward adjacency of the edge list, in compressed rows.
pub struct Reference {
    offsets: Vec<usize>,
    targets: Vec<(u16, u32)>,
    vertices: usize,
}

impl Reference {
    /// Indexes `edges` over `vertices` vertices.
    pub fn new(vertices: usize, edges: &[RawEdge]) -> Self {
        let mut offsets = vec![0usize; vertices + 1];
        for &(s, _, _) in edges {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..vertices {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![(0u16, 0u32); edges.len()];
        for &(s, l, t) in edges {
            targets[fill[s as usize]] = (l, t);
            fill[s as usize] += 1;
        }
        Reference {
            offsets,
            targets,
            vertices,
        }
    }

    /// Every vertex reachable from `source` by a path whose labels spell
    /// `B1+ ∘ … ∘ Bm+`, as a membership vector over all vertices.
    pub fn reach_set(&self, source: u32, blocks: &[Vec<u16>]) -> Vec<bool> {
        let starts: Vec<usize> = blocks
            .iter()
            .scan(0usize, |acc, block| {
                let start = *acc;
                *acc += block.len();
                Some(start)
            })
            .collect();
        let positions: usize = blocks.iter().map(Vec::len).sum();
        let state = |v: u32, b: usize, p: usize| v as usize * positions + starts[b] + p;
        let mut seen = vec![false; self.vertices * positions];
        let mut answer = vec![false; self.vertices];
        let mut queue = VecDeque::new();
        seen[state(source, 0, 0)] = true;
        queue.push_back((source, 0usize, 0usize));
        while let Some((v, b, p)) = queue.pop_front() {
            let want = blocks[b][p];
            for &(label, w) in &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
            {
                if label != want {
                    continue;
                }
                let mut next = Vec::with_capacity(2);
                if p + 1 < blocks[b].len() {
                    next.push((b, p + 1));
                } else {
                    next.push((b, 0));
                    if b + 1 < blocks.len() {
                        next.push((b + 1, 0));
                    } else {
                        answer[w as usize] = true;
                    }
                }
                for (nb, np) in next {
                    let id = state(w, nb, np);
                    if !seen[id] {
                        seen[id] = true;
                        queue.push_back((w, nb, np));
                    }
                }
            }
        }
        answer
    }

    /// Whether `target` is reachable from `source` under the constraint.
    pub fn answer(&self, source: u32, target: u32, blocks: &[Vec<u16>]) -> bool {
        self.reach_set(source, blocks)[target as usize]
    }

    /// Answers of `queries` (`(source, target, blocks)`), in order, with
    /// one search per distinct `(source, blocks)` and one answer set alive
    /// at a time.
    pub fn answers(&self, queries: &[(u32, u32, Vec<Vec<u16>>)]) -> Vec<bool> {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by(|&a, &b| (queries[a].0, &queries[a].2).cmp(&(queries[b].0, &queries[b].2)));
        let mut out = vec![false; queries.len()];
        let mut i = 0;
        while i < order.len() {
            let (source, _, blocks) = &queries[order[i]];
            let set = self.reach_set(*source, blocks);
            while i < order.len()
                && (queries[order[i]].0, &queries[order[i]].2) == (*source, blocks)
            {
                out[order[i]] = set[queries[order[i]].1 as usize];
                i += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The graph of the paper's Fig. 2 with `v1..v6` as ids `0..5` and
    /// labels `l1, l2, l3` as `0, 1, 2`.
    fn fig2() -> Reference {
        let edges: Vec<RawEdge> = vec![
            (0, 0, 1),
            (0, 1, 2),
            (1, 0, 4),
            (1, 1, 4),
            (2, 0, 1),
            (2, 0, 5),
            (2, 1, 0),
            (2, 1, 3),
            (3, 0, 0),
            (3, 2, 5),
            (4, 0, 0),
        ];
        Reference::new(6, &edges)
    }

    #[test]
    fn fig2_example_answers() {
        let r = fig2();
        // Example 4: Q1(v3, v6, (l2, l1)+) is true.
        assert!(r.answer(2, 5, &[vec![1, 0]]));
        // Example 4: Q2(v1, v2, (l2, l1)+) is true.
        assert!(r.answer(0, 1, &[vec![1, 0]]));
        // Example 4: Q3(v1, v3, (l1)+) is false, though v1 reaches v3 by (l2)+.
        assert!(!r.answer(0, 2, &[vec![0]]));
        assert!(r.answer(0, 2, &[vec![1]]));
    }

    #[test]
    fn fig2_concatenations_and_empty_paths() {
        let r = fig2();
        // v1 -l2-> v3 -l1-> v6: (l2)+ ∘ (l1)+ holds, (l1)+ ∘ (l2)+ does not.
        assert!(r.answer(0, 5, &[vec![1], vec![0]]));
        assert!(!r.answer(0, 5, &[vec![0], vec![1]]));
        // Kleene plus needs one repetition: v6 has no out-edge, so it does
        // not reach itself.
        assert!(!r.answer(5, 5, &[vec![0]]));
        // v1 -l1-> v2 -l1-> v5 -l1-> v1 is a cycle under (l1)+.
        assert!(r.answer(0, 0, &[vec![0]]));
        // Every repetition must be complete: v1 -l2-> v3 -l1-> v2 ends a
        // repetition of (l2, l1), v1 -l2-> v3 alone does not.
        assert!(r.answer(0, 1, &[vec![1, 0]]));
        assert!(!r.answer(0, 2, &[vec![1, 0]]));
    }

    #[test]
    fn grouped_answers_match_one_at_a_time() {
        let r = fig2();
        let blocks = [vec![vec![0]], vec![vec![1, 0]], vec![vec![1], vec![0]]];
        let queries: Vec<(u32, u32, Vec<Vec<u16>>)> = (0..6)
            .flat_map(|s| (0..6).map(move |t| (s, t)))
            .flat_map(|(s, t)| blocks.iter().map(move |b| (t, s, b.clone())))
            .collect();
        let grouped = r.answers(&queries);
        for (q, got) in queries.iter().zip(grouped) {
            assert_eq!(got, r.answer(q.0, q.1, &q.2), "{q:?}");
        }
    }
}
