//! The correctness oracle. Truth comes from the exact
//! [`bitmap::BitmapIndex`] (rects) and the table itself (cells); the
//! expected wire answer comes from the in-process [`ab::AbIndex`] of
//! each shard under the service's own kernel options. A served answer
//! must contain every truth row (recall 1 — the AB contract) and be
//! bit-identical to the in-process answer (every execution path
//! returns the same rows).

use ab::Cell;
use bitmap::{BinnedTable, BitmapIndex, Encoding, RectQuery};
use net::{Request, Response};
use svc::Service;

/// Why a response was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// A truth row (or a set cell) is missing: a false negative.
    MissesTruth,
    /// The rows differ from the in-process `AbIndex` answer.
    DiffersFromInProcess,
    /// An error frame, a degraded answer, or the wrong response kind.
    NotAnAnswer,
}

/// Positives a correct response reported, split for `precision`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Truth rows (rects) or truly set cells reported set (cells).
    pub truth: u64,
    /// Rows returned (rects) or cells reported set (cells).
    pub returned: u64,
}

/// The exact answer to one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Truth {
    /// Matching rows, ascending.
    Rows(Vec<usize>),
    /// Whether each cell is set, request order.
    Cells(Vec<bool>),
}

/// Exact answers over the source table.
pub struct Oracle<'t> {
    table: &'t BinnedTable,
    exact: BitmapIndex,
}

impl<'t> Oracle<'t> {
    /// Builds the equality-encoded bitmap index over `table`.
    pub fn new(table: &'t BinnedTable) -> Self {
        Oracle {
            table,
            exact: BitmapIndex::build(table, Encoding::Equality),
        }
    }

    /// Exact rows of a rect.
    pub fn rect_truth(&self, query: &RectQuery) -> Vec<usize> {
        self.exact.evaluate_rows(query)
    }

    /// Whether each cell is set in the table.
    pub fn cells_truth(&self, cells: &[Cell]) -> Vec<bool> {
        cells
            .iter()
            .map(|c| self.table.column(c.attribute).bins[c.row] == c.bin)
            .collect()
    }

    /// The exact answer to `req`.
    pub fn truth(&self, req: &Request) -> Truth {
        match req {
            Request::Rect { query, .. } => Truth::Rows(self.rect_truth(query)),
            Request::Cells { cells, .. } => Truth::Cells(self.cells_truth(cells)),
            other => panic!("the workloads issue rects and cell batches only, not {other:?}"),
        }
    }
}

/// The response the server must send for `req`: each shard's
/// `AbIndex` asked directly, on the calling thread, under the
/// service's kernel options, merged in shard order.
pub fn in_process_answer(service: &Service, req: &Request) -> Response {
    let index = service.index();
    let opts = service.kernel_opts();
    match req {
        Request::Rect { query, .. } => {
            let mut rows = Vec::new();
            for (sid, local) in index.split_rect(query) {
                let shard = &index.shards()[sid];
                let part = shard
                    .index()
                    .try_execute_rect_with_opts(&local, opts)
                    .expect("generated rects are in range");
                rows.extend(part.into_iter().map(|r| (r + shard.start()) as u64));
            }
            Response::Rect {
                degraded: Vec::new(),
                rows,
            }
        }
        Request::Cells { cells, .. } => {
            let mut hits = vec![false; cells.len()];
            for group in svc::group_cells_by_shard(index, cells) {
                let local: Vec<Cell> = group.cells.iter().map(|&(_, c)| c).collect();
                let answers = index.shards()[group.shard]
                    .index()
                    .retrieve_cells_with_opts(&local, opts);
                for (&(pos, _), hit) in group.cells.iter().zip(answers) {
                    hits[pos] = hit;
                }
            }
            Response::Cells {
                degraded: Vec::new(),
                hits,
            }
        }
        other => panic!("the workloads issue rects and cell batches only, not {other:?}"),
    }
}

/// Checks one served response against the truth and the in-process
/// answer.
pub fn check(truth: &Truth, expected: &Response, got: &Response) -> Result<Tally, Reject> {
    let tally = match (truth, got) {
        (Truth::Rows(truth), Response::Rect { degraded, rows }) if degraded.is_empty() => {
            // Both ascending: every truth row must appear in order.
            let mut served = rows.iter();
            for &t in truth {
                if !served.any(|&r| r == t as u64) {
                    return Err(Reject::MissesTruth);
                }
            }
            Tally {
                truth: truth.len() as u64,
                returned: rows.len() as u64,
            }
        }
        (Truth::Cells(truth), Response::Cells { degraded, hits })
            if degraded.is_empty() && hits.len() == truth.len() =>
        {
            if truth.iter().zip(hits).any(|(&t, &h)| t && !h) {
                return Err(Reject::MissesTruth);
            }
            Tally {
                truth: truth.iter().filter(|&&t| t).count() as u64,
                returned: hits.iter().filter(|&&h| h).count() as u64,
            }
        }
        _ => return Err(Reject::NotAnAnswer),
    };
    if got != expected {
        return Err(Reject::DiffersFromInProcess);
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(rows: &[u64]) -> Response {
        Response::Rect {
            degraded: Vec::new(),
            rows: rows.to_vec(),
        }
    }

    #[test]
    fn accepts_the_in_process_answer_with_its_false_positives() {
        let truth = Truth::Rows(vec![3, 9]);
        let expected = rect(&[3, 5, 9]); // 5 is an AB false positive
        assert_eq!(
            check(&truth, &expected, &rect(&[3, 5, 9])),
            Ok(Tally {
                truth: 2,
                returned: 3
            })
        );
    }

    #[test]
    fn rejects_a_response_with_one_truth_row_removed() {
        let truth = Truth::Rows(vec![3, 9]);
        let expected = rect(&[3, 5, 9]);
        assert_eq!(
            check(&truth, &expected, &rect(&[3, 5])),
            Err(Reject::MissesTruth)
        );
        // Even if the in-process answer had the same hole.
        assert_eq!(
            check(&truth, &rect(&[3, 5]), &rect(&[3, 5])),
            Err(Reject::MissesTruth)
        );
    }

    #[test]
    fn rejects_a_spurious_row_only_when_the_in_process_answer_lacks_it() {
        let truth = Truth::Rows(vec![3, 9]);
        let expected = rect(&[3, 5, 9]);
        assert_eq!(
            check(&truth, &expected, &rect(&[3, 5, 7, 9])),
            Err(Reject::DiffersFromInProcess)
        );
        assert!(check(&truth, &expected, &rect(&[3, 5, 9])).is_ok());
    }

    #[test]
    fn one_flipped_bit_in_a_response_is_rejected() {
        let truth = Truth::Rows(vec![3, 9]);
        let expected = rect(&[3, 5, 9]);
        for (i, bit) in [(0usize, 1u64), (1, 2), (2, 1 << 40)] {
            let mut rows = vec![3u64, 5, 9];
            rows[i] ^= bit;
            assert!(check(&truth, &expected, &rect(&rows)).is_err(), "row {i}");
        }
    }

    #[test]
    fn cells_must_not_miss_a_set_cell_and_must_match_in_process() {
        let truth = Truth::Cells(vec![true, false, false]);
        let cells = |hits: &[bool]| Response::Cells {
            degraded: Vec::new(),
            hits: hits.to_vec(),
        };
        let expected = cells(&[true, true, false]); // one false positive
        assert_eq!(
            check(&truth, &expected, &expected),
            Ok(Tally {
                truth: 1,
                returned: 2
            })
        );
        assert_eq!(
            check(&truth, &expected, &cells(&[false, true, false])),
            Err(Reject::MissesTruth)
        );
        assert_eq!(
            check(&truth, &expected, &cells(&[true, false, false])),
            Err(Reject::DiffersFromInProcess)
        );
        assert_eq!(
            check(&truth, &expected, &cells(&[true, true])),
            Err(Reject::NotAnAnswer)
        );
    }

    #[test]
    fn errors_and_degraded_answers_are_not_answers() {
        let truth = Truth::Rows(vec![1]);
        let degraded = Response::Rect {
            degraded: vec![0],
            rows: vec![1],
        };
        assert_eq!(
            check(&truth, &rect(&[1]), &degraded),
            Err(Reject::NotAnAnswer)
        );
        let err = Response::Error {
            code: net::ErrorCode::Overloaded,
            retryable: true,
            message: String::new(),
        };
        assert_eq!(check(&truth, &rect(&[1]), &err), Err(Reject::NotAnAnswer));
    }
}
