//! The ingest journal (`--ingest-log`): the one record of a server's
//! ingest history.
//!
//! Each accepted `POST /ingest` batch appends its op lines, one
//! [`DeltaOp`] per line. A batch that triggers a fold appends `{"fold":N}`
//! after them in the same fsync'd write, `N` being the number of op lines
//! folded so far. A fold re-densifies POI and photo ids and later ops
//! address the new ids, so the markers are part of the data: every boot
//! folds the journal's ops at exactly its markers and seals the ops after
//! the last one as the live delta, with or without an index cache.

use soi_common::{Result, SoiError};
use soi_data::Dataset;
use soi_index::{DeltaIndex, DeltaOp, PoiIndex};
use soi_text::Vocabulary;
use std::path::{Path, PathBuf};

/// A fold marker is exactly this, `N` and `}`. An op line always has an
/// `"op"` field (`/ingest` takes no other), so none has that form.
const MARKER: &str = "{\"fold\":";

/// A journal read back: its ops and the fold points between them.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    path: PathBuf,
    /// Every op line, parsed, in journal order.
    ops: Vec<DeltaOp>,
    /// One `(op lines folded so far, 1-based marker line)` per marker.
    folds: Vec<(usize, usize)>,
    /// The 1-based line of the first op after the last marker.
    pending_line: usize,
}

/// A replay failure: a `Data` error naming the journal and its line.
fn at_line(path: &Path, line: usize, message: String) -> SoiError {
    SoiError::parse(line, message).at_path(path)
}

impl Journal {
    /// Reads the journal at `path`. No path, or no file there yet, is an
    /// empty journal.
    ///
    /// # Errors
    /// A `Data` error naming the journal and the 1-based line for an op
    /// line that does not parse against `vocab` or a marker that does not
    /// count the op lines before it; an I/O error when the file cannot be
    /// read.
    pub(crate) fn read(path: Option<&Path>, vocab: &Vocabulary) -> Result<Journal> {
        let Some(path) = path.filter(|p| p.exists()) else {
            return Ok(Journal::default());
        };
        let bytes = std::fs::read(path)
            .map_err(|e| SoiError::io(e, path).with_context("reading the ingest journal"))?;
        // Bytes that are not UTF-8 become U+FFFD, which no op line parses
        // with, so they are reported at their line.
        let text = String::from_utf8_lossy(&bytes);
        let mut journal = Journal {
            path: path.to_path_buf(),
            ..Journal::default()
        };
        for (i, line) in text.lines().enumerate() {
            let (n, line) = (i + 1, line.trim());
            if line.is_empty() {
                continue;
            }
            let marker = line
                .strip_prefix(MARKER)
                .and_then(|rest| rest.strip_suffix('}'))
                .and_then(|count| count.parse::<usize>().ok());
            let Some(count) = marker else {
                let op = DeltaOp::parse_line(line, vocab)
                    .map_err(|e| at_line(path, n, e.to_string()))?;
                if journal.ops.len() == journal.applied() {
                    journal.pending_line = n;
                }
                journal.ops.push(op);
                continue;
            };
            let previous = journal.applied();
            if count <= previous {
                let message = format!("fold marker {count} does not advance past {previous}");
                return Err(at_line(path, n, message));
            }
            if count != journal.ops.len() {
                let message = format!(
                    "fold marker {count} disagrees with the {} op lines before it",
                    journal.ops.len()
                );
                return Err(at_line(path, n, message));
            }
            journal.folds.push((count, n));
        }
        Ok(journal)
    }

    /// Op lines the last marker folded.
    pub(crate) fn applied(&self) -> usize {
        self.folds.last().map_or(0, |&(count, _)| count)
    }

    /// Fold markers read.
    pub(crate) fn folds(&self) -> usize {
        self.folds.len()
    }

    /// `base` with the ops before each marker folded in, marker by marker:
    /// each fold re-densifies the ids the next one's ops address.
    ///
    /// # Errors
    /// A `Data` error naming the journal and the marker whose ops do not
    /// fold (an unknown or doubly deleted id).
    pub(crate) fn fold(&self, base: &Dataset) -> Result<Dataset> {
        let mut dataset = base.clone();
        let mut start = 0;
        for &(end, line) in &self.folds {
            (dataset.pois, dataset.photos) =
                soi_index::fold_ops(&dataset.pois, &dataset.photos, &self.ops[start..end])
                    .map_err(|e| at_line(&self.path, line, format!("folding the ops: {e}")))?;
            start = end;
        }
        Ok(dataset)
    }

    /// The ops after the last marker sealed over the folded base, `None`
    /// when there are none.
    ///
    /// # Errors
    /// A `Data` error naming the journal and the first of those ops when
    /// they do not seal.
    pub(crate) fn seal_pending(
        &self,
        index: &PoiIndex,
        base: &Dataset,
    ) -> Result<Option<DeltaIndex>> {
        let pending = self.pending();
        if pending.is_empty() {
            return Ok(None);
        }
        DeltaIndex::seal(index, &base.pois, &base.photos, pending)
            .map(Some)
            .map_err(|e| {
                let message = format!("sealing the ops from this line on: {e}");
                at_line(&self.path, self.pending_line, message)
            })
    }

    /// The ops after the last marker: the boot epoch's pending delta.
    pub(crate) fn pending(&self) -> &[DeltaOp] {
        &self.ops[self.applied()..]
    }
}

/// Appends one accepted batch: its op lines, then `{"fold":N}` when the
/// batch folds, in one write that is fsync'd before this returns (so an
/// acknowledged batch survives a crash).
///
/// # Errors
/// I/O failures opening, writing or syncing the journal.
pub(crate) fn append(path: &Path, lines: &[&str], fold: Option<u64>) -> Result<()> {
    use std::io::Write;
    let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 32);
    for line in lines {
        buf.push_str(line);
        buf.push('\n');
    }
    if let Some(count) = fold {
        buf.push_str(&format!("{MARKER}{count}}}\n"));
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| SoiError::io(e, path).with_context("opening the ingest journal"))?;
    file.write_all(buf.as_bytes())
        .and_then(|()| file.sync_data())
        .map_err(|e| SoiError::io(e, path).with_context("appending to the ingest journal"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_common::{ErrorCategory, PoiId};

    fn dataset() -> &'static Dataset {
        static DATASET: std::sync::OnceLock<Dataset> = std::sync::OnceLock::new();
        DATASET.get_or_init(|| soi_datagen::generate(&soi_datagen::london(0.01)).0)
    }

    fn temp_journal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("soi-journal-{}-{name}.jsonl", std::process::id()))
    }

    /// Writes `text` as a journal and reads it back.
    fn read(name: &str, text: &str) -> Result<Journal> {
        let path = temp_journal(name);
        std::fs::write(&path, text).expect("write journal");
        let journal = Journal::read(Some(&path), &dataset().vocab);
        std::fs::remove_file(&path).ok();
        journal
    }

    /// The message of `err`, which must be a `Data` error (exit 3) naming
    /// the journal and `line`.
    fn data_error_at(err: SoiError, line: usize) -> String {
        assert_eq!(err.category(), ErrorCategory::Data, "{err}");
        assert_eq!(err.category().exit_code(), 3);
        let message = err.to_string();
        assert!(message.contains("soi-journal-"), "no path in: {message}");
        assert!(
            message.contains(&format!("record {line}:")),
            "no line {line} in: {message}"
        );
        message
    }

    const DEL0: &str = r#"{"op":"del_poi","id":0}"#;
    const DEL1: &str = r#"{"op":"del_poi","id":1}"#;

    #[test]
    fn no_journal_and_an_empty_one_replay_nothing() {
        let absent = temp_journal("absent");
        for journal in [
            Journal::read(None, &dataset().vocab).expect("no path"),
            Journal::read(Some(&absent), &dataset().vocab).expect("no file"),
            read("empty", "").expect("empty file"),
        ] {
            assert_eq!((journal.applied(), journal.folds()), (0, 0));
            let folded = journal.fold(dataset()).expect("folds");
            assert_eq!(folded.pois.len(), dataset().pois.len());
            assert!(journal.pending().is_empty());
        }
    }

    #[test]
    fn blank_lines_are_skipped_but_counted() {
        let journal = read("blank", &format!("\n{DEL0}\n   \n\n{DEL1}\n\n")).expect("reads");
        assert_eq!((journal.applied(), journal.folds()), (0, 0));
        assert_eq!(journal.pending_line, 2);
        assert_eq!(journal.pending().len(), 2);
        let err = read("blank-bad", &format!("{DEL0}\n\n\nnot json\n")).expect_err("bad line");
        let message = data_error_at(err, 4);
        assert!(message.contains("malformed delta line"), "{message}");
    }

    #[test]
    fn markers_fold_in_order_as_fold_dataset_does() {
        // Delete 0 and 1 and fold; delete the new 0 (the old 2) and fold;
        // one more delete stays pending.
        let text = format!("{DEL0}\n{DEL1}\n{{\"fold\":2}}\n{DEL0}\n{{\"fold\":3}}\n{DEL0}\n");
        let journal = read("markers", &text).expect("reads");
        assert_eq!((journal.applied(), journal.folds()), (3, 2));
        assert_eq!(journal.pending_line, 6);
        let folded = journal.fold(dataset()).expect("folds");
        let base = &dataset().pois;
        assert_eq!(folded.pois.len(), base.len() - 3);
        let first = folded.pois.iter().next().expect("a POI survives").pos;
        assert_eq!(first, base.iter().nth(3).expect("a fourth POI").pos);
        let mirror = soi_index::fold_dataset(dataset(), &[DEL0, DEL1, DEL0], &[2, 3])
            .expect("the same folds");
        assert_eq!(
            soi_index::dataset_fingerprint(&folded),
            soi_index::dataset_fingerprint(&mirror)
        );
        assert_eq!(
            journal.pending().to_vec(),
            vec![DeltaOp::DeletePoi { id: PoiId(0) }]
        );
    }

    #[test]
    fn only_the_exact_marker_form_is_a_marker() {
        // `/ingest` takes any line with an op, extra fields included.
        let lookalike = "{\"fold\":1,\"op\":\"del_poi\",\"id\":0}\n";
        let journal = read("lookalike", lookalike).expect("reads");
        assert_eq!((journal.applied(), journal.folds()), (0, 0));
        assert_eq!(journal.pending().len(), 1);
        let err = read("garbled", &format!("{DEL0}\n{{\"fold\":-1}}\n")).expect_err("garbled");
        let message = data_error_at(err, 2);
        assert!(message.contains("\"op\""), "{message}");
    }

    #[test]
    fn a_marker_whose_count_disagrees_or_goes_backwards_is_a_data_error() {
        let err = read("ahead", &format!("{DEL0}\n{{\"fold\":2}}\n")).expect_err("ahead");
        let message = data_error_at(err, 2);
        assert!(
            message.contains("disagrees with the 1 op lines"),
            "{message}"
        );
        let text = format!("{DEL0}\n{{\"fold\":1}}\n{DEL1}\n{{\"fold\":1}}\n");
        let message = data_error_at(read("backwards", &text).expect_err("backwards"), 4);
        assert!(message.contains("does not advance"), "{message}");
    }

    #[test]
    fn a_marker_only_journal_is_a_data_error() {
        data_error_at(read("zero", "{\"fold\":0}\n").expect_err("zero"), 1);
        data_error_at(read("one", "\n{\"fold\":1}\n").expect_err("one"), 2);
    }

    #[test]
    fn ops_that_do_not_replay_name_their_line() {
        // The same id deleted twice before a marker, and after the last.
        let journal = read("double", &format!("{DEL0}\n{DEL0}\n{{\"fold\":2}}\n")).expect("reads");
        data_error_at(journal.fold(dataset()).expect_err("double delete"), 3);
        let journal = read("double-tail", &format!("{DEL1}\n{DEL0}\n{DEL0}\n")).expect("reads");
        let base = dataset();
        let index = PoiIndex::build(&base.network, &base.pois, 1e-3);
        let err = journal
            .seal_pending(&index, base)
            .expect_err("double delete");
        data_error_at(err, 1);
    }

    #[test]
    fn appended_batches_read_back_with_their_markers() {
        let path = temp_journal("append");
        std::fs::remove_file(&path).ok();
        append(&path, &[DEL0, DEL1], Some(2)).expect("append");
        append(&path, &[DEL0], None).expect("append");
        let text = std::fs::read_to_string(&path).expect("journal");
        assert_eq!(text, format!("{DEL0}\n{DEL1}\n{{\"fold\":2}}\n{DEL0}\n"));
        let journal = Journal::read(Some(&path), &dataset().vocab).expect("reads");
        std::fs::remove_file(&path).ok();
        assert_eq!((journal.applied(), journal.folds()), (2, 1));
        assert_eq!(journal.pending().len(), 1);
    }
}
