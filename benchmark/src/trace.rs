//! Writing the spans out. They are kept in memory while the run
//! measures and written only when it has ended.

use crate::gen::Sample;
use crate::workload::Plan;
use std::io::Write;
use std::path::Path;

/// One JSON object per request of the traced segment, in resolution
/// order. Times are ns from the start of warm-up. See the README for
/// how the three spans of a request read off a line.
pub fn write_jsonl(path: &Path, plan: &Plan, spans: &[Sample]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"due_ns\":{},\"called_ns\":{},\"resolved_ns\":{},\"cost_units\":{},\"outcome\":\"{}\"}}",
            s.idx,
            s.due_ns,
            s.called_ns,
            s.resolved_ns,
            plan.units[s.idx as usize],
            s.outcome.name(),
        )?;
    }
    out.flush()
}
